import hashlib
import json
from fractions import Fraction as Q
from itertools import product

import pytest

from wittenzeta import dims, rootdata
from wittenzeta.errors import UnknownSpace, UnsupportedFamily, UnsupportedSpace
from wittenzeta.rootdata import build_root_system, lookup_space

COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 1): 1, ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 1): 1, ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
    ("D", 2): 2, ("D", 3): 6, ("D", 4): 12,
    ("BC", 1): 2, ("BC", 2): 6, ("BC", 3): 12,
    ("E6", 6): 36, ("E7", 7): 63, ("E8", 8): 120,
    ("F4", 4): 24, ("G2", 2): 6,
}


def dot(x, y):
    """Exact inner product of two ambient vectors."""
    return sum((a * b for a, b in zip(x, y)), Q(0))


def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def simple_roots(rs):
    return rs.positive_roots[:rs.rank]


def scale(c, vector):
    return tuple(c * a for a in vector)


def combine(coeffs, vectors):
    """The ambient vector sum_i coeffs[i] vectors[i], exact."""
    return tuple(sum((c * v[k] for c, v in zip(coeffs, vectors)), Q(0))
                 for k in range(len(vectors[0])))


def ambient_coweights(rs):
    """The coweights w_i = sum_j W_ij alpha_j as ambient vectors, from the
    inverse Gram matrix W that ``rs.coweights`` holds; the duality test below
    checks (w_i, alpha_j) = delta_ij on them."""
    return [combine(row, simple_roots(rs)) for row in rs.coweights]


def ambient_rho(mult, roots):
    """rho = 1/2 sum_alpha m_alpha alpha, as an ambient vector."""
    return combine([Q(m, 2) for m in mult], roots)


def expand_in_simple(rs, vector):
    """Coefficients of ``vector`` over the simple roots, read off the coweights;
    ValueError when it is not in their span."""
    coeffs = [dot(vector, w) for w in ambient_coweights(rs)]
    if combine(coeffs, simple_roots(rs)) != vector:
        raise ValueError("not in the span of the simple roots")
    return coeffs


@pytest.mark.parametrize("family,rank", sorted(COUNTS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == COUNTS[(family, rank)]
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


def test_a1_single_root():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == ((Q(1), Q(-1)),)


def test_bc1_structure():
    rs = build_root_system("BC", 1)
    assert set(rs.positive_roots) == {(Q(1),), (Q(2),)}
    assert tuple(rs.positive_roots[i] for i in rs.indivisible_indices) == ((Q(1),),)
    assert [rs.positive_roots[i] for i in rs.divisible_indices] == [(Q(1),)]


def test_f4_by_brute_force_enumeration():
    # every vector of squared length 1 or 2 with integer or half-odd-integer
    # coordinates, positivity decided by the simple system
    rs = build_root_system("F4", 4)
    candidates = set()
    for coords in product([-1, 0, 1], repeat=4):
        v = tuple(Q(c) for c in coords)
        if dot(v, v) in (Q(1), Q(2)):
            candidates.add(v)
    for signs in product([Q(1, 2), Q(-1, 2)], repeat=4):
        candidates.add(tuple(signs))
    assert len(candidates) == 48
    positives = set()
    for v in candidates:
        try:
            coeffs = expand_in_simple(rs, v)
        except ValueError:
            continue
        if all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs):
            positives.add(v)
    assert positives == set(rs.positive_roots)


def test_e8_by_brute_force_enumeration():
    # the 240 vectors of squared length 2 in the E8 lattice: integer or
    # half-odd-integer coordinates with an even sum; the sign of their
    # expansion over the simple roots splits them into positive and negative
    rs = build_root_system("E8", 8)
    candidates = [tuple(Q(c) for c in v) for v in product((-1, 0, 1), repeat=8)
                  if sum(c * c for c in v) == 2]
    candidates += [tuple(Q(c, 2) for c in v) for v in product((-1, 1), repeat=8)
                   if v.count(-1) % 2 == 0]
    assert len(candidates) == 240
    positives = []
    for v in candidates:
        coeffs = expand_in_simple(rs, v)
        assert all(c.denominator == 1 for c in coeffs), v
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs), v
        if all(c >= 0 for c in coeffs):
            positives.append(v)
    assert sorted(positives) == sorted(rs.positive_roots)


@pytest.mark.parametrize("family,rank", sorted(COUNTS))
def test_coweights_are_dual_to_the_simple_roots(family, rank):
    rs = build_root_system(family, rank)
    simples = simple_roots(rs)
    coweights = ambient_coweights(rs)
    assert len(coweights) == rank
    for i, w in enumerate(coweights):
        assert [dot(w, a) for a in simples] == [Q(int(i == j)) for j in range(rank)]
        # w lies in the span of the simple roots: w = sum_j (w, w_j) alpha_j
        assert combine([dot(w, v) for v in coweights], simples) == w


@pytest.mark.parametrize("family,rank", sorted(COUNTS))
def test_coefficients_rebuild_the_ambient_roots(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.coefficients) == len(rs.positive_roots)
    for n, root in zip(rs.coefficients, rs.positive_roots):
        assert all(isinstance(c, int) and c >= 0 for c in n)
        assert combine(n, simple_roots(rs)) == root
    assert all(type(c) is int for a in rs.doubled_roots for c in a)
    assert rs.positive_roots == tuple(scale(Q(1, 2), a) for a in rs.doubled_roots)
    assert rs.norms == tuple(dot(a, a) for a in rs.positive_roots)


@pytest.mark.parametrize("family,rank", sorted(COUNTS))
def test_positive_roots_are_nonneg_integer_combinations(family, rank):
    rs = build_root_system(family, rank)
    for root in rs.positive_roots:
        coeffs = expand_in_simple(rs, root)
        assert all(c.denominator == 1 and c >= 0 for c in coeffs), (root, coeffs)


@pytest.mark.parametrize("family,rank", sorted(COUNTS))
def test_weyl_reflection_closure(family, rank):
    rs = build_root_system(family, rank)
    full = set(rs.positive_roots) | {scale(Q(-1), a) for a in rs.positive_roots}
    for simple in simple_roots(rs):
        norm = dot(simple, simple)
        for root in rs.positive_roots:
            refl = vadd(root, scale(-2 * dot(root, simple) / norm, simple))
            assert refl in full


def test_bc_divisible_bookkeeping():
    for rank in (1, 2, 3):
        rs = build_root_system("BC", rank)
        pos = set(rs.positive_roots)
        for i in rs.divisible_indices:
            assert scale(Q(2), rs.positive_roots[i]) in pos
        indiv = {rs.positive_roots[i] for i in rs.indivisible_indices}
        for a in pos:
            assert (scale(Q(1, 2), a) not in pos) == (a in indiv)


def test_unsupported_family_errors():
    with pytest.raises(UnsupportedFamily):
        build_root_system("Z", 2)
    with pytest.raises(UnsupportedFamily):
        build_root_system("E6", 5)
    with pytest.raises(UnsupportedFamily):
        build_root_system("A", 0)


# --- catalog ---

MANIFOLD_DIMS = {
    "S:2": 2, "S:3": 3, "S:7": 7, "S:9": 9,
    "CP:2": 4, "CP:3": 6, "CP:5": 10,
    "HP:1": 4, "HP:2": 8, "HP:3": 12,
    "FII": 16,
    "AI:3": 5, "AI:4": 9,            # (n-1)(n+2)/2
    "AII:2": 5, "AII:3": 14,         # (n-1)(2n+1)
    "AIII:3,2": 12, "AIII:4,2": 16,  # 2pq
    "BDI:3,2": 6, "BDI:5,2": 10, "BDI:3,3": 9,   # pq
    "DIII:4": 12, "DIII:5": 20,      # n(n-1)
    "CI:2": 6, "CI:3": 12,           # n(n+1)
    "CII:2,2": 16, "CII:3,2": 24,    # 4pq
    "EI": 42, "EII": 40, "EIII": 32, "EIV": 26, "EV": 70,
    "EVI": 64, "EVIII": 128, "EIX": 112,
    "FI": 28, "GI": 8,
}


@pytest.mark.parametrize("space_id", sorted(MANIFOLD_DIMS))
def test_catalog_dimensions(space_id):
    assert lookup_space(space_id).dim == MANIFOLD_DIMS[space_id]


def test_rank_one_dimension_identity():
    for sid in ("S:2", "S:5", "S:8", "CP:2", "CP:4", "HP:1", "HP:2", "FII"):
        space = lookup_space(sid)
        assert space.rank == 1
        rs = space.root_system
        idx = rs.indivisible_indices[0]
        assert space.dim == 1 + space.m_alpha(idx) + space.m_2alpha(idx)


def test_rho_recomputation_both_forms():
    # half-sum over all positive roots == half-sum over indivisible roots
    # with the doubled-root multiplicity folded in, and both give the
    # library's rho pairings
    for sid in rootdata.CATALOG_IDS:
        space = lookup_space(sid)
        if not space.evaluable:
            continue
        rs = space.root_system
        indiv = rs.indivisible_indices
        alt = ambient_rho([space.m_alpha(i) + 2 * space.m_2alpha(i) for i in indiv],
                          [rs.positive_roots[i] for i in indiv])
        rho = ambient_rho(space.mult, rs.positive_roots)
        assert alt == rho, sid
        assert space.rho_pairings == tuple(dot(rho, a) / dot(a, a)
                                           for a in rs.positive_roots), sid


def test_rho_is_cached():
    space = lookup_space("EVIII")
    assert space.rho_pairings is space.rho_pairings
    assert dims.compile_group("E8").shifts is dims.compile_group("E8").shifts


TABLE3 = {"S:2": Q(1, 2), "S:4": Q(3, 2), "S:7": Q(3), "CP:2": Q(2),
          "CP:3": Q(3), "HP:1": Q(3), "HP:2": Q(5), "FII": Q(11)}


@pytest.mark.parametrize("space_id", sorted(TABLE3))
def test_rank_one_rho_pairings(space_id):
    space = lookup_space(space_id)
    rs = space.root_system
    i = rs.indivisible_indices[0]
    alpha = rs.positive_roots[i]
    rho = ambient_rho(space.mult, rs.positive_roots)
    assert dot(rho, alpha) / dot(alpha, alpha) == TABLE3[space_id]
    assert space.rho_pairings[i] == TABLE3[space_id]


def test_rho_pairing_examples():
    # simple root of the rank-two m=1 space over A2
    space = lookup_space("AI:3")
    rs = space.root_system
    alpha = simple_roots(rs)[0]
    rho = ambient_rho(space.mult, rs.positive_roots)
    assert dot(rho, alpha) / dot(alpha, alpha) == Q(1, 2)
    assert space.rho_pairings[0] == Q(1, 2)


def test_multiplicities_constant_on_length_classes():
    for sid in rootdata.CATALOG_IDS:
        space = lookup_space(sid)
        if not space.evaluable:
            continue
        by_len = {}
        for m, a in zip(space.mult, space.root_system.positive_roots):
            by_len.setdefault(dot(a, a), set()).add(m)
        assert all(len(v) == 1 for v in by_len.values()), sid


def test_lookup_errors_and_aliases():
    with pytest.raises(UnknownSpace):
        lookup_space("S:1")
    with pytest.raises(UnknownSpace):
        lookup_space("BDI:1,2")
    with pytest.raises(UnknownSpace):
        lookup_space("XYZ:3")
    with pytest.raises(UnknownSpace):
        lookup_space("AIII:2")
    assert lookup_space("CP:1") is lookup_space("S:2")
    hp1 = lookup_space("HP:1")
    idx = hp1.root_system.indivisible_indices[0]
    assert hp1.m_alpha(idx) == 0 and hp1.m_2alpha(idx) == 3
    assert hp1.dim == 4


def test_evii_blocked():
    evii = lookup_space("EVII")
    assert not evii.evaluable
    assert evii.rank == 3
    with pytest.raises(UnsupportedSpace):
        evii.require_mult()
    with pytest.raises(UnsupportedSpace):
        _ = evii.rho_pairings


def test_sphere_multiplicities():
    s4 = lookup_space("S:4")
    idx = s4.root_system.indivisible_indices[0]
    assert s4.m_alpha(idx) == 3 and s4.m_2alpha(idx) == 0
    fii = lookup_space("FII")
    idx = fii.root_system.indivisible_indices[0]
    assert fii.m_alpha(idx) == 8 and fii.m_2alpha(idx) == 7


def test_normal_marker_metadata():
    assert lookup_space("BDI:3,2").normal_marker
    assert lookup_space("CI:2").normal_marker
    assert lookup_space("FI").normal_marker
    assert not lookup_space("AI:3").normal_marker
    assert not lookup_space("FII").normal_marker


def test_catalog_records_schema():
    for space in rootdata.catalog_spaces():
        rec = space.record()
        assert {"id", "rank", "dim", "roots", "m", "m2", "rho_pairings"} <= set(rec)
        if space.evaluable:
            assert len(rec["m"]) == len(rec["rho_pairings"])


def test_group_lookup():
    su3 = rootdata.lookup_group("SU:3")
    assert su3.rank == 2
    assert len(su3.positive_roots) == 3
    assert rootdata.lookup_group("SO:5").family == "B"
    assert rootdata.lookup_group("SO:8").family == "D"
    assert rootdata.lookup_group("Sp:2").family == "C"
    with pytest.raises(UnknownSpace):
        rootdata.lookup_group("SU:1")
    with pytest.raises(UnknownSpace):
        rootdata.lookup_group("U:3")


def fundamental_weights(rs):
    """The fundamental weights (|alpha_i|^2 / 2) w_i as ambient vectors."""
    return [scale(dot(a, a) / 2, w) for a, w in zip(simple_roots(rs), ambient_coweights(rs))]


def test_fundamental_weights_duality():
    for gid in ("SU:3", "SO:5", "Sp:3", "G2", "F4"):
        g = rootdata.lookup_group(gid)
        weights_ = fundamental_weights(g)
        simples = simple_roots(g)
        for i, w in enumerate(weights_):
            for j, a in enumerate(simples):
                expected = Q(1) if i == j else Q(0)
                assert 2 * dot(w, a) / dot(a, a) == expected


def test_m_2alpha_matches_linear_scan():
    for space in (s for s in rootdata.catalog_spaces() if s.evaluable):
        rs = space.root_system
        for i in rs.indivisible_indices:
            doubled = scale(Q(2), rs.positive_roots[i])
            scan = [space.mult[j] for j, beta in enumerate(rs.positive_roots)
                    if beta == doubled]
            assert space.m_2alpha(i) == (scan[0] if scan else 0), (space.space_id, i)


def test_space_pairings_match_ambient_computation():
    # class-one basis b_i = s_i w_i, s_i = |alpha_i|^2, doubled on a
    # divisible simple root; every pairing and rho pairing in ambient vectors
    for space in (s for s in rootdata.catalog_spaces() if s.evaluable):
        rs = space.root_system
        basis = [scale(dot(a, a) * (2 if i in rs.divisible_indices else 1), w)
                 for i, (a, w) in enumerate(zip(simple_roots(rs), ambient_coweights(rs)))]
        rho = ambient_rho(space.mult, rs.positive_roots)
        matrix = dims.class_one_pairing_matrix(space.space_id)
        assert matrix == tuple(tuple(dot(b, a) / dot(a, a) for a in rs.positive_roots)
                               for b in basis), space.space_id
        assert space.rho_pairings == tuple(dot(rho, a) / dot(a, a)
                                           for a in rs.positive_roots), space.space_id


def test_group_tables_match_ambient_computation():
    # coroot pairings of the fundamental weights and of rho, in ambient vectors
    for gid in _FINGERPRINT_GROUPS:
        rs = rootdata.lookup_group(gid)
        rho = ambient_rho([1] * len(rs.positive_roots), rs.positive_roots)
        pairing, shifts = dims.compile_group(gid).pairing, dims.compile_group(gid).shifts
        assert pairing == tuple(tuple(2 * dot(w, a) / dot(a, a) for a in rs.positive_roots)
                                for w in fundamental_weights(rs)), gid
        assert shifts == tuple(2 * dot(rho, a) / dot(a, a) for a in rs.positive_roots), gid


FINGERPRINT = "7c7b856030d855aa87e122048c04018033d1b56482f70b8137614a1f0a3525b2"
_FINGERPRINT_GROUPS = ("SU:2", "SU:3", "SU:4", "SO:5", "SO:7", "SO:8", "Sp:3", "Sp:4",
                       "G2", "F4", "E6", "E7", "E8")


def _table_record(table):
    return {"pairing": table.pairing, "shifts": [str(c) for c in table.shifts],
            "gram": [[str(v) for v in row] for row in table.gram],
            "lin": [str(v) for v in table.lin]}


def test_catalog_and_tables_fingerprint():
    # sha256 of every catalog record and every compiled table; the expected
    # digest was computed from hand-written positive-root lists, so a root
    # that is wrong, missing or out of order in the generated systems shows
    digest = hashlib.sha256()
    for space in rootdata.catalog_spaces():
        digest.update(json.dumps(space.record(), sort_keys=True).encode())
        if space.evaluable:
            table = dims.compile_space(space.space_id)
            digest.update(json.dumps(_table_record(table)).encode())
    for gid in _FINGERPRINT_GROUPS:
        table = dims.compile_group(gid)
        digest.update(json.dumps(_table_record(table)).encode())
    assert digest.hexdigest() == FINGERPRINT
