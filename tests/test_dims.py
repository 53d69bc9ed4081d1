import itertools
import math
import random
from fractions import Fraction as Q
from functools import partial

import numpy as np
import pytest

from wittenzeta import dims, rootdata, weights
from wittenzeta.dims import (c_alpha, c_alpha_reduced, dim_class_one,
                             dim_class_one_log, dim_factor, dim_type_II,
                             dimension_via_c_ratio, per_root_params,
                             rank_one_factored)
from wittenzeta.errors import (InconsistentMultiplicities, NotRankOne,
                               PoleError, UnknownSpace, UnsupportedSpace)

EVAL_IDS = [sid for sid in rootdata.CATALOG_IDS
            if rootdata.lookup_space(sid).evaluable]


def test_dim_factor_normal_case():
    params = per_root_params(1, 0, Q(5, 2))
    for n in range(6):
        assert dim_factor(params, n) == Q(n + Q(5, 2)) / Q(5, 2)


def test_dim_factor_group_case_squares():
    params = per_root_params(2, 0, Q(3))
    for n in range(6):
        assert dim_factor(params, n) == (Q(n + 3) / 3) ** 2


def test_dim_factor_s2_example():
    params = per_root_params(1, 0, Q(1, 2))
    assert dim_factor(params, 3) == 7


def test_dim_factor_case_rules():
    with pytest.raises(InconsistentMultiplicities):
        per_root_params(3, 2, Q(2))          # even m2
    with pytest.raises(InconsistentMultiplicities):
        per_root_params(3, 1, Q(2))          # odd m with m2 != 0
    with pytest.raises(InconsistentMultiplicities):
        per_root_params(4, 5, Q(4))          # j = 2 not allowed
    with pytest.raises(InconsistentMultiplicities):
        per_root_params(0, 0, Q(1))
    with pytest.raises(InconsistentMultiplicities):
        dim_factor(per_root_params(4, 1, Q(3)), 3)   # odd pairing on BC root


def test_closed_forms_sphere_family():
    for n in range(0, 201, 7):
        assert dim_class_one("S:2", (n,)) == 2 * n + 1
        assert dim_class_one("S:3", (n,)) == (n + 1) ** 2
        assert dim_class_one("S:4", (n,)) == Q((n + 1) * (n + 2) * (2 * n + 3), 6)
        assert dim_class_one("S:5", (n,)) == Q((n + 1) * (n + 2) ** 2 * (n + 3), 12)


def test_closed_forms_projective_family():
    assert dim_class_one("CP:2", (2,)) == 27
    for n in range(0, 50, 3):
        assert dim_class_one("CP:2", (n,)) == (n + 1) ** 3
        # adjoint-type family of the rank-three unitary quotient
        expected = Q((n + 1) ** 2 * (n + 2) ** 2 * (2 * n + 3), 12)
        assert dim_class_one("CP:3", (n,)) == expected


def test_trivial_weight_has_dimension_one():
    for sid in EVAL_IDS:
        rank = rootdata.lookup_space(sid).rank
        assert dim_class_one(sid, (0,) * rank) == 1


def test_dimension_exceeds_one_away_from_zero():
    for sid in ("S:6", "CP:4", "EIII", "GI", "AI:4"):
        rank = rootdata.lookup_space(sid).rank
        for coords in weights._graded_box(rank, 1)[1:]:
            assert dim_class_one(sid, coords) > 1


def test_isomorphic_space_identities():
    for n in range(201):
        assert dim_class_one("HP:1", (n,)) == dim_class_one("S:4", (n,))
        assert dim_class_one("CP:1", (n,)) == dim_class_one("S:2", (n,))


def test_group_manifold_square_identity():
    for n in range(40):
        assert dim_class_one("S:3", (n,)) == dim_type_II("SU:2", (n,)) ** 2


def test_numeric_examples():
    assert math.exp(dim_class_one_log("S:3", (1,))) == pytest.approx(4.0, abs=1e-9)
    assert math.exp(dim_class_one_log("HP:1", (1,))) == pytest.approx(5.0, abs=1e-9)
    assert math.exp(dim_class_one_log("FII", (0,))) == pytest.approx(1.0, abs=1e-12)


def test_numeric_overflow_and_log_path():
    # log d is past the float range at (300,) * 8
    for coords in ((30,) * 8, (300,) * 8):
        logd = dim_class_one_log("EVIII", coords)
        exact = dim_class_one("EVIII", coords)
        assert logd == pytest.approx(
            math.log(exact.numerator) - math.log(exact.denominator), abs=1e-8)


def _sample_box(space_id, cap, limit, seed=20260810):
    rank = rootdata.lookup_space(space_id).rank
    if (cap + 1) ** rank <= limit:
        return weights._graded_box(rank, cap)
    rng = random.Random(seed)
    picks = {(0,) * rank, (cap,) * rank}
    for i in range(rank):
        for n in (1, 2, 3, 7, 15, cap):
            coords = [0] * rank
            coords[i] = n
            picks.add(tuple(coords))
    while len(picks) < limit:
        picks.add(tuple(rng.randint(0, cap) for _ in range(rank)))
    return sorted(picks)


@pytest.mark.parametrize("space_id", EVAL_IDS)
def test_two_path_equality_small_boxes(space_id):
    for coords in _sample_box(space_id, 6, 80):
        exact = dim_class_one(space_id, coords)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert dim_class_one_log(space_id, coords) == pytest.approx(
            log_exact, abs=1e-9), coords


@pytest.mark.parametrize("space_id", [*EVAL_IDS, "S:1001", "S:2001", "HP:300",
                                      "CP:400", "BDI:900,2", "AIII:500,2"])
def test_two_path_equality_at_large_weights(space_id):
    # the log-gammas of one gamma ratio cancel to a few digits at large
    # pairings; at 10^200 the dimension is past the float range, its log is
    # not, and at 10^400 so is the pairing.  The large-multiplicity spaces
    # have gamma shifts near 10^3, so a pairing of 500 to 10^3 is not yet
    # large next to them.
    rank = rootdata.lookup_space(space_id).rank
    for n in (*(10 ** e for e in range(21)), 500, 999, 10 ** 200, 10 ** 400):
        coords = (n,) * rank
        exact = dim_class_one(space_id, coords)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert dim_class_one_log(space_id, coords) == pytest.approx(
            log_exact, rel=1e-9), coords


# --- compiled linear factors: exact and batch paths ---

def _compiled_exact(table, coords):
    acc = Q(1)
    for j, c in enumerate(table.shifts):
        acc *= (sum(n * row[j] for n, row in zip(coords, table.pairing)) + c) / c
    return acc


def _full_box(rank, box):
    return list(itertools.product(range(box + 1), repeat=rank))


@pytest.mark.parametrize("space_id", EVAL_IDS)
def test_compiled_factors_match_both_paths(space_id):
    table = dims.compile_space(space_id)
    rank = rootdata.lookup_space(space_id).rank
    assert len(table.pairing) == rank
    assert all(c > 0 for c in table.shifts)
    assert all(isinstance(v, int) and v >= 0 for row in table.pairing for v in row)
    points = _full_box(rank, 3 if rank <= 4 else 1)
    batch = np.exp(table.log_dims(np.array(points, dtype=np.int64)))
    for coords, from_batch in zip(points, batch):
        exact = dim_class_one(space_id, coords)
        assert _compiled_exact(table, coords) == exact, coords
        assert from_batch == pytest.approx(float(exact), rel=1e-13), coords
        # criterion 4: the exact and batch paths against the log-gamma path
        logd = dim_class_one_log(space_id, coords)
        assert math.log(exact) == pytest.approx(logd, abs=1e-9), coords
        assert math.log(from_batch) == pytest.approx(logd, abs=1e-9), coords


@pytest.mark.parametrize("group_id", ["SU:3", "G2", "SU:4", "SO:5", "Sp:3", "F4"])
def test_compiled_group_factors_match_weyl(group_id):
    table = dims.compile_group(group_id)
    assert all(c > 0 and c.denominator == 1 for c in table.shifts)
    points = _full_box(rootdata.lookup_group(group_id).rank, 3)
    batch = np.exp(table.log_dims(np.array(points, dtype=np.int64)))
    for coords, from_batch in zip(points, batch):
        exact = dim_type_II(group_id, coords)
        assert _compiled_exact(table, coords) == exact, coords
        assert from_batch == pytest.approx(float(exact), rel=1e-13), coords


def test_compile_rejects_nonpositive_shift():
    with pytest.raises(AssertionError):
        dims.LinearFactors(pairing=((1, 1),), shifts=(Q(1), Q(0)),
                           gram=((Q(1),),), lin=(Q(2),))
    with pytest.raises(AssertionError):
        dims.LinearFactors(pairing=((1, 0), (0, 1)), shifts=(Q(1), Q(1)),
                           gram=((Q(1), Q(-1)), (Q(-1), Q(1))), lin=(Q(2), Q(2)))


@pytest.mark.parametrize("kind,ident", [("group", "SU:3"), ("group", "SU:4"),
                                        ("group", "G2"), ("space", "AI:3"),
                                        ("space", "GI"), ("space", "EIII")])
def test_float_casimirs_match_exact(kind, ident):
    table = dims.compile_group(ident) if kind == "group" else dims.compile_space(ident)
    rank = len(table.lin)
    rows = np.array(list(itertools.product(range(4), repeat=rank)), dtype=np.int64)
    exact = [float(table.casimir(n)) for n in map(tuple, rows.tolist())]
    # a Gram entry such as 2/3 is rounded once, so a few ulp apart at most
    assert table.casimirs(rows).tolist() == pytest.approx(exact, rel=4 * 2.0 ** -52)


@pytest.mark.parametrize("rank,boxes", [(1, (5, 40000)), (2, (7, 200)),
                                        (3, (4, 40)), (4, (3, 15))])
def test_box_chunks_cover_the_box_once(rank, boxes):
    for box in boxes:
        chunks = list(weights.box_chunks(rank, box))
        assert all(0 < len(c) <= weights.CHUNK_ROWS for c in chunks)
        rows = np.concatenate(chunks)
        assert rows.dtype == np.int64 and rows.shape == ((box + 1) ** rank, rank)
        assert rows.min() >= 0 and rows.max() <= box
        keys = rows @ (box + 1) ** np.arange(rank, dtype=np.int64)
        assert len(np.unique(keys)) == len(rows)
        if len(chunks) == 1:
            assert sorted(map(tuple, rows.tolist())) == sorted(
                weights._graded_box(rank, box))
    assert len(chunks) > 1


def test_coordinate_count_checked():
    group, space = dims.compile_group("SU:3"), dims.compile_space("AI:3")
    for coords in ((1,), (1, 1, 1)):
        for call in (partial(dim_class_one, "AI:3"), space.casimir, group.casimir):
            with pytest.raises(UnknownSpace):
                call(coords)
    # negative coordinates are not weights of the dominant cone
    for coords in ((-1, 0), (-3, 0), (-2, -2), (0, -1)):
        for call in (partial(dims.dim_type_II, "SU:3"), group.casimir,
                     partial(dim_class_one, "AI:3"), partial(dim_class_one_log, "AI:3"),
                     space.casimir):
            with pytest.raises(UnknownSpace):
                call(coords)


def test_casimir_values():
    assert dims.compile_group("SU:2").casimir((0,)) == 0
    assert dims.compile_group("SU:2").casimir((1,)) == Q(3, 2)
    assert dims.compile_space("S:2").casimir((1,)) == 2
    assert dims.compile_space("S:2").casimir((0,)) == 0


def test_casimir_monotone_on_rays():
    for sid in ("S:5", "CP:3", "AI:3"):
        rank = rootdata.lookup_space(sid).rank
        for axis in range(rank):
            prev = Q(-1)
            for n in range(6):
                coords = [0] * rank
                coords[axis] = n
                val = dims.compile_space(sid).casimir(tuple(coords))
                assert val > prev
                prev = val


def test_weyl_dimensions():
    for n in range(12):
        assert dim_type_II("SU:2", (n,)) == n + 1
    assert dim_type_II("SU:3", (1, 1)) == 8
    assert dim_type_II("SU:3", (1, 0)) == 3
    assert dim_type_II("SU:3", (0, 1)) == 3


def test_weyl_dimension_brute_force_a2():
    # independent evaluation over the three positive roots of A2
    for a in range(6):
        for b in range(6):
            expected = Q((a + 1) * (b + 1) * (a + b + 2), 2)
            assert dim_type_II("SU:3", (a, b)) == expected


def test_weyl_dimension_integrality_spot():
    rng = random.Random(7)
    for _ in range(25):
        coords = tuple(rng.randint(0, 4) for _ in range(3))
        assert dim_type_II("SU:4", coords) >= 1


FUNDAMENTAL_DIMS = {
    ("G2", (1, 0)): 7, ("G2", (0, 1)): 14,
    ("F4", (0, 0, 0, 1)): 26, ("F4", (1, 0, 0, 0)): 52,
    ("E6", (1, 0, 0, 0, 0, 0)): 27, ("E6", (0, 1, 0, 0, 0, 0)): 78,
    ("E7", (0, 0, 0, 0, 0, 0, 1)): 56, ("E7", (1, 0, 0, 0, 0, 0, 0)): 133,
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1)): 248, ("E8", (1, 0, 0, 0, 0, 0, 0, 0)): 3875,
    ("Sp:3", (1, 0, 0)): 6, ("Sp:3", (0, 1, 0)): 14, ("Sp:3", (0, 0, 1)): 14,
    ("SO:7", (1, 0, 0)): 7, ("SO:7", (0, 1, 0)): 21, ("SO:7", (0, 0, 1)): 8,
    ("SO:8", (1, 0, 0, 0)): 8, ("SO:8", (0, 1, 0, 0)): 28,
    ("SO:8", (0, 0, 1, 0)): 8, ("SO:8", (0, 0, 0, 1)): 8,
}


@pytest.mark.parametrize("group_id,coords", sorted(FUNDAMENTAL_DIMS))
def test_fundamental_representation_dimensions(group_id, coords):
    assert dim_type_II(group_id, coords) == FUNDAMENTAL_DIMS[(group_id, coords)]


def test_class_one_dimensions_match_group_side():
    """Spherical representations located inside the overlying group.

    These pair the restricted-root factor product against the full Weyl
    product at the known highest weights, so the two computations share no
    code beyond the root-system constructors.
    """
    for a in range(5):
        for b in range(5):
            assert dim_class_one("AI:3", (a, b)) == dim_type_II("SU:3", (2 * a, 2 * b))
    for n in range(8):
        assert dim_class_one("AII:2", (n,)) == dim_type_II("SU:4", (0, n, 0))
        assert dim_class_one("S:4", (n,)) == dim_type_II("SO:5", (n, 0))
        assert dim_class_one("S:5", (n,)) == dim_type_II("SO:6", (n, 0, 0))
        assert dim_class_one("CP:3", (n,)) == dim_type_II("SU:4", (n, 0, n))
        assert dim_class_one("HP:2", (n,)) == dim_type_II("Sp:3", (0, n, 0))
        assert dim_class_one("FII", (n,)) == dim_type_II("F4", (0, 0, 0, n))


# --- factored rank-one polynomials ---

EXPECTED_FACTORED = {
    "S:2": (Q(2), ((Q(1, 2), 1),)),
    "S:3": (Q(1), ((Q(1), 2),)),
    "S:4": (Q(1, 3), ((Q(1), 1), (Q(3, 2), 1), (Q(2), 1))),
    "S:5": (Q(1, 12), ((Q(1), 1), (Q(2), 2), (Q(3), 1))),
    "S:6": (Q(1, 60), ((Q(1), 1), (Q(2), 1), (Q(5, 2), 1), (Q(3), 1), (Q(4), 1))),
    "S:7": (Q(1, 360), ((Q(1), 1), (Q(2), 1), (Q(3), 2), (Q(4), 1), (Q(5), 1))),
    "CP:2": (Q(1), ((Q(1), 3),)),
    "CP:3": (Q(1, 6), ((Q(1), 2), (Q(3, 2), 1), (Q(2), 2))),
    "CP:4": (Q(1, 72), ((Q(1), 2), (Q(2), 3), (Q(3), 2))),
    "HP:1": (Q(1, 3), ((Q(1), 1), (Q(3, 2), 1), (Q(2), 1))),
    "HP:2": (Q(1, 360), ((Q(1), 1), (Q(2), 2), (Q(5, 2), 1), (Q(3), 2), (Q(4), 1))),
    "FII": (Q(1, 16765056000),
            ((Q(1), 1), (Q(2), 1), (Q(3), 1), (Q(4), 2), (Q(5), 2),
             (Q(11, 2), 1), (Q(6), 2), (Q(7), 2), (Q(8), 1), (Q(9), 1),
             (Q(10), 1))),
}


@pytest.mark.parametrize("space_id", sorted(EXPECTED_FACTORED))
def test_rank_one_factored_table(space_id):
    poly = rank_one_factored(space_id)
    c, factors = EXPECTED_FACTORED[space_id]
    assert poly.c == c
    assert poly.factors == factors


@pytest.mark.parametrize("ident", sorted(EXPECTED_FACTORED) + ["SU:2", "SO:3", "Sp:1"])
def test_factored_matches_dimension_everywhere(ident):
    if ident in EXPECTED_FACTORED:
        poly, exact = rank_one_factored(ident), partial(dim_class_one, ident)
    else:
        poly, exact = dims.compile_group(ident).factored, partial(dim_type_II, ident)
    for n in range(201):
        assert poly.evaluate(n) == exact((n,))


def test_factored_structural_invariants():
    for sid in EXPECTED_FACTORED:
        space = rootdata.lookup_space(sid)
        poly = rank_one_factored(sid)
        assert poly.evaluate(0) == 1
        assert poly.degree == space.dim - 1
        idx = space.root_system.indivisible_indices[0]
        assert poly.degree == space.m_alpha(idx) + space.m_2alpha(idx)
        for kappa, xi in poly.factors:
            assert xi in (1, 2, 3)
            assert (2 * kappa).denominator == 1 and kappa > 0


def test_factored_expand():
    poly = rank_one_factored("S:2")
    assert poly.expand() == (Q(1), Q(2))
    poly = rank_one_factored("S:3")
    assert poly.expand() == (Q(1), Q(2), Q(1))


def test_rank_one_guard():
    with pytest.raises(NotRankOne):
        rank_one_factored("AI:3")
    with pytest.raises(UnsupportedSpace):
        rank_one_factored("EVII")
    with pytest.raises(UnsupportedSpace):
        dim_class_one("EVII", (0, 0, 0))


# --- quotient polynomial identities behind the odd/even cases ---

def _random_rational(rng: random.Random) -> Q:
    x = Q(rng.randint(1, 70), rng.randint(2, 13))
    while (2 * x).denominator == 1 or x > 8:
        x = Q(rng.randint(1, 70), rng.randint(2, 13))
    return x


def _gamma_any(t: float) -> float:
    if t > 0:
        return math.gamma(t)
    return math.pi / (math.sin(math.pi * t) * math.gamma(1.0 - t))


def test_c0_polynomial_identity_exact_and_numeric():
    rng = random.Random(11)
    for l in range(1, 9):
        for _ in range(20):
            x = _random_rational(rng)
            # two independently coded exact forms of the quotient polynomial
            factored = (-1) ** l * x * x
            for k in range(1, l):
                factored *= x * x - k * k
            falling = Q(1)
            for k in range(l):
                falling *= (x + k) * (k - x)   # Gamma(l+x)/Gamma(x), Gamma(l-x)/Gamma(-x)
            assert factored == falling
            # gamma quotient numerically
            xf = float(x)
            got = (math.gamma(l + xf) / math.gamma(xf)) \
                * (math.gamma(l - xf) / math.gamma(-xf))
            assert got == pytest.approx(float(factored), rel=1e-9)


def test_c1_identity_exact_and_numeric():
    # Gamma(1/2+l+x)Gamma(1/2+l-x) = pi/cos(pi x) * prod ((k-1/2)^2 - x^2)
    rng = random.Random(13)
    for l in range(1, 9):
        for _ in range(20):
            x = _random_rational(rng)
            factored = Q(1)
            for k in range(1, l + 1):
                factored *= Q(2 * k - 1, 2) ** 2 - x * x
            rising = Q(1)
            for k in range(l):
                rising *= (Q(1, 2) + k + x) * (Q(1, 2) + k - x)
            assert factored == rising
            xf = float(x)
            lhs = math.gamma(0.5 + l + xf) * _gamma_any(0.5 + l - xf)
            rhs = math.pi / math.cos(math.pi * xf) * float(factored)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gs7_identity():
    # Gamma(1+n+x)Gamma(1+n-x) = pi x/sin(pi x) * prod (k^2 - x^2)
    for n in range(1, 9):
        for x in (0.21, 0.685, 0.9):
            lhs = math.gamma(1 + n + x) * math.gamma(1 + n - x)
            prod = math.prod(k * k - x * x for k in range(1, n + 1))
            rhs = math.pi * x / math.sin(math.pi * x) * prod
            assert lhs == pytest.approx(rhs, rel=1e-10)


# --- c-function ---

def test_c_function_gk2_vs_gk3_on_reduced_space():
    space = rootdata.lookup_space("S:5")
    idx = space.root_system.indivisible_indices[0]
    m = space.m_alpha(idx)
    z = 2.7j
    full = c_alpha(m, 0, z)
    reduced = c_alpha_reduced(m, z)
    assert abs(full - reduced) / abs(reduced) < 1e-10


def test_c_function_product_matches_scalar():
    val = dims.c_function("S:5", (2.7j,))
    scalar = c_alpha(4, 0, 2.7j)
    assert abs(val - scalar) < 1e-12 * abs(scalar)


def test_c_function_pole_detection():
    with pytest.raises(PoleError):
        c_alpha(4, 0, 0.0)   # Gamma(i z) at z = 0


@pytest.mark.parametrize("space_id,n", [("S:2", 4), ("S:5", 3), ("CP:2", 2),
                                        ("HP:2", 2), ("FII", 1)])
def test_dimension_via_c_ratio(space_id, n):
    expected = float(dim_class_one(space_id, (n,)))
    got = dimension_via_c_ratio(space_id, (n,))
    assert got == pytest.approx(expected, rel=1e-8)


def test_c_ratio_higher_rank():
    expected = float(dim_class_one("AI:3", (1, 2)))
    assert dimension_via_c_ratio("AI:3", (1, 2)) == pytest.approx(expected, rel=1e-8)


def test_c_modulus_monotone_under_multiplicity_doubling():
    # smoke test: |c| at fixed imaginary argument moves one way as all
    # multiplicities double
    for t in (0.6, 1.3):
        vals = [abs(c_alpha(m, m2, t * 1j))
                for m, m2 in ((4, 3), (8, 6), (16, 12))]
        assert vals[0] > vals[1] > vals[2] or vals[0] < vals[1] < vals[2]
