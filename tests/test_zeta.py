import bisect
import functools
import itertools
import json
import math
import random
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from wittenzeta import dims, partition, rootdata, specfun, weights, zeta
from wittenzeta.errors import DivergenceError, DomainError, UnsupportedSpace
from wittenzeta.partition import SurfaceParams, partition_type_II
from wittenzeta.genseries import Series
from wittenzeta.zeta import zeta_type_I, zeta_type_II


def test_s3_at_one_is_basel():
    res = zeta_type_I("S:3", 1.0, 1e-10)
    assert res.converged and res.rigorous
    assert res.value == pytest.approx(math.pi ** 2 / 6, abs=1e-8)


def test_s2_at_two_is_odd_basel():
    res = zeta_type_I("S:2", 2.0, 1e-10)
    assert res.value == pytest.approx(math.pi ** 2 / 8, abs=1e-8)


@pytest.mark.parametrize("run,s", [(partial(zeta_type_I, "S:2"), 1e308),
                                   (partial(zeta_type_II, "SU:2"), 1e308),
                                   (partial(zeta_type_I, "S:3"), 1e200),
                                   (partial(zeta_type_I, "S:5"), 1e300)])
def test_rank_one_at_huge_s_is_one(run, s):
    # every term past d(0) = 1 underflows; the certified tail is below the
    # float range, not NaN, and the bound counts the lost terms, so it is not
    # 0: 1.0 is not exact.  S:5 has unequal shifts, so only the first-order
    # tail bound is valid there
    res = run(s, 1e-8)
    assert res.value == 1.0 and res.converged and res.rigorous
    assert 0.0 < res.tail_bound < 1e-320 and res.terms_used == 17


#: closed forms of rank-one zeta values: d(n) = 2n + 1, (n + 1)^2, (n + 1)^3 and n + 1
_CLOSED_FORMS = {"S:2": lambda mp, s: (1 - mp.mpf(2) ** -s) * mp.zeta(s),
                 "S:3": lambda mp, s: mp.zeta(2 * s), "CP:2": lambda mp, s: mp.zeta(3 * s),
                 "SU:2": lambda mp, s: mp.zeta(s)}


def test_rank_one_bound_holds_against_closed_forms():
    # every converged answer lies within its tail_bound of the closed form,
    # at 40 digits: the bound covers the rounding of the float returned.
    # S:2 at s = 1 diverges
    mpmath = pytest.importorskip("mpmath")
    cases = [(sid, s, tol) for sid in ("S:2", "S:3", "CP:2") for s in (1, 2, 3, 4)
             for tol in (1e-6, 1e-10, 1e-13) if (sid, s) != ("S:2", 1)]
    cases += [("SU:2", s, tol) for s in (2, 3, 4) for tol in (1e-6, 1e-10, 1e-13)]
    assert len(cases) == 42
    missed = []
    with mpmath.workdps(40):
        for sid, s, tol in cases:
            run = zeta_type_II if sid == "SU:2" else zeta_type_I
            res = run(sid, float(s), tol)
            true = _CLOSED_FORMS[sid](mpmath, s)
            assert res.converged, (sid, s, tol)
            if abs(mpmath.mpf(res.value) - true) > res.tail_bound:
                missed.append((sid, s, tol))
    assert missed == []


@pytest.mark.parametrize("sid", ["HP:2", "HP:3", "FII", "CP:5"])
def test_rank_one_at_a_huge_scale_log_holds_its_bound(sid):
    # on a table with c < 1, -s log c is huge and positive, and the bounds
    # take its scaling error to first order (``genseries._scaling_error``);
    # from |s log c| = 1e12 to 1e16 each answer is unconverged with bound inf
    # or within its bound of the value at 50 digits: every d(n)^-s past n =
    # 0 is far below the float range, so no first-order error reaches a float
    mpmath = pytest.importorskip("mpmath")
    poly = dims.rank_one_factored(sid)
    log_c = math.log(float(poly.c))
    assert log_c < 0.0
    with mpmath.workdps(50):
        for scale_log in (1e12, 1e13, 1e14, 1e15, 1e16):
            s = scale_log / -log_c
            res = zeta_type_I(sid, s, 1e-8)
            if not res.converged and res.tail_bound == math.inf:
                continue
            dimensions = [poly.c * math.prod((n + k) ** xi for k, xi in poly.factors)
                          for n in (1, 2, 3)]
            true = 1 + mpmath.fsum((mpmath.mpf(d.numerator) / d.denominator) ** -mpmath.mpf(s)
                                   for d in dimensions)
            assert abs(mpmath.mpf(res.value) - true) <= res.tail_bound, scale_log


def test_rank_one_past_the_float_scale_is_a_domain_error():
    # s log(1/c) overflows to inf for S:5 at s = 1e308
    with pytest.raises(DomainError):
        zeta_type_I("S:5", 1e308)


@pytest.mark.parametrize("group_id", ["SU:2", "SO:3", "Sp:1"])
def test_rank_one_groups_share_one_table_path(group_id):
    # every rank-one group has d(n) = n + 1; only the Casimir scale differs
    expected = zeta_type_II("SU:2", 2.0).as_dict()
    assert zeta_type_II(group_id, 2.0).as_dict() == expected
    assert partition_type_II(group_id, SurfaceParams(2, 0.0)).as_dict() == expected
    res = partition_type_II(group_id, SurfaceParams(2, 0.1))
    table = dims.compile_group(group_id)
    direct = math.fsum(math.exp(-0.1 * table.casimir((n,)))
                       / dims.dim_type_II(group_id, (n,)) ** 2 for n in range(400))
    assert res.converged and abs(res.value - direct) <= res.tail_bound + 1e-15


def test_lattice_at_huge_s_warns_nothing():
    # -s log d(n) overflows to -inf, and the term is exp(-inf) = 0; the
    # certificate, taken at s = 1e300, already meets the tolerance at box 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = zeta_type_I("AI:3", 1e308, max_box=2)
    assert res.value == 1.0 and res.terms_used == 1
    assert res.converged and res.rigorous and res.tail_bound == 0.0


def test_type_i_value_within_claimed_bound():
    # loose tolerance keeps only a few explicit terms; the tail estimate
    # must still cover the truth
    accurate = zeta_type_I("S:5", 1.0, 1e-12).value
    rough = zeta_type_I("S:5", 1.0, 1e-3)
    assert abs(rough.value - accurate) <= rough.tail_bound + 1e-15
    assert rough.converged


def test_rank_one_divergence_threshold():
    with pytest.raises(DivergenceError):
        zeta_type_I("S:2", 1.0)
    with pytest.raises(DivergenceError):
        zeta_type_I("S:3", 0.5)


def test_evii_blocked():
    with pytest.raises(UnsupportedSpace):
        zeta_type_I("EVII", 2.0)


def test_su2_values():
    res = zeta_type_II("SU:2", 2.0, 1e-10)
    assert res.value == pytest.approx(math.pi ** 2 / 6, abs=1e-8)
    res = zeta_type_II("SU:2", 4.0, 1e-12)
    assert res.value == pytest.approx(math.pi ** 4 / 90, abs=1e-10)
    with pytest.raises(DivergenceError):
        zeta_type_II("SU:2", 1.0)


def test_su3_against_double_sum():
    res = zeta_type_II("SU:3", 2.0, 1e-5)
    brute = 4.0 * math.fsum(
        1.0 / (a * a * b * b * (a + b) ** 2)
        for a in range(1, 801) for b in range(1, 801)
    )
    # the brute box 800 truncation error is ~2e-9
    assert res.value == pytest.approx(brute, abs=1e-4)
    assert res.value == pytest.approx(4 * math.pi ** 6 / 2835, abs=1e-5)


def test_su3_not_converged_is_flagged():
    # type II misses its tolerance the way type I does: a result, not an error
    res = zeta_type_II("SU:3", 2.0, 1e-9, max_box=16)
    assert res.converged is False
    assert math.isfinite(res.tail_bound) and res.tail_bound > 0


@pytest.mark.parametrize("s", [0.8, 1.3, 2.5, 7.0])
def test_s3_matches_riemann_at_doubled_argument(s):
    # d = (n+1)^2, so the type I value is the Riemann zeta at 2s
    from wittenzeta.specfun import riemann_zeta
    res = zeta_type_I("S:3", s, 1e-11)
    assert res.value == pytest.approx(riemann_zeta(2.0 * s), abs=1e-9)


@pytest.mark.parametrize("s", [1.2, 2.5, 6.0])
def test_s2_matches_odd_zeta(s):
    # sum over odd integers: (1 - 2^-s) zeta(s)
    from wittenzeta.specfun import riemann_zeta
    res = zeta_type_I("S:2", s, 1e-11)
    assert res.value == pytest.approx((1.0 - 2.0 ** -s) * riemann_zeta(s),
                                      abs=1e-9)


def test_monotone_in_s():
    values = [zeta_type_I("S:4", s, 1e-9).value for s in (0.8, 1.0, 1.5, 2.0, 3.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_limit_at_large_s():
    # at s = 15 the first nontrivial term 3^-15 is still visible in floats
    res = zeta_type_I("S:2", 15.0, 1e-10)
    delta = res.value - 1.0
    assert 0 < delta < 1e-6
    brute = math.fsum((2 * n + 1) ** -15.0 for n in range(1, 60))
    assert delta == pytest.approx(brute, rel=1e-9)
    for sid in ("S:2", "CP:2"):
        res = zeta_type_I(sid, 40.0, 1e-10)
        delta = res.value - 1.0
        assert 0 <= delta < 1e-6


def test_rank_one_vs_growing_box():
    # the box path on a one-row table sums the least certified box, of B + 1 terms
    for sid in ("S:5", "CP:2"):
        certified = zeta_type_I(sid, 2.0, 1e-10)
        table = dims.compile_space(sid)
        box = zeta._growing_box(table, 2.0, 1e-9, None)
        assert box.converged and box.rigorous
        side, bound = box.terms_used - 1, weights._box_bound(table, 2.0)
        assert bound(side - 1) > 1e-9 >= bound(side)
        # the one-row majorant is the series itself, so the bound is tight up to rounding
        assert (abs(box.value - certified.value)
                <= box.tail_bound + certified.tail_bound + 1e-15)


def test_growing_box_evaluates_each_term_once(monkeypatch):
    # the certified box [0, B]^2 is summed once: terms_used == (B + 1)^2, from
    # a prefix of the table's head while it fits in weights.CHUNK_ROWS
    # weights, in chunks past that.  weights.ball_chunks builds the rows of
    # both: one chunk for a head grown from empty to the box, several past it
    chunks, sum_region = weights.ball_chunks, weights.sum_region
    seen, summed = [], []

    def recording_chunks(rank, box, *, simplex):
        for rows in chunks(rank, box, simplex=simplex):
            seen.append(list(map(tuple, rows.tolist())))
            yield rows

    def recording_sum(terms, exponent, area):
        terms = list(terms)
        summed.extend(v for log_dims, _ in terms for v in log_dims.tolist())
        return sum_region(terms, exponent, area)

    monkeypatch.setattr(weights, "ball_chunks", recording_chunks)
    monkeypatch.setattr(weights, "sum_region", recording_sum)
    for tol, max_box, head in ((1e-6, None, True), (1e-12, 16, True), (1e-12, 250, False)):
        seen.clear()
        summed.clear()
        table = _fresh("I", "AI:3")
        res = zeta._growing_box(table, 2.0, tol, max_box)
        side = math.isqrt(res.terms_used)
        box = np.indices((side, side)).reshape(2, -1).T
        assert len(summed) == res.terms_used == side ** 2
        assert sorted(summed) == sorted(table.log_dims(box).tolist())
        assert (res.terms_used <= weights.CHUNK_ROWS) == head == (len(seen) == 1)
        rows = [n for chunk in seen for n in chunk]
        assert max(max(n) for n in rows) + 1 == side
        assert len(set(rows)) == len(rows) == res.terms_used
        assert res.converged == (max_box is None) and res.rigorous


LATTICE_TABLES = [("I", "AI:3"), ("I", "GI"), ("I", "EIII"), ("I", "EI"),
                  ("II", "SU:3"), ("II", "G2"), ("II", "SU:4")]


def _table(kind, ident):
    return (dims.compile_space if kind == "I" else dims.compile_group)(ident)


def _fresh(kind, ident):
    """A copy of the compiled table with empty heads."""
    return dims.LinearFactors(*_table(kind, ident))


#: every lattice table with each ball shape; the box keeps the ids it had
#: before the heads took the simplex too
BOTH_SHAPES = ([pytest.param(kind, ident, False, id=f"{kind}-{ident}")
                for kind, ident in LATTICE_TABLES]
               + [pytest.param(kind, ident, True, id=f"{kind}-{ident}-simplex")
                  for kind, ident in LATTICE_TABLES])


def _lex_simplex(rank, k):
    """Every point of N^rank with coordinate sum <= k, in lex order."""
    if rank == 0:
        return [()]
    return [(a, *rest) for a in range(k + 1) for rest in _lex_simplex(rank - 1, k - a)]


@pytest.mark.parametrize("kind,ident,simplex", BOTH_SHAPES)
def test_zeta_head_prefixes_are_the_boxes(kind, ident, simplex):
    # every ball of at most CHUNK_ROWS weights, the box [0, r]^rank or the
    # simplex of coordinate sum <= r, is the first rows of the table's head
    # of that shape, in shell (sup-norm or coordinate sum) then lex order,
    # with c2 for the simplex, and its prefix sums to the float its chunk
    # sum gives; the head grows ball by ball from empty and keeps the rows
    # it had.  The simplex takes every third radius and the last
    table = _fresh(kind, ident)
    rank, head = len(table.pairing), table.part(weights._heads)[simplex]
    top = weights.radius(rank, weights.CHUNK_ROWS, simplex=simplex)
    if simplex:
        points, shell, area = _lex_simplex(rank, top), sum, 0.3
    else:
        points, shell, area = list(itertools.product(range(top + 1), repeat=rank)), max, 0.0
    points.sort(key=shell)
    log_dims, casimirs = table.log_dims(np.array(points)), table.casimirs(np.array(points))
    for r in sorted({*range(0, top + 1, 3 if simplex else 1), top}):
        count = weights.ball_size(rank, r, simplex=simplex)
        # the first count points, all of shell <= r, are that ball
        assert shell(points[count - 1]) == r
        assert count == len(points) or shell(points[count]) == r + 1
        prefix, c2 = head.prefix(r)
        assert np.array_equal(prefix, log_dims[:count])
        assert np.array_equal(c2, casimirs[:count]) if simplex else c2 is None
        for s in (0.7, 2.0):
            chunked = ((table.log_dims(rows), table.casimirs(rows) if simplex else None)
                       for rows in weights.ball_chunks(rank, r, simplex=simplex))
            assert (weights.sum_region([(prefix, c2)], s, area)
                    == weights.sum_region(chunked, s, area))
    assert len(head.pair[0]) == len(points) <= weights.CHUNK_ROWS


@pytest.mark.parametrize("kind,ident,simplex", BOTH_SHAPES)
def test_zeta_head_grows_on_demand(kind, ident, simplex):
    # a box-1 call, or a heat call of grade 0, leaves the head holding that
    # ball; each growth keeps it within CHUNK_ROWS and within the larger of
    # the ball asked and twice its rows before
    table = _fresh(kind, ident)
    rank, head = len(table.pairing), table.part(weights._heads)[simplex]
    if simplex:
        res = partition._shell_heat_sum(table, 0.0, 50.0, 1.0)
        assert len(head.pair[0]) == len(head.pair[1]) == res.terms_used == 1
    else:
        res = zeta._zeta(table, 4.0, 1.0, 1)
        assert len(head.pair[0]) == res.terms_used <= 2 ** rank
    for r in range(weights.radius(rank, weights.CHUNK_ROWS, simplex=simplex) + 1):
        before = len(head.pair[0])
        head.prefix(r)
        after, size = len(head.pair[0]), weights.ball_size(rank, r, simplex=simplex)
        assert after >= size
        assert after == before or after <= min(weights.CHUNK_ROWS, max(size, 2 * before))


def test_su3_head_covers_its_box():
    # SU:3 at s = 2 sums 26,569 weights, one chunk, from its head
    table = _fresh("II", "SU:3")
    res = zeta._zeta(table, 2.0, 1e-6, None)
    assert res.terms_used == 26_569
    assert 26_569 <= len(table.part(weights._heads)[False].pair[0]) <= weights.CHUNK_ROWS
    assert res == zeta_type_II("SU:3", 2.0, 1e-6)


@pytest.mark.parametrize("run", [zeta_type_I, zeta_type_II])
def test_max_box_as_a_numpy_integer_gives_plain_ints(run):
    # max_box is taken as an int, so none of its type leaks into the result
    ident = "AI:3" if run is zeta_type_I else "SU:3"
    res = run(ident, 2.0, 1e-6, np.int64(3))
    assert res == run(ident, 2.0, 1e-6, 3) and type(res.terms_used) is int
    assert json.loads(json.dumps(res.as_dict()))["terms"] == res.terms_used


def test_box_bound_stays_positive_past_hurwitz_underflow():
    # EIX at s >= 3: the region series have total powers in the hundreds,
    # whose Euler-Maclaurin tails underflow to a nonpositive float; the
    # bound takes them in logs and stays positive and nonincreasing
    for s in (3.0, 4.0, 6.0):
        bound = weights._box_bound(dims.compile_space("EIX"), s)
        values = [bound(box) for box in range(65)]
        assert all(v > 0.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


EVALUABLE_SPACES = [d.space_id for d in rootdata.catalog_spaces() if d.evaluable and d.rank >= 2]
SCAN_GROUPS = ["SU:3", "SO:5", "G2", "SU:4", "Sp:3", "SO:7", "F4"]


@pytest.mark.parametrize("kind,ident", [("I", i) for i in EVALUABLE_SPACES]
                         + [("II", g) for g in SCAN_GROUPS + ["Sp:4", "SO:8", "E6", "E7", "E8"]])
def test_box_bound_does_not_grow(kind, ident):
    # _least_side relies on it.  With the Hurwitz tail shifted only to 16,
    # EIII at s = 10 rose from B = 25 to 26, EVI at s = 6 from 14 to 15 and
    # Sp:4 at s = 30 from 25 to 26
    table = _table(kind, ident)
    for s in (0.7, 1.0, 2.0, 3.0, 6.0, 10.0, 30.0):
        if s * len(table.shifts) <= len(table.pairing):
            continue
        bound = weights._box_bound(table, s)
        values = [bound(box) for box in range(65)]
        assert all(a >= b for a, b in zip(values, values[1:])), s


def _add(values):
    """Left-to-right float sum, as the builtin ``sum`` adds before Python 3.12."""
    acc = 0
    for value in values:
        acc = acc + value
    return acc


def _upper(s, a):
    """The kernel's upper bound on zeta(s, a), NaN where it is no float bound."""
    bound = specfun.hurwitz_zeta_upper(s, a)
    return bound if bound >= sys.float_info.min else math.nan


def _scalar_box_bound(table, s):
    """The box certificate as a scalar formula, one share at a time: the
    reference ``weights._box_bound`` must equal bit for bit."""
    s = min(s, 1e300)
    matrix, shifts = table.pairing, [float(c) for c in table.shifts]
    base = [[v / n for v, n in zip(row, map(_add, zip(*matrix)))] for row in matrix]

    def series(row, shares):    # (log tail function, log scale), None when g diverges
        kappas = [c * w / v for c, w, v in zip(shifts, shares, row) if w > 0]
        powers = [s * w for w in shares if w > 0]
        total = _add(powers)
        if not total > 1.0:
            return None
        kbar = _add(p * k for p, k in zip(powers, kappas)) / total
        spread = max(abs(k - kbar) for k in kappas)
        v = _add(p * (k - kbar) ** 2 for p, k in zip(powers, kappas))

        tail = zeta.genseries.moment_tail(total, kbar, spread, v, min(kappas))

        def log_tail(start):
            a, bound = tail(start)
            if a is not None:
                bound = _add((bound, _upper(total, a)))
            if bound >= sys.float_info.min:
                return math.log(bound)
            return (math.log1p((start + max(kappas)) / (total - 1.0))
                    - _add(p * math.log(start + k) for p, k in zip(powers, kappas)))

        return log_tail, _add(p * math.log(k) for p, k in zip(powers, kappas))

    regions = []
    for i, own in enumerate(matrix):
        gives = [_add(w for w, v in zip(row, own) if v) for row in base]
        t = max(0.0, min([1.0] + [(_add(base[k]) - 1.2 / s) / g
                                  for k, g in enumerate(gives) if k != i and g > 0]))
        coords = [series(row, [w + t * ((k == i) - w) if v else w for w, v in zip(shares, own)])
                  for k, (row, shares) in enumerate(zip(matrix, base))]
        if None in coords:
            return lambda box: math.inf
        log_rest = _add(math.log1p(zeta.genseries._exp(scale + log_tail(1)))
                        for k, (log_tail, scale) in enumerate(coords) if k != i)
        regions.append((coords[i][0], coords[i][1] + log_rest))
    return lambda box: _add(zeta.genseries._exp(scale + log_tail(box + 1))
                            for log_tail, scale in regions)


BOX_GROUPS = SCAN_GROUPS + ["Sp:4", "SO:8", "E6", "E7", "E8"]


@pytest.mark.parametrize("kind,ident", [("I", i) for i in EVALUABLE_SPACES]
                         + [("II", g) for g in BOX_GROUPS])
def test_box_bound_is_the_scalar_formula_bit_for_bit(kind, ident):
    # the array passes add in the scalar formula's order and take its
    # squares and logarithms from the same functions
    table = _table(kind, ident)
    checks = [(s, (0, 1, 2, 5, 16, 100, 1000))
              for s in (0.7, 1.0, 1.5, 2.0, 3.0, 6.0, 10.0, 30.0)
              if s * len(table.shifts) > len(table.pairing)]
    if ident == "EIX":      # the log form past the Hurwitz underflow
        checks += [(s, range(65)) for s in (3.0, 4.0, 6.0)]
    for s, boxes in checks:
        bound, scalar = weights._box_bound(table, s), _scalar_box_bound(table, s)
        for box in boxes:
            assert bound(box).hex() == scalar(box).hex(), (s, box)


@pytest.mark.parametrize("kind,ident,calls,parent_calls", [
    ("I", "EI", 22, 30), ("II", "SU:4", 2, 6)])
def test_box_bound_takes_each_pinned_tail_once(monkeypatch, kind, ident, calls, parent_calls):
    # building the certificate at s = 1 takes the pinned tail of each full
    # one-coordinate sum once per distinct series (the scalar formula took
    # ``parent_calls``)
    seen, tail_rule = [], zeta.genseries.moment_tail

    def counting(*moments):
        tail = tail_rule(*moments)

        def pinned(start):
            a, bound = tail(start)
            if a is not None:
                seen.append((moments, start))
            return a, bound

        return pinned

    monkeypatch.setattr(zeta.genseries, "moment_tail", counting)
    weights._box_bound(_table(kind, ident), 1.0)
    assert len(seen) <= calls and len(set(seen)) == len(seen)
    seen.clear()
    _scalar_box_bound(_table(kind, ident), 1.0)
    assert len(seen) == parent_calls


#: The tables and s of the benchmark's higher-rank queries.
LATTICE_QUERIES = [("I", "AI:3", 2.0), ("I", "GI", 1.0), ("I", "EIII", 1.0), ("II", "SU:3", 2.0),
                   ("II", "G2", 1.0), ("II", "SU:3", 0.7), ("I", "EI", 1.0), ("II", "SU:4", 1.0)]


def test_box_certificate_makes_no_full_precision_hurwitz_call(monkeypatch):
    # every tail of the box is the cheap upper bound: building the
    # certificate and probing B = 0..64 takes no Euler-Maclaurin value
    calls = []
    monkeypatch.setattr(zeta.genseries, "hurwitz_zeta_certified",
                        lambda *args: calls.append(args))
    for kind, ident, s in LATTICE_QUERIES:
        bound = weights._box_bound(_table(kind, ident), s)
        assert all(bound(box) > 0.0 for box in range(65))
        assert calls == [], ident


def _rank_one_cases():
    """(series, s, tolerance) of the rank-one zeta series at s = 1, 2, 5 and
    tolerances 1e-6, 1e-10, on each table's kept parts, plus the three
    generating-series shapes of the benchmark."""
    cases = [(Series([1.0, 2.0], [2.0, 2.0]), 1.0, 1e-10),
             (Series([0.5, 1.5], [1.0, 1.0]), 1.0, 1e-12), (Series([1.0], [3.0]), 1.0, 1e-8)]
    for sid in ("S:2", "S:3", "S:5", "CP:2", "HP:2", "FII"):
        table = dims.compile_space(sid)
        for s in (1.0, 2.0, 5.0):
            if s * table.factored.degree > 1:
                cases += [(table.part(zeta._series), s, tol) for tol in (1e-6, 1e-10)]
    return cases


def test_rank_one_sum_makes_one_full_precision_hurwitz_call(monkeypatch):
    # the head search reads only bounds; a sum that ends on the pinned
    # branch evaluates zeta(P, a) once, at its head, and one that ends on
    # the first-order branch not at all
    calls, certified = [], zeta.genseries.hurwitz_zeta_certified

    def counting(*args):
        calls.append(args)
        return certified(*args)

    monkeypatch.setattr(zeta.genseries, "hurwitz_zeta_certified", counting)
    pinned = 0
    for series, s, tol in _rank_one_cases():
        calls.clear()
        res = zeta.genseries._sum_with_tail(series, s, tol)
        tail = zeta.genseries._series_tail(series, s, zeta.genseries.term_cap())[0]
        a = tail(res.terms_used)[0]
        assert calls == ([] if a is None else [(s * series.moments[0], a)]), (series.factors, tol)
        pinned += a is not None
    assert pinned >= 30


@pytest.mark.parametrize("kind,ident,s,closed_form", [
    ("II", "SU:3", 2, lambda mp: 4 * mp.pi ** 6 / 2835),
    ("I", "BDI:2,2", 2, lambda mp: ((1 - mp.mpf(2) ** -2) * mp.zeta(2)) ** 2),
    ("I", "BDI:2,2", 3, lambda mp: ((1 - mp.mpf(2) ** -3) * mp.zeta(3)) ** 2)])
def test_box_certificate_against_closed_forms(kind, ident, s, closed_form):
    # the sum outside every box [0, B]^2 lies within the certificate, up to
    # an allowance of 8 ulps of the value for the rounding of the box's sum
    # (BDI:2,2 has d = (2a+1)(2b+1), so its zeta is the square of the odd
    # zeta; at s = 3 the bound is within 2e-5 of the true tail at B = 40)
    mpmath = pytest.importorskip("mpmath")
    table = _table(kind, ident)
    bound = weights._box_bound(table, float(s))
    with mpmath.workdps(40):
        true = closed_form(mpmath)
        slack = 8 * 2.0 ** -53 * true
        for box in range(41):
            summed = weights.sum_region(weights.ball(table, box, simplex=False), float(s), 0.0)
            outside = true - mpmath.mpf(summed)
            assert 0 <= outside <= bound(box) + slack, box


def test_least_side_matches_bisection(monkeypatch):
    # over every evaluable rank >= 2 space and 7 groups, at s in 0.7..3, tol
    # 1e-2..1e-8 and max_box None, 2, 16, under a cap of 300,000 terms, the
    # search finds the side bisect_left finds, from fewer bounds in all
    monkeypatch.setenv("WZ_MAX_TERMS", "300000")
    cap = zeta.genseries.term_cap()
    searched = bisected = 0
    for kind, ident in [("I", i) for i in EVALUABLE_SPACES] + [("II", g) for g in SCAN_GROUPS]:
        table = _table(kind, ident)
        rank = len(table.pairing)
        for s in (0.7, 1.0, 1.5, 2.0, 3.0):
            if s * len(table.shifts) <= rank:
                continue
            raw = weights._box_bound(table, s)
            for tol, max_box in itertools.product((1e-2, 1e-4, 1e-6, 1e-8), (None, 2, 16)):
                top = min(weights.radius(rank, cap, simplex=False),
                          cap if max_box is None else max_box)
                goal = zeta.genseries._goal(raw(top), tol)
                sides, counts = [], []
                for find in (weights._least_side, None):
                    calls = []
                    bound = functools.cache(lambda box: calls.append(box) or raw(box))
                    bound(top)      # taken for the goal
                    sides.append(find(bound, top, goal) if find else bisect.bisect_left(
                        range(top + 1), True, key=lambda box: bound(box) <= goal))
                    counts.append(len(calls))
                assert sides[0] == sides[1], (ident, s, tol, max_box)
                searched, bisected = searched + counts[0], bisected + counts[1]
    assert searched < bisected


@pytest.mark.parametrize("kind,ident,s,tol,max_box,terms,bisection", [
    ("I", "AI:3", 2.0, 1e-5, None, 784, 12), ("I", "GI", 1.0, 1e-5, None, 441, 11),
    ("I", "EIII", 1.0, 1e-4, 16, 64, 5), ("II", "SU:3", 2.0, 1e-6, None, 26_569, 12),
    ("II", "G2", 1.0, 1e-6, None, 10_609, 11), ("II", "SU:3", 0.7, 1e-6, None, 1, 12),
    ("I", "EI", 1.0, 1e-8, 2, 729, 2), ("II", "SU:4", 1.0, 1e-4, 16, 1_728, 5)])
def test_least_side_takes_few_bounds(monkeypatch, kind, ident, s, tol, max_box, terms, bisection):
    # the benchmark's higher-rank queries: a bisection over every side took
    # ``bisection`` bounds
    calls, box_bound = [], weights._box_bound

    def counting(table, s):
        raw = box_bound(table, s)
        return lambda box: calls.append(box) or raw(box)

    monkeypatch.setattr(weights, "_box_bound", counting)
    res = (zeta_type_I if kind == "I" else zeta_type_II)(ident, s, tol, max_box)
    assert res.terms_used == terms
    assert len(calls) <= min(bisection, 5)


def test_higher_rank_type_i_runs():
    res = zeta_type_I("AI:3", 2.0, 1e-6)
    assert res.converged and res.rigorous
    # oracle: dimensions are (2a+1)(2b+1)(a+b+1) over the A2 m=1 lattice
    brute = math.fsum(
        ((2 * a + 1) * (2 * b + 1) * (a + b + 1)) ** -2.0
        for a in range(400) for b in range(400)
    )
    assert res.value == pytest.approx(brute, abs=1e-5)


def test_higher_rank_unconverged_flag():
    res = zeta_type_I("AI:3", 2.0, 1e-12, max_box=16)
    assert not res.converged


def test_higher_rank_exceptional_spaces():
    # BC-type restricted roots (EIII) and the rank-two octonion plane family
    for sid in ("EIII", "GI"):
        res = zeta_type_I(sid, 1.0, 1e-7)
        assert res.converged
        assert 1.0 < res.value < 1.2


def test_term_level_spot_check():
    rng = random.Random(42)
    for _ in range(100):
        sid = rng.choice(("S:4", "CP:3", "AI:3", "EIII"))
        rank = rootdata.lookup_space(sid).rank
        coords = tuple(rng.randint(0, 12) for _ in range(rank))
        exact = float(dims.dim_class_one(sid, coords))
        numeric = math.exp(dims.dim_class_one_log(sid, coords))
        assert numeric == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("s,tol", [(math.nan, 1e-8), (math.inf, 1e-8),
                                   (-math.inf, 1e-8), (2.0, math.nan),
                                   (2.0, math.inf), (2.0, 0.0), (2.0, -1e-8),
                                   pytest.param(10 ** 400, 1e-8, id="int_past_floats-1e-08"),
                                   pytest.param(-10 ** 400, 1e-8, id="-int_past_floats-1e-08"),
                                   pytest.param(2.0, 10 ** 400, id="2.0-int_past_floats"),
                                   pytest.param(10 ** 5000, 1e-8, id="int_past_str-1e-08"),
                                   pytest.param(2.0, 10 ** 5000, id="2.0-int_past_str")])
def test_non_finite_arguments_rejected(s, tol):
    for fn, ident in ((zeta_type_I, "S:2"), (zeta_type_I, "AI:3"),
                      (zeta_type_II, "SU:2"), (zeta_type_II, "SU:3")):
        with pytest.raises(DomainError):
            fn(ident, s, tol)


@pytest.mark.parametrize("max_box", [-1, 2.5, "3",
                                     pytest.param(-10 ** 5000, id="int_past_str")])
def test_bad_max_box_rejected_at_every_rank(max_box):
    for fn, ident in ((zeta_type_I, "S:2"), (zeta_type_I, "AI:3"),
                      (zeta_type_II, "SU:2"), (zeta_type_II, "SU:3")):
        with pytest.raises(DomainError):
            fn(ident, 2.0, 1e-6, max_box)


@pytest.mark.parametrize("run,s", [(partial(zeta_type_II, "E8"), 0.05),
                                   (partial(zeta_type_I, "EI"), 0.1),
                                   (partial(zeta_type_II, "SU:3"), 2 / 3),
                                   (partial(zeta_type_I, "S:2"), 1.0),
                                   (partial(zeta_type_II, "SU:2"), 1.0)])
def test_proven_divergence_sums_no_box(monkeypatch, run, s):
    # s J <= rank, J the number of linear factors: divergent by the shell count
    def no_box(*args, **kwargs):
        raise AssertionError("a box was summed")
    monkeypatch.setattr(weights, "ball_chunks", no_box)
    with pytest.raises(DivergenceError, match="<= rank"):
        run(s)


def test_su3_past_the_proven_bound_still_sums_boxes():
    # 0.7 * 3 > 2: no proof of divergence, and the series converges for
    # s > 2/3, but too slowly for the term cap; the least box whose bound is
    # within twice that of the cap box is summed, and flagged
    res = zeta_type_II("SU:3", 0.7)
    assert not res.converged and res.rigorous
    assert res.terms_used == 1 and 700 < res.tail_bound < 900


@pytest.mark.parametrize("table,s", [(dims.compile_space("AI:3"), 2.0),
                                     (dims.compile_space("GI"), 1.0),
                                     (dims.compile_group("SU:3"), 2.0),
                                     (dims.compile_group("G2"), 1.0),
                                     (dims.compile_group("SO:5"), 2.0)])
def test_growing_box_sums_the_least_certified_side(table, s):
    # every side is a candidate: the box one side smaller misses the tolerance
    tol = 1e-6
    res = zeta._growing_box(table, s, tol, None)
    assert res.converged and res.rigorous
    side, bound = round(res.terms_used ** 0.5) - 1, weights._box_bound(table, s)
    assert (side + 1) ** 2 == res.terms_used
    assert bound(side - 1) > tol >= bound(side)


@pytest.mark.parametrize("tol", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_su3_bound_holds_against_closed_form(tol):
    res = zeta_type_II("SU:3", 2.0, tol)
    assert res.converged and res.rigorous
    assert abs(res.value - 4 * math.pi ** 6 / 2835) <= res.tail_bound


def test_su3_at_one_bound_holds_against_euler():
    # zeta_SU(3)(1) = 2 sum 1/(m n (m + n)) = 4 zeta(3)
    from wittenzeta.specfun import riemann_zeta
    res = zeta_type_II("SU:3", 1.0, 0.1)
    assert res.converged and res.rigorous
    assert abs(res.value - 4 * riemann_zeta(3.0)) <= res.tail_bound


def test_ai3_bound_holds_against_brute_sum():
    # outside [0, N]^2, by symmetry and a + b + 1 >= a + 1, the sum is at most
    # 2 (pi^2 / 8) sum_{a > N} (2a+1)^-2 (a+1)^-2 <= pi^2 / (48 N^3)
    res = zeta_type_I("AI:3", 2.0)
    assert res.converged and res.rigorous
    n = np.arange(1001, dtype=float)
    a, b = n[:, None], n[None, :]
    brute = math.fsum((((2 * a + 1) * (2 * b + 1) * (a + b + 1)) ** -2.0).ravel().tolist())
    assert abs(res.value - brute) <= res.tail_bound + math.pi ** 2 / (48 * 1000 ** 3)


def _rank_two_tables():
    for space in rootdata.catalog_spaces():
        if space.evaluable and space.rank == 2:
            yield space.space_id, dims.compile_space(space.space_id)
    for group_id in ("SU:3", "SO:5", "Sp:2", "G2", "SO:4"):
        yield group_id, dims.compile_group(group_id)


@pytest.mark.parametrize("ident,table", list(_rank_two_tables()))
def test_rank_two_bound_holds_against_a_larger_box(ident, table):
    # the sum lies between the box four times larger and that plus its own bound
    for s in (1.0, 2.0):
        if s * len(table.shifts) <= 2:
            continue
        res = zeta._zeta(table, s, 1e-3, 64)
        assert res.rigorous and math.isfinite(res.tail_bound)
        box = 4 * (math.isqrt(res.terms_used) - 1)
        big = math.fsum(x for rows in weights.ball_chunks(2, box, simplex=False)
                        for x in np.exp(-s * table.log_dims(rows)).tolist())
        assert big <= res.value + res.tail_bound, (ident, s)
        assert res.value <= big + weights._box_bound(table, s)(box), (ident, s)
