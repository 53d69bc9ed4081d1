import math
import random
import warnings
from functools import partial

import numpy as np
import pytest

from wittenzeta import dims, rootdata, zeta
from wittenzeta.errors import DivergenceError, DomainError, UnsupportedSpace
from wittenzeta.partition import SurfaceParams, partition_type_II
from wittenzeta.zeta import hurwitz_relation_check, zeta_type_I, zeta_type_II


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
    # every term past d(0) = 1 underflows; the certified tail is 0, not NaN.
    # S:5 has unequal shifts, so only the first-order tail bound is valid there
    res = run(s, 1e-8)
    assert res.value == 1.0 and res.converged and res.rigorous
    assert res.tail_bound == 0.0 and res.terms_used == 17


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
        side, bound = box.terms_used - 1, zeta._box_bound(table, 2.0)
        assert bound(side - 1) > 1e-9 >= bound(side)
        # the one-row majorant is the series itself, so the bound is tight up to rounding
        assert (abs(box.value - certified.value)
                <= box.tail_bound + certified.tail_bound + 1e-15)


def test_growing_box_evaluates_each_term_once(monkeypatch):
    # the certified box [0, B]^2 is summed once: terms_used == (B + 1)^2
    table = dims.compile_space("AI:3")
    chunks, seen = zeta.weights.box_chunks, []

    def recording(rank, box):
        for rows in chunks(rank, box):
            seen.extend(map(tuple, rows.tolist()))
            yield rows

    monkeypatch.setattr(zeta.weights, "box_chunks", recording)
    for tol, max_box in ((1e-6, None), (1e-12, 16)):
        seen.clear()
        res = zeta._growing_box(table, 2.0, tol, max_box)
        side = max(max(n) for n in seen) + 1
        assert len(set(seen)) == len(seen) == res.terms_used == side ** 2
        assert res.converged == (max_box is None) and res.rigorous


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


@pytest.mark.parametrize("s", [2.0, 3.0, 1.2])
def test_hurwitz_relation(s):
    report = hurwitz_relation_check(2, s)
    tol = 1e-10 if s >= 2 else 1e-8
    assert abs(report["difference"]) < tol


@pytest.mark.parametrize("s,tol", [(math.nan, 1e-8), (math.inf, 1e-8),
                                   (-math.inf, 1e-8), (2.0, math.nan),
                                   (2.0, math.inf), (2.0, 0.0), (2.0, -1e-8)])
def test_non_finite_arguments_rejected(s, tol):
    for fn, ident in ((zeta_type_I, "S:2"), (zeta_type_I, "AI:3"),
                      (zeta_type_II, "SU:2"), (zeta_type_II, "SU:3")):
        with pytest.raises(DomainError):
            fn(ident, s, tol)


@pytest.mark.parametrize("max_box", [-1, 2.5, "3"])
def test_bad_max_box_rejected_at_every_rank(max_box):
    for fn, ident in ((zeta_type_I, "S:2"), (zeta_type_I, "AI:3"),
                      (zeta_type_II, "SU:2"), (zeta_type_II, "SU:3")):
        with pytest.raises(DomainError):
            fn(ident, 2.0, 1e-6, max_box)


def test_hurwitz_relation_domain():
    with pytest.raises(DomainError):
        hurwitz_relation_check(3, 2.0)
    with pytest.raises(DomainError):
        hurwitz_relation_check(2, 2000.0)     # 0.5^(-2000) is past the float range


@pytest.mark.parametrize("run,s", [(partial(zeta_type_II, "E8"), 0.05),
                                   (partial(zeta_type_I, "EI"), 0.1),
                                   (partial(zeta_type_II, "SU:3"), 2 / 3),
                                   (partial(zeta_type_I, "S:2"), 1.0),
                                   (partial(zeta_type_II, "SU:2"), 1.0)])
def test_proven_divergence_sums_no_box(monkeypatch, run, s):
    # s J <= rank, J the number of linear factors: divergent by the shell count
    def no_box(*args):
        raise AssertionError("a box was summed")
    monkeypatch.setattr(zeta.weights, "box_chunks", no_box)
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
    side, bound = round(res.terms_used ** 0.5) - 1, zeta._box_bound(table, s)
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
        big = math.fsum(x for rows in zeta.weights.box_chunks(2, box)
                        for x in np.exp(-s * table.log_dims(rows)).tolist())
        assert big <= res.value + res.tail_bound, (ident, s)
        assert res.value <= big + zeta._box_bound(table, s)(box), (ident, s)
