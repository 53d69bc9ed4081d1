import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from wittenzeta import dims, dual, partition, rootdata, weights, zeta
from wittenzeta.errors import (DivergenceError, DomainError, UnsupportedSpace)
from wittenzeta.partition import (SurfaceParams, boundary_state,
                                  partition_type_I, partition_type_II,
                                  so3_character)


def test_surface_params_validation():
    s = SurfaceParams(genus=1, area=0.5)
    assert s.n_holes == 0
    with pytest.raises(DomainError):
        SurfaceParams(genus=-1, area=0.5)
    with pytest.raises(DomainError):
        SurfaceParams(genus=2.5, area=0.5)
    with pytest.raises(DomainError):
        SurfaceParams(genus=0, area=-1.0)
    with pytest.raises(DomainError):
        SurfaceParams(genus=0, area=1.0, holonomies=(7.0,))
    for area in (math.inf, math.nan, 10 ** 400, 10 ** 5000):
        with pytest.raises(DomainError):
            SurfaceParams(genus=1, area=area)
    with pytest.raises(DomainError):    # an integer too long to print in the message
        SurfaceParams(genus=-10 ** 5000, area=1.0)
    with pytest.raises(DomainError):    # _replace builds through the checks
        s._replace(area=-1.0)
    # an integer genus past the float range has no float exponent 2g - 2
    with pytest.raises(DomainError):
        partition_type_I("S:2", SurfaceParams(10 ** 400, 0.1))


def test_su2_torus_is_theta_series():
    # 2g-2 = 0: all dimension factors drop out
    area = 0.3
    res = partition_type_II("SU:2", SurfaceParams(genus=1, area=area), 1e-12)
    brute = math.fsum(math.exp(-area * (n * n / 2 + n)) for n in range(400))
    assert res.value == pytest.approx(brute, abs=1e-11)
    assert res.rigorous


def test_su2_genus_two_approaches_basel():
    deviations = []
    for area in (1.0, 0.1, 0.01):
        res = partition_type_II("SU:2", SurfaceParams(genus=2, area=area), 1e-12)
        deviations.append(abs(res.value - math.pi ** 2 / 6))
    assert deviations[0] > deviations[1] > deviations[2]


@pytest.mark.parametrize("group,box", [("SU:3", 60), ("SU:4", 10), ("G2", 20), ("SO:5", 20)])
def test_su3_partition_certified_tail(group, box):
    res = partition_type_II(group, SurfaceParams(genus=2, area=math.log(2.0)),
                            1e-10)
    assert res.converged and res.rigorous
    assert res.tail_bound < 1e-10
    # oracle: direct sum over a box
    q = 0.5
    brute = 0.0
    table = dims.compile_group(group)
    for n in itertools.product(range(box + 1),
                               repeat=rootdata.lookup_group(group).rank):
        d = float(dims.dim_type_II(group, n))
        c2 = float(table.casimir(n))
        brute += q ** c2 / d ** 2
    assert res.value == pytest.approx(brute, abs=1e-10)


def test_type_i_at_unit_q_is_zeta():
    res = partition_type_I("S:3", SurfaceParams(genus=1, area=0.0), 1e-9)
    assert res.value == pytest.approx(math.pi ** 2 / 6, abs=1e-8)


def test_type_i_small_q_regularizes():
    res = partition_type_I("S:2", SurfaceParams(genus=1, area=-math.log(0.9)),
                           1e-10)
    assert res.converged and res.rigorous and res.value < math.inf
    # 2g-1 = 1 diverges at q = 1
    with pytest.raises(DivergenceError):
        partition_type_I("S:2", SurfaceParams(genus=1, area=0.0))


def test_tiny_q_keeps_only_trivial_term():
    res = partition_type_I("S:4", SurfaceParams(genus=1, area=14.0), 1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-5)
    res = partition_type_II("SU:2", SurfaceParams(genus=3, area=14.0), 1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-5)


def test_genus_zero_negative_exponent():
    # 2g-2 = -2: dimensions multiply instead of dividing, still summable
    area = 2.0
    res = partition_type_II("SU:2", SurfaceParams(genus=0, area=area), 1e-11)
    brute = math.fsum(
        math.exp(-area * (n * n / 2 + n)) * (n + 1) ** 2 for n in range(200)
    )
    assert res.rigorous and res.converged
    assert res.value == pytest.approx(brute, abs=1e-10)
    res_i = partition_type_I("S:2", SurfaceParams(genus=0, area=area), 1e-11)
    brute_i = math.fsum(
        math.exp(-area * (n * n + n)) * (2 * n + 1) for n in range(200)
    )
    assert res_i.value == pytest.approx(brute_i, abs=1e-10)


def test_q_monotonicity():
    values = [
        partition_type_I("S:3", SurfaceParams(genus=2, area=a), 1e-11).value
        for a in (2.0, 1.0, 0.5, 0.25, 0.1)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_limit_consistency_downward():
    target = zeta.zeta_type_I("S:3", 3.0, 1e-11).value
    deviations = [
        abs(partition_type_I("S:3", SurfaceParams(genus=2, area=a), 1e-11).value
            - target)
        for a in (0.5, 0.1, 0.01)
    ]
    assert deviations[0] > deviations[1] > deviations[2]


def test_exponent_bookkeeping_against_type_ii():
    # d on the 3-sphere is the square of the rank-one Weyl dimension, and its
    # Casimir is twice the group one, so genus 1 type I at q matches genus 2
    # type II at q^2
    for q in (0.5, 0.8):
        left = partition_type_I("S:3",
                                SurfaceParams(genus=1, area=-math.log(q)),
                                1e-12)
        right = partition_type_II("SU:2",
                                  SurfaceParams(genus=2, area=-2 * math.log(q)),
                                  1e-12)
        assert left.value == pytest.approx(right.value, abs=1e-12)


_MAJORANT_GROUPS = ("SU:3", "SO:5", "G2", "SU:4", "Sp:3", "F4", "E6", "E8")


def _evaluable_spaces(low: int, high: int) -> list[str]:
    out = []
    for sid in rootdata.CATALOG_IDS:
        space = rootdata.lookup_space(sid)
        if space.mult is not None and low <= space.rank <= high:
            out.append(sid)
    return out


def _table(ident: str) -> dims.LinearFactors:
    if ident in _MAJORANT_GROUPS:
        return dims.compile_group(ident)
    return dims.compile_space(ident)


@pytest.mark.parametrize("ident", _MAJORANT_GROUPS + tuple(_evaluable_spaces(2, 4)))
def test_majorant_dominates_every_term(ident):
    # q^{c2(n)} d(n)^-e <= prod_i h_i(n_i) at random weights of a box, and
    # at the single-coordinate weights, where it can be an equality
    table = _table(ident)
    rank, box = len(table.lin), 6
    rng = np.random.default_rng(20240607)
    coords = np.vstack([rng.integers(0, box + 1, size=(300, rank)),
                        box * np.eye(rank, dtype=np.int64)])
    for exponent in (-2, -1, 0, 1, 2, 3):
        for area in (0.05, 1.0):
            log_terms = (-area * table.casimirs(coords)
                         - exponent * table.log_dims(coords))
            logs = table.part(weights._HeatParts).logs(float(exponent), area, box)
            log_major = logs[np.arange(rank), coords].sum(axis=1)
            excess = log_terms - log_major
            assert excess.max() <= math.log1p(1e-12), (exponent, area)


@pytest.mark.parametrize("ident", ("SU:3", "SO:5", "G2", "SU:4", "Sp:3",
                                   "AI:3", "CI:3"))
def test_majorant_bound_holds_between_tolerances(ident):
    fn = partition_type_II if ident in _MAJORANT_GROUPS else partition_type_I
    for area in (0.05, 0.2, 1.0):
        for genus in (0, 1, 2):
            loose = fn(ident, SurfaceParams(genus, area), 1e-8)
            tight = fn(ident, SurfaceParams(genus, area), 1e-13)
            assert loose.rigorous and tight.rigorous
            gap = abs(loose.value - tight.value)
            assert gap <= (loose.tail_bound + tight.tail_bound
                           + 1e-13 * abs(tight.value)), (genus, area)
            for res in (loose, tight):
                assert type(res.value) is float and type(res.tail_bound) is float
                assert type(res.terms_used) is int
                assert type(res.converged) is bool and type(res.rigorous) is bool


def test_majorant_overflow_is_no_certificate_and_no_warning(monkeypatch):
    # at a tiny area the product of the one-coordinate sums overflows; under
    # this cap no box meets the tolerance either
    monkeypatch.setenv("WZ_MAX_TERMS", "1000")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = partition_type_I("AI:3", SurfaceParams(genus=1, area=1e-300), 1e-8)
    assert not res.converged and res.tail_bound == math.inf
    assert 0 < res.terms_used <= 1000


def test_torus_sum_at_a_tiny_area_is_finite_and_bounds_its_rounding():
    # SU:3 at genus 1 and area 1e-300: the closed form over the flats is
    # about 3e300, finite, and its bound covers the float returned, so half
    # an ulp of it (about 2e284) is more than a tolerance of 1e-8 and the
    # path declines; a tolerance above its rounding takes it
    table = dims.compile_group("SU:3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dual.torus_sum(table, 1e-300, 1e-8) is None
        res = dual.torus_sum(table, 1e-300, 1e290)
    # the orbit J = {} alone: (pi / A) / (|W| sqrt(det G)), det G = 1/3
    leading = math.pi / 1e-300 / (6.0 * math.sqrt(1.0 / 3.0))
    assert res.converged and math.isfinite(res.value)
    assert res.value == pytest.approx(leading, rel=1e-12)
    assert math.ulp(res.value) / 2 <= res.tail_bound <= 1e-14 * res.value


@pytest.mark.parametrize("space", ["AI:3", "GI"])
@pytest.mark.parametrize("area", [1e-30, 1e-12])
def test_tiny_area_heat_sum_at_positive_exponent_is_certified_by_a_box(space, area):
    # genus 2, exponent 3: q^{c2} <= 1, so the zeta bound outside a box
    # bounds the heat tail where the majorant's one-coordinate sums do not
    # fall fast enough; the sum then lies within both bounds of area 0
    res = partition_type_I(space, SurfaceParams(2, area), 1e-8)
    at_zero = partition_type_I(space, SurfaceParams(2, 0.0), 1e-8)
    assert res.converged and res.rigorous and res.tail_bound <= 1e-8
    assert res.terms_used <= 10_000
    assert abs(res.value - at_zero.value) <= res.tail_bound + at_zero.tail_bound + 1e-10


@pytest.mark.parametrize("space,box", [("AI:3", 39), ("AI:4", 10)])
def test_higher_rank_type_i_partition(space, box):
    res = partition_type_I(space, SurfaceParams(genus=1, area=0.5), 1e-10)
    assert res.converged and res.rigorous
    # oracle: direct sum over a large box
    brute = 0.0
    for n in itertools.product(range(box + 1),
                               repeat=rootdata.lookup_space(space).rank):
        d = float(dims.dim_class_one(space, n))
        c2 = float(dims.compile_space(space).casimir(n))
        brute += math.exp(-0.5 * c2) / d
    assert res.value == pytest.approx(brute, abs=1e-9)


def test_so3_character():
    assert so3_character(3, 1e-15) == pytest.approx(7.0)
    theta = 0.9
    expected = math.sin(7 * theta / 2) / math.sin(theta / 2)
    assert so3_character(3, theta) == pytest.approx(expected, rel=1e-13)


def test_boundary_reduces_to_partition_without_holes():
    surf = SurfaceParams(genus=1, area=0.8)
    b = boundary_state("S:2", surf, 1e-12)
    p = partition_type_I("S:2", surf, 1e-12)
    assert b.value == pytest.approx(p.value, abs=1e-12)


def test_boundary_theta_to_zero_drops_one_power():
    # chi_n(0) = d_n cancels one dimension factor: genus 1 with one vanishing
    # hole equals the plain genus-1 sum
    b = boundary_state("S:2", SurfaceParams(genus=1, area=0.8,
                                            holonomies=(1e-9,)), 1e-12)
    p = partition_type_I("S:2", SurfaceParams(genus=1, area=0.8), 1e-12)
    assert b.value == pytest.approx(p.value, abs=1e-9)


def test_boundary_alternating_at_pi():
    area = -math.log(0.8)
    b = boundary_state("S:2", SurfaceParams(genus=1, area=area,
                                            holonomies=(math.pi,)), 1e-12)
    # direct 200-term oracle with the closed-form character
    q = 0.8
    direct = math.fsum(
        q ** (n * n + n) * so3_character(n, math.pi) / (2 * n + 1) ** 2
        for n in range(200)
    )
    assert b.value == pytest.approx(direct, abs=1e-12)
    p = partition_type_I("S:2", SurfaceParams(genus=1, area=area), 1e-12)
    assert abs(b.value) < p.value


def test_boundary_s3_runs_and_reduces():
    surf = SurfaceParams(genus=1, area=0.5, holonomies=(1e-9,))
    b = boundary_state("S:3", surf, 1e-10)
    p = partition_type_I("S:3", SurfaceParams(genus=1, area=0.5), 1e-10)
    assert b.value == pytest.approx(p.value, abs=1e-7)


def test_boundary_unsupported_space():
    with pytest.raises(UnsupportedSpace):
        boundary_state("S:4", SurfaceParams(genus=1, area=0.5,
                                            holonomies=(1.0,)))
    with pytest.raises(DivergenceError):
        boundary_state("S:2", SurfaceParams(genus=1, area=0.0,
                                            holonomies=(1.0,)))


def test_heat_sum_past_the_cap_stops_where_its_bound_does():
    # E8 at area 0.1: no grade within the term cap meets the tolerance, and
    # the majorant tail of grade 0 is within twice that of the cap grade
    res = partition_type_II("E8", SurfaceParams(0, 0.1))
    assert not res.converged and res.rigorous
    assert res.terms_used == 1 and 1e51 < res.tail_bound < math.inf
    # E6 at area 0.2 misses 1e-10 too, but its bound keeps falling to the cap grade
    cap = partition.genseries.term_cap()
    table = dims.compile_group("E6")
    grade, bound = weights._majorant_grade(table, -2.0, 0.2, 1e-10, cap)
    assert grade == weights.radius(6, cap, simplex=True) == 30 and 1e-10 < bound < 1e-5


@pytest.mark.parametrize("res", [
    lambda: partition_type_I("S:2", SurfaceParams(0, 1e-300)),
    lambda: boundary_state("S:3", SurfaceParams(0, 1e-300, (1.0,))),
], ids=["partition", "boundary"])
def test_rank_one_heat_sum_with_no_bound_in_the_cap_stops_at_one_term(res):
    # q rounds to one, so every term ratio of the bounding sum up to the cap
    # is above one: like the higher-rank grade search, stop at the first term
    res = res()
    assert res.terms_used == 1 and res.tail_bound == math.inf
    assert not res.converged and res.rigorous


@pytest.mark.parametrize("fn,ident,genus,s", [(partition_type_I, "S:3", 2, 6),
                                               (partition_type_I, "S:3", 5, 18),
                                               (partition_type_I, "S:3", 1000, 3998),
                                               (partition_type_II, "SU:2", 10 ** 6, 1999998)])
def test_rank_one_heat_sum_at_a_tiny_area_is_certified_by_its_zeta_tail(fn, ident, genus, s):
    # q^{Delta c2} rounds to one at the cap, so the geometric bound is some
    # e^690 times the next term; q^{c2} <= 1 makes the zeta tail of
    # d^-(2g - 1) (or 2g - 2) a bound, and the sum is within it of its value
    # at area 0, zeta(s) with d(k - 1) = k^2 on S:3 and k on SU:2
    res = fn(ident, SurfaceParams(genus, 1e-300), 1e-8)
    assert res.converged and res.rigorous and 0.0 < res.tail_bound <= 1e-8
    assert res.terms_used < 100
    assert abs(res.value - float(mpmath.zeta(s))) <= res.tail_bound + 1e-15
    if genus == 2:
        assert abs(res.value - math.pi ** 6 / 945) <= res.tail_bound


def test_rank_one_heat_sum_at_a_tiny_area_past_the_cap_keeps_a_finite_bound(monkeypatch):
    # genus 1 on S:3: sum_{k >= 1} k^-2 = pi^2 / 6 has a zeta tail of about
    # 1/n, which misses 1e-8 at this cap; the missed-tolerance rule stops
    # where it is within twice its value at the cap, and the bound holds
    monkeypatch.setenv("WZ_MAX_TERMS", "10000")
    res = partition_type_I("S:3", SurfaceParams(1, 1e-300), 1e-8)
    assert not res.converged and res.rigorous and 1e-4 < res.tail_bound < 3e-4
    assert res.terms_used < 10_000
    assert abs(res.value - math.pi ** 2 / 6) <= res.tail_bound


def test_rank_one_boundary_sum_at_a_tiny_area_is_certified_by_its_zeta_tail():
    # the weighted sum is bounded by the zeta tail of d^-(2g - 1), as
    # |chi_n| <= d(n): S:3 at genus 2 with one hole, q^{c2} = 1
    theta = 1.0
    res = boundary_state("S:3", SurfaceParams(2, 1e-300, (theta,)), 1e-8)
    assert res.converged and res.rigorous and res.terms_used < 100
    direct = math.fsum(partition._s3_character(n, theta) / (n + 1) ** 8
                       for n in range(20_000))
    assert abs(res.value - direct) <= res.tail_bound + 1e-15


def _mp(x):
    """A Fraction or an int as an mpmath number."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _rank_one_heat_reference(ident, genus, area, terms):
    """sum_{n < terms} q^{c2(n)} / d(n)^(2g - 1) of a rank-one space, to 40
    digits, d(n) from its factored form and c2(n) = G n^2 + lin n exactly."""
    table, poly = dims.compile_space(ident), dims.rank_one_factored(ident)
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for n in range(terms):
            d = poly.c * math.prod(Fraction(n + k) ** xi for k, xi in poly.factors)
            c2 = table.gram[0][0] * n * n + table.lin[0] * n
            total += mpmath.exp(-mpmath.mpf(area) * _mp(c2)) * _mp(d) ** (1 - 2 * genus)
        return total


@pytest.mark.parametrize("ident,genus,area,most", [("HP:2", 2, 1e-22, 100),
                                                   ("S:3", 3, 1e-20, 400)])
def test_rank_one_heat_sum_at_a_tiny_area_stops_where_its_geometric_bound_does(
        ident, genus, area, most):
    # q^{Delta c2} is within 2^-53 of one for the first terms, and the
    # geometric bound, taken in logs with expm1, meets the tolerance after
    # 45 and 329 terms, where 1 - q^{Delta c2} rounded to 0 and read inf up
    # to 69,387 and 2,776; the tails past 3,000 terms are below 1e-30
    res = partition_type_I(ident, SurfaceParams(genus, area), 1e-8)
    assert res.converged and res.rigorous and 0.0 < res.tail_bound <= 1e-8
    assert res.terms_used < most
    reference = _rank_one_heat_reference(ident, genus, area, 3000)
    assert abs(mpmath.mpf(res.value) - reference) <= res.tail_bound


@pytest.mark.parametrize("res,terms", [
    (lambda: partition_type_I("S:70", SurfaceParams(0, 1e-3)), 434),
    (lambda: partition_type_I("S:100", SurfaceParams(0, 1e-3)), 484),
    (lambda: partition._rank_one_heat_sum(dims.compile_space("S:70"), 0.0, 1e-3, 1e-8,
                                          weight=lambda n: 1.0, bound_exponent=-1.0), 434),
], ids=["S:70", "S:100", "weighted"])
def test_rank_one_heat_sum_goal_survives_a_dimension_past_the_float_range(res, terms):
    # d(cap) overflows a float on these tables while the bound after the
    # cap is far below the tolerance, so the goal is the tolerance and the
    # sum converges where its own bound first meets it
    res = res()
    assert res.converged and res.rigorous and res.terms_used == terms


@pytest.mark.parametrize("fn,ident,genus,area", [(partition_type_II, "SU:3", 1, 1e308),
                                                 (partition_type_I, "AI:3", 2, 1e306)])
def test_huge_area_is_one_certified_term_and_no_warning(fn, ident, genus, area):
    # area m^2 overflows, so log h_i(m) is -inf past m = 0 and the ratio of
    # two such terms is NaN; the Gaussian ratio bound still certifies a zero tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fn(ident, SurfaceParams(genus, area), 1e-8)
    assert res.value == 1.0 and res.tail_bound == 0.0
    assert res.converged and res.rigorous and res.terms_used == 1


def test_rank_one_heat_sum_stops_once_its_total_overflows(monkeypatch):
    # d(n) of S:100 at genus 0 grows past the float range long before q^{c2}
    # pulls the terms down, so the running total overflows; the sum stops
    # there instead of running to the term cap.  At this cap the bound after
    # the cap is finite (about e^491), so the goal is finite too and the
    # sum does not stop at its first term
    monkeypatch.setenv("WZ_MAX_TERMS", "700000")
    res = partition_type_I("S:100", SurfaceParams(0, 1e-9))
    assert res.value == math.inf and not res.converged and res.rigorous
    assert res.terms_used < 100_000


#: the tables of the benchmark's heat_kernel workload
_HEAT_TABLES = ("SU:3", "SO:5", "G2", "SU:4", "Sp:3", "F4",
                "AI:3", "GI", "EIII", "CI:3", "BDI:4,2", "FI")


@pytest.mark.parametrize("ident", _HEAT_TABLES)
def test_head_sum_equals_the_chunk_sum(ident, monkeypatch):
    # every grade whose simplex fits in one chunk is summed from the table's
    # head; fsum rounds exactly, so the head's order gives the same float as
    # the chunk of that simplex.  The grades are 0, the powers of two and the
    # largest that fits
    table = _table(ident)
    rank = len(table.lin)
    top = weights.radius(rank, weights.CHUNK_ROWS, simplex=True)
    for grade in sorted({0, top, *(2 ** i for i in range(top.bit_length()))}):
        assert math.comb(grade + rank, rank) <= weights.CHUNK_ROWS
        monkeypatch.setattr(weights, "_majorant_grade", lambda *args: (grade, 0.0))
        chunks = [(table.log_dims(rows), table.casimirs(rows))
                  for rows in weights.ball_chunks(rank, grade, simplex=True)]
        for exponent in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
            for area in (0.05, 0.2, 1.0):
                head = partition._shell_heat_sum(table, exponent, area, 1e-8)
                assert head.value == weights.sum_region(chunks, exponent, area), \
                    (grade, exponent, area)
                assert head.terms_used == math.comb(grade + rank, rank)
    assert grade > 1


#: the heat_kernel queries whose direct sums hold more than 1,024 weights, (group, genus, area)
_PAST_THE_OLD_HEAD = (("SU:4", 1, 0.05), ("SU:4", 0, 0.2), ("Sp:3", 1, 0.05), ("Sp:3", 0, 0.2))


def _direct_type_II(group, genus, area):
    """The direct heat sum of a type II query, which a genus-0 query skips
    when its dual certifies (SU:4 at area 0.2)."""
    return partition._shell_heat_sum(dims.compile_group(group), 2.0 * genus - 2.0, area, 1e-8)


def test_second_heat_sum_builds_no_chunk(monkeypatch):
    # a heat sum of at most CHUNK_ROWS weights reads the table's simplex
    # head, which keeps what the first call grew it to: a second call of
    # the same query builds no ball_chunks rows
    firsts = [_direct_type_II(*query) for query in _PAST_THE_OLD_HEAD]
    assert all(res.terms_used > 1024 for res in firsts)
    calls, chunks = [], weights.ball_chunks
    monkeypatch.setattr(weights, "ball_chunks",
                        lambda *args, **kwargs: calls.append(args) or chunks(*args, **kwargs))
    for query, first in zip(_PAST_THE_OLD_HEAD, firsts):
        assert _direct_type_II(*query) == first
    assert calls == []


#: the exponents of the shuffled grade test: of both forms 2g - 2 and
#: 2g - 1, and one of neither
_SHUFFLED_EXPONENTS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("ident", ("SU:3", "G2", "SU:4", "Sp:3", "AI:3", "CI:3", "F4", "E6"))
def test_majorant_grade_in_any_order_matches_its_reference(ident):
    # a fresh copy of the table keeps no majorant rows yet; it is asked in a
    # shuffled order of (exponent, area, tolerance, cap), each call twice, so
    # that grades past the first cut grow its rows between the calls of one
    # exponent and another, and every call must still give the reference's
    # grade and bound bit for bit; the reference keeps nothing
    table = _table(ident)
    fresh = dims.LinearFactors(table.pairing, table.shifts, table.gram, table.lin)
    cases = list(itertools.product(_SHUFFLED_EXPONENTS, (0.01, 0.05, 0.2, 1.0),
                                   (1e-8, 1e-12), (partition.genseries.term_cap(), 200)))
    random.Random(ident).shuffle(cases)
    grades = set()
    for exponent, area, tolerance, cap in cases:
        args = (fresh, exponent, area, tolerance, cap)
        want = _reference_grade(*args)
        assert weights._majorant_grade(*args) == want, args[1:]
        assert weights._majorant_grade(*args) == want, args[1:]
        grades.add(want[0])
    assert max(grades) > weights._FIRST_CUT


def test_second_heat_sum_builds_no_majorant_rows(monkeypatch):
    # the majorant's rows are kept per table and its polynomial rows per
    # exponent, grown past the first cut once: a second heat sum of the
    # same table and exponent builds neither.  SU:3 at genus 2 and area
    # 0.05 stops at grade 18, past the first cut of 16
    queries = (("SU:3", 2, 0.05), ("SO:5", 2, 0.2), ("Sp:3", 0, 0.2)) + _PAST_THE_OLD_HEAD
    firsts = [_direct_type_II(*query) for query in queries]
    assert firsts[0].terms_used == math.comb(18 + 2, 2)
    kept = [(dims.compile_group(group).part(weights._HeatParts), 2.0 * genus - 2.0)
            for group, genus, _ in queries]
    polys = [part.polys[exponent] for part, exponent in kept]
    calls, rows = [], weights._majorant_rows
    monkeypatch.setattr(weights, "_majorant_rows",
                        lambda *args: calls.append(args) or rows(*args))
    for query, first in zip(queries, firsts):
        assert _direct_type_II(*query) == first
    assert calls == []
    assert all(part.polys[exponent] is poly for (part, exponent), poly in zip(kept, polys))


def _reference_logs(table, exponent, area, top):
    """``weights._majorant_logs`` as it was before the table parts were
    built once per table."""
    matrix, shifts = table._arrays
    gram, lin = table._form
    rates, powers = matrix / shifts, -exponent
    if exponent > 0.0:
        totals = matrix.sum(axis=0)
        rates, powers = totals / shifts, powers * matrix / totals
    m = np.arange(top + 1, dtype=float)[:, None]
    poly = (np.log1p(m[:, :, None] * rates) * powers).sum(axis=2)
    return (poly - area * (m * m * gram.diagonal() + m * lin)).T


def _reference_grade(table, exponent, area, tolerance, cap):
    """``weights._majorant_grade`` as it was before its arithmetic on one
    number per coordinate moved to Python floats."""
    gram, lin = table._form
    k_cap = weights.radius(len(lin), cap, simplex=True)
    log_tol = math.log(tolerance)
    cut = min(16, k_cap)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            logs = _reference_logs(table, exponent, area, cut + 2)
            log_ratio = np.fmax(logs[:, cut + 2] - logs[:, cut + 1],
                                -area * (gram.diagonal() * (2 * cut + 3) + lin))
        scale = logs.max(axis=1)
        head = np.exp(logs - scale[:, None])
        if (log_ratio < 0.0).all():
            rest = head[:, cut + 1] / -np.expm1(log_ratio)
            sums = head[:, :cut + 1].sum(axis=1) + rest
            with np.errstate(over="ignore"):
                spill = (rest * np.prod(sums) / sums).sum()
        else:
            spill = np.inf
        coeffs = head[0, :cut + 1]
        for row in head[1:, :cut + 1]:
            coeffs = np.convolve(coeffs, row)
        tails = np.append(np.cumsum(coeffs[::-1])[::-1], 0.0)[1:cut + 2] + spill
        with np.errstate(divide="ignore"):
            log_tails = np.log(tails) + scale.sum()
        if cut == k_cap and log_tails[cut] > log_tol:
            log_tol = log_tails[cut] + math.log(2.0)
        fits = np.flatnonzero(log_tails <= log_tol)
        if fits.size:
            grade = int(fits[0])
            break
        cut = min(2 * cut, k_cap)
    log_tail = float(log_tails[grade])
    return grade, math.exp(log_tail) if log_tail < 709.0 else math.inf


@pytest.mark.parametrize("ident", _HEAT_TABLES + ("E6", "E8", "EVIII"))
def test_majorant_grade_matches_its_reference(ident):
    # the same grade and the same bound, bit for bit, at the default term
    # cap and at one small enough that the first cut is below 16
    table = _table(ident)
    for cap in (partition.genseries.term_cap(), 200):
        for genus in range(4):
            for exponent in (2.0 * genus - 2.0, 2.0 * genus - 1.0):
                for area in (0.01, 0.05, 0.2, 1.0, 5.0):
                    for tolerance in (1e-6, 1e-8, 1e-12):
                        args = (table, exponent, area, tolerance, cap)
                        assert (weights._majorant_grade(*args)
                                == _reference_grade(*args)), args[1:]
