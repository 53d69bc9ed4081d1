import itertools
import math
import warnings

import numpy as np
import pytest

from wittenzeta import dims, partition, rootdata, zeta
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
    for area in (math.inf, math.nan):
        with pytest.raises(DomainError):
            SurfaceParams(genus=1, area=area)


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
            logs = partition._majorant_logs(table, float(exponent), area, box)
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
    # at a tiny area the product of the one-coordinate sums overflows
    monkeypatch.setenv("WZ_MAX_TERMS", "1000")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = partition_type_II("SU:3", SurfaceParams(genus=1, area=1e-300), 1e-8)
    assert not res.converged and res.tail_bound == math.inf
    assert 0 < res.terms_used <= 1000


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
    grade, bound = partition._majorant_grade(table, -2.0, 0.2, 1e-10, cap)
    assert grade == partition._grade_cap(6, cap) == 30 and 1e-10 < bound < 1e-5


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
