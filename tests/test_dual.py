"""The Poisson dual of the genus-0 type II heat sum (``wittenzeta.dual``)."""
import math
import time
import warnings

import pytest

from wittenzeta import dims, dual, partition, rootdata
from wittenzeta.partition import SurfaceParams, partition_type_II

#: the degrees of the Weyl group of each group, from the classification
_DEGREES = {
    **{f"SU:{n}": list(range(2, n + 1)) for n in range(2, 7)},
    "SO:5": [2, 4], "SO:6": [2, 3, 4], "SO:7": [2, 4, 6], "SO:8": [2, 4, 4, 6],
    "SO:9": [2, 4, 6, 8],
    "Sp:2": [2, 4], "Sp:3": [2, 4, 6], "Sp:4": [2, 4, 6, 8],
    "G2": [2, 6], "F4": [2, 6, 8, 12], "E6": [2, 5, 6, 8, 9, 12],
    "E7": [2, 6, 8, 10, 12, 14, 18], "E8": [2, 8, 12, 14, 18, 20, 24, 30],
}

_ORDERS = {"SU:6": 720, "SO:9": 384, "Sp:4": 384, "G2": 12, "F4": 1152, "E6": 51840,
           "E7": 2903040, "E8": 696729600}


@pytest.mark.parametrize("group", sorted(_DEGREES))
def test_degrees_come_from_the_coroot_heights(group):
    table = dims.compile_group(group)
    degrees = dual.degrees(table.shifts)
    assert degrees == _DEGREES[group]
    assert sum(d - 1 for d in degrees) == len(table.shifts)      # N positive roots
    if group in _ORDERS:
        assert math.prod(degrees) == _ORDERS[group]


@pytest.mark.parametrize("group", ["SU:2", "SO:5", "G2", "SU:4", "Sp:3", "SO:9", "F4", "E6"])
def test_shells_count_every_short_dual_vector(group):
    # the shells keep one dominant k per Weyl orbit, weighted by the orbit's
    # size; that weight must count every k of norm up to twice the least
    table = dims.compile_group(group)
    parts = table.part(dual._dual_parts)
    inverse, _ = rootdata.inverse(table.gram)
    scale = math.lcm(*(v.denominator for row in inverse for v in row))
    form = [[int(v * scale) for v in row] for row in inverse]
    every = dual._short_vectors(form, round(2 * parts.least * scale))
    assert parts.vectors == 2 * len(every)
    assert min(dual._norm(form, v) for v in every) == parts.least * scale
    assert sum(math.exp(log_count) for _, log_count, _ in parts.shells) == \
        pytest.approx(parts.vectors)


def _direct(table, area, tolerance):
    if len(table.lin) == 1:
        return partition._rank_one_heat_sum(table, -2.0, area, tolerance)
    return partition._shell_heat_sum(table, -2.0, area, tolerance)


def test_dual_agrees_with_the_direct_sum_where_both_certify():
    compared = []
    for group in ("SU:2", "SO:3", "SU:3", "SO:5", "G2", "SU:4", "Sp:3", "F4"):
        table = dims.compile_group(group)
        for area in (0.05, 0.1, 0.2):
            if group == "F4" and area == 0.05:     # the direct sum stops at the cap, unconverged
                continue
            by_dual = dual.heat_sum(table, area, 1e-10)
            direct = _direct(table, area, 1e-10)
            if by_dual is None or not direct.converged:
                continue
            gap = abs(by_dual.value - direct.value)
            assert gap <= by_dual.tail_bound + direct.tail_bound + 8 * math.ulp(direct.value), \
                (group, area, gap)
            compared.append((group, area))
    assert len(compared) >= 20, compared


@pytest.mark.parametrize("group,taken", [("SU:3", True), ("SO:5", True), ("SU:4", True),
                                         ("Sp:3", False), ("G2", False)])
def test_benchmark_sphere_queries_take_the_dual_where_it_certifies(group, taken):
    # genus 0, area 0.2, the default tolerance 1e-8: the dual bound meets it
    # on SU:3, SO:5 and SU:4, and misses it on Sp:3 and G2, which keep the
    # direct sum bit for bit
    table = dims.compile_group(group)
    res = partition_type_II(group, SurfaceParams(0, 0.2))
    direct = partition._shell_heat_sum(table, -2.0, 0.2, 1e-8)
    assert res.converged and res.rigorous
    if taken:
        assert res.terms_used == 1 + table.part(dual._dual_parts).vectors \
            and res.tail_bound < 1e-25
        assert res.value == pytest.approx(direct.value, rel=1e-12)
    else:
        assert res == direct


@pytest.mark.parametrize("group,area", [("E6", 0.1), ("E7", 0.05), ("F4", 0.1)])
def test_dual_reaches_the_exceptional_groups(group, area):
    surface = SurfaceParams(0, area)
    first = partition_type_II(group, surface, 1e-10)
    assert first.converged and first.tail_bound <= 1e-10
    took = min(_seconds(lambda: partition_type_II(group, surface, 1e-10)) for _ in range(3))
    assert took < 5e-3


def _seconds(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


@pytest.mark.parametrize("group", ["SU:2", "SU:3", "Sp:1"])
@pytest.mark.parametrize("area", [1e-300, 5e-324])
def test_a_leading_term_past_the_float_range_is_inf(group, area):
    # on Sp:1 at 5e-324 the factor mu |a|^2 A / 2 of the bound rounds to 0;
    # an inf value bounds nothing, so its bound is inf too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = partition_type_II(group, SurfaceParams(0, area))
    assert res.value == math.inf and res.tail_bound == math.inf
    assert not res.converged


@pytest.mark.parametrize("group", ["SU:2", "SU:3", "E8"])
def test_huge_area_rejects_the_dual_without_a_warning(group):
    table = dims.compile_group(group)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dual.heat_sum(table, 1e300, 1e-8) is None
        res = partition_type_II(group, SurfaceParams(0, 1e300))
    assert res.value == 1.0 and res.tail_bound == 0.0 and res.converged


def _su2_sphere(area, mpmath):
    """Z(A) = sum_{m >= 1} m^2 e^{-A (m^2 - 1) / 2} to 50 digits, through
    Jacobi's transformation: with a = A / 2, sum_{m in Z} m^2 e^{-a m^2} =
    sqrt(pi) a^{-3/2} sum_{k in Z} (1/2 - pi^2 k^2 / a) e^{-pi^2 k^2 / a}."""
    with mpmath.workdps(50):
        a = mpmath.mpf(area) / 2
        dual_sum = mpmath.fsum((mpmath.mpf(1) / 2 - mpmath.pi ** 2 * k * k / a)
                               * mpmath.exp(-mpmath.pi ** 2 * k * k / a)
                               for k in range(-8, 9))
        return mpmath.exp(a) * mpmath.sqrt(mpmath.pi) * a ** -1.5 * dual_sum / 2


def test_su2_sphere_against_fifty_digits():
    # the answer, from the dual at every one of these areas, and the direct
    # sum, whose terms are added exactly rounded, each lie within their tail
    # bound plus 4 ulps of the series; with its terms added one by one, the
    # direct sum missed by 1,525 ulps at area 1e-9
    mpmath = pytest.importorskip("mpmath")
    table = dims.compile_group("SU:2")
    for e in range(1, 10):
        area = 10.0 ** -e
        exact = _su2_sphere(area, mpmath)
        for res in (partition_type_II("SU:2", SurfaceParams(0, area), 1e-10),
                    partition._rank_one_heat_sum(table, -2.0, area, 1e-10)):
            assert res.converged
            miss = abs(mpmath.mpf(res.value) - exact)
            assert miss <= res.tail_bound + 4 * math.ulp(res.value), (area, res)


def test_rank_one_heat_sum_holds_its_terms_in_bounded_memory():
    # the direct sum folds its terms into an exact head and rest every 2^15
    # terms: about 103,000 terms here, which as one list held 3.3 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    table = dims.compile_group("SU:2")
    tracemalloc.start()
    try:
        res = partition._rank_one_heat_sum(table, -2.0, 1e-8, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.terms_used > 3 << 15
    assert peak < 2 << 20


def test_leading_terms_past_the_float_range_over_a_grid():
    # at a small area Z0 ~ A^-(r/2+N) passes the float range while the dual
    # tail bound underflows to 0: inf is no answer to a finite sum, so it
    # comes back with bound inf, not converged, as a rank-one total past the
    # float range does
    groups = ("SU:2", "SU:3", "SO:5", "G2", "SU:4", "Sp:3", "F4", "E6", "E7", "E8")
    past = set()
    for group in groups:
        table = dims.compile_group(group)
        for area in (1e-300, 1e-200, 1e-100, 1e-60, 1e-40, 1e-20, 1e-10):
            res = dual.heat_sum(table, area, 1e-8)
            if res is not None and math.isfinite(res.value):
                assert res.converged and res.tail_bound <= 1e-8, (group, area)
            elif res is not None:
                assert res.value == res.tail_bound == math.inf, (group, area)
                assert not res.converged and res.rigorous
                past.add((group, area))
    assert len(past) == 47
    assert {("SU:2", 1e-300), ("SU:3", 1e-300), ("SU:3", 1e-100), ("F4", 1e-20),
            ("E6", 1e-20), ("E7", 1e-20), ("E8", 1e-20)} <= past
    assert ("SU:3", 1e-60) not in past
