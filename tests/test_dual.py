"""The Poisson dual of the genus-0 type II heat sum (``wittenzeta.dual``)."""
import math
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
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


# --- genus 1: the closed form over the Weyl orbits of flats ---

#: every group of the degree table, and the rank-one and reducible ones
_FLAT_GROUPS = sorted(_DEGREES) + ["SO:3", "SO:4", "Sp:1"]


@pytest.mark.parametrize("group", _FLAT_GROUPS)
def test_flat_weights_give_the_characteristic_polynomial(group):
    # sum over the flats of mu(F) t^{dim F} = prod_i (t - e_i) (Orlik and
    # Solomon), and the orbit weights are |orbit| mu / |W|: exact in Fractions
    table = dims.compile_group(group)
    degrees = dual.degrees(table.shifts)
    order, rank = math.prod(degrees), len(table.lin)
    coeffs = [Fraction(0)] * (rank + 1)
    for subset, weight in dual._flat_classes(table):
        coeffs[rank - len(subset)] += order * weight
    expected = [Fraction(1)]
    for d in degrees:       # times (t - e), e = d - 1, lowest power first
        expected = [a - (d - 1) * b for a, b in zip([Fraction(0)] + expected, expected + [0])]
    assert coeffs == expected
    assert dual._flat_classes(table)[0] == ((), Fraction(1, order))


def _brute_force_flats(table):
    """(dim F, number of positive coroots vanishing on F) of every flat F of
    the coroot hyperplanes, by numpy rank tests: each flat is the set of
    coroots in the span of some of them, grown one coroot at a time."""
    coroots = np.array(table.pairing, dtype=float).T
    rank = coroots.shape[1]

    def closure(rows):
        _, sizes, basis = np.linalg.svd(coroots[sorted(rows)])
        basis = basis[:int((sizes > 1e-9).sum())]
        rest = coroots - coroots @ basis.T @ basis
        return frozenset(np.flatnonzero(np.abs(rest).max(axis=1) < 1e-9).tolist()), len(basis)

    flats, level = {frozenset(): 0}, {frozenset()}
    while level:
        grown = set()
        for flat in level:
            covered = set(flat)
            for j in range(len(coroots)):
                if j not in covered:
                    bigger, k = closure(flat | {j})
                    covered |= bigger
                    flats[bigger] = k
                    grown.add(bigger)
        level = grown
    return Counter((rank - k, len(flat)) for flat, k in flats.items())


@pytest.mark.parametrize("group,count", [("SU:3", 5), ("SO:5", 6), ("G2", 8), ("SU:4", 15),
                                         ("Sp:3", 24), ("F4", 268), ("E6", 4598)])
def test_flat_orbits_count_every_flat(group, count):
    # |orbit of F_J| = |W| w / mu_J, and the orbits hold every flat once:
    # the same number of each dimension and number of vanishing coroots
    table = dims.compile_group(group)
    order = math.prod(dual.degrees(table.shifts))
    supports = [{i for i, v in enumerate(col) if v} for col in zip(*table.pairing)]
    by_orbits = Counter()
    for subset, weight in dual._flat_classes(table):
        heights = [c for c, s in zip(table.shifts, supports) if s <= set(subset)]
        mu = (-1) ** len(subset) * math.prod(d - 1 for d in dual.degrees(heights))
        size = order * weight / mu
        assert size.denominator == 1 and size > 0
        by_orbits[len(table.lin) - len(subset), len(heights)] += int(size)
    brute = _brute_force_flats(table)
    assert sum(brute.values()) == count
    assert by_orbits == brute


def _torus_reference(table, area, mpmath):
    """sum over the dominant weights n of e^{-A c2(n)} to 40 digits: every n
    with A c2(n) <= 80, found by a search that stops each coordinate where
    c2 passes that (c2 grows in every coordinate), grouped by c2; the rest
    is below e^-80 times their number."""
    den = math.lcm(*(v.denominator for row in table.gram for v in row),
                   *(v.denominator for v in table.lin))
    gram = [[int(v * den) for v in row] for row in table.gram]
    lin = [int(v * den) for v in table.lin]
    rank, top, found = len(lin), int(80 / area * den), Counter()

    def walk(i, c2, gram_n):      # c2 = den c2(n), gram_n = den G n, n_j = 0 for j >= i
        if i == rank:
            found[c2] += 1
            return
        while c2 <= top:
            walk(i + 1, c2, gram_n)
            c2 += 2 * gram_n[i] + gram[i][i] + lin[i]
            gram_n = [g + row[i] for g, row in zip(gram_n, gram)]

    walk(0, 0, [0] * rank)
    with mpmath.workdps(40):
        a = mpmath.mpf(area) / den
        return mpmath.fsum(count * mpmath.exp(-a * c2) for c2, count in found.items())


@pytest.mark.parametrize("group,area,tolerance", [
    *((g, a, 1e-8) for g in ("SU:3", "SO:5", "G2", "SU:4") for a in (0.05, 0.2)),
    ("E7", 0.05, 1e-8), ("E7", 0.1, 1e-2)])
def test_torus_sum_against_forty_digit_direct_sums(group, area, tolerance):
    # the bound covers the tail past the shells and the rounding of the
    # float returned.  E7 at 0.1 keeps orbits of one-dimensional flats whose
    # shells up to twice the least norm leave a tail of about 2e-3
    mpmath = pytest.importorskip("mpmath")
    table = dims.compile_group(group)
    res = dual.torus_sum(table, area, tolerance)
    assert res is not None and res.converged and res.tail_bound <= tolerance
    exact = _torus_reference(table, area, mpmath)
    assert abs(mpmath.mpf(res.value) - exact) <= res.tail_bound, (res, exact)


def test_flats_agree_with_the_direct_sum_where_both_certify():
    compared = []
    for group in ("SU:2", "SO:3", "SU:3", "SO:5", "G2", "SU:4", "Sp:3", "F4"):
        table = dims.compile_group(group)
        direct_sum = partition._rank_one_heat_sum if len(table.lin) == 1 \
            else partition._shell_heat_sum
        for area in (0.05, 0.1, 0.2, 1.0):
            by_flats = dual.torus_sum(table, area, 1e-10)
            direct = direct_sum(table, 0.0, area, 1e-10)
            if by_flats is None or not direct.converged:
                continue
            gap = abs(by_flats.value - direct.value)
            assert gap <= by_flats.tail_bound + direct.tail_bound, (group, area, gap)
            compared.append((group, area))
    assert len(compared) >= 20, compared


@pytest.mark.parametrize("group,area", [("SU:3", 1e-5), ("SU:4", 1e-4), ("F4", 0.005),
                                        ("E6", 0.01), ("E7", 0.01), ("E8", 0.01)])
def test_torus_sum_reaches_small_areas(group, area):
    # the simplex ends unconverged on every one of these: SU:4 at 1e-4 with
    # a value 34% short of 453,236.8
    surface = SurfaceParams(1, area)
    res = partition_type_II(group, surface, 1e-10)
    table = dims.compile_group(group)
    assert res.converged and res.tail_bound <= 1e-10
    assert res.terms_used == table.part(dual._flats_parts).vectors
    took = min(_seconds(lambda: partition_type_II(group, surface, 1e-10)) for _ in range(3))
    assert took < 1e-3
    if group == "SU:4":
        assert res.value == pytest.approx(453236.8149, abs=1e-3)


def test_e8_builds_its_flats_in_well_under_a_second():
    # the 41 orbits of E8's 256 subsets and their shells, on a fresh table
    table = dims.compile_group("E8")._replace()
    took = _seconds(lambda: dual.torus_sum(table, 0.01, 1e-10))
    assert took < 1.0


@pytest.mark.parametrize("group", ["SU:2", "SU:3", "G2", "F4", "E8"])
def test_torus_sum_past_the_float_range_and_at_a_huge_area(group):
    # at the least subnormal area (pi / A)^{r/2} passes the float range
    # with the tails far below it: inf, bound inf, not converged; at a
    # huge area, and at 50, where e^{A |rho|^2} overflows for F4, the tails
    # miss every tolerance, with no exception and no warning
    table = dims.compile_group(group)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dual.torus_sum(table, 5e-324, 1e-8)
        for area in (50.0, 1e300):
            assert dual.torus_sum(table, area, 1.0) is None
    if group == "SU:2":     # sqrt(pi / A) / sqrt(2) is finite: its rounding misses 1e-8
        assert res is None
    else:
        assert res.value == res.tail_bound == math.inf and not res.converged


@pytest.mark.parametrize("group", ["SU:3", "SO:5", "G2", "SU:4", "Sp:3"])
@pytest.mark.parametrize("area", [0.05, 0.2])
def test_benchmark_torus_queries_take_the_flats(group, area):
    # genus 1 at the benchmark's areas, tolerance 1e-8: within the direct
    # sum's bound of it, from a few dual vectors
    table = dims.compile_group(group)
    res = partition_type_II(group, SurfaceParams(1, area))
    direct = partition._shell_heat_sum(table, 0.0, area, 1e-8)
    assert res.converged and res.tail_bound <= 1e-8
    assert res.terms_used == table.part(dual._flats_parts).vectors
    assert abs(res.value - direct.value) <= res.tail_bound + direct.tail_bound


@pytest.mark.parametrize("group", ["SU:2", "SU:3", "G2"])
def test_torus_sum_near_the_float_range_of_its_growth(group):
    # A |rho|^2 = 680: e^{A |rho|^2} 2^_BITS is past the float range, so the
    # fixed point is made from the float exactly, with no OverflowError; a
    # tolerance that loose is met, the true value, about 1, within the bound
    table = dims.compile_group(group)
    area = 680.0 / table.part(dual._flats_parts).rho2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dual.torus_sum(table, area, 1e300)
    assert res.converged and abs(res.value - 1.0) <= res.tail_bound <= 1e300


@pytest.mark.parametrize("group", ["SU:2", "SU:3", "G2", "SU:4", "F4", "E8"])
def test_crossover_bounds_the_first_terms_of_both_sides(group):
    # pi^2 D / m1: m1 is the least Casimir of a weight n != 0 and D is at
    # least the least dual norm l1 of the flat J = {}, so past the crossover
    # the first direct term is at most the first dual term
    import itertools
    table = dims.compile_group(group)
    rank = len(table.lin)
    least = min(table.casimir(n) for n in itertools.product(range(3), repeat=rank) if any(n))
    crossover = partition._crossover(table)
    flat = table.part(dual._flats_parts).flats[0]
    assert flat.rank == rank
    assert (crossover / math.pi) ** 2 * float(least) >= flat.least * (1 - 1e-14)
    assert crossover == pytest.approx(math.pi * math.sqrt(
        min(r[i] for i, r in enumerate(rootdata.inverse(table.gram)[0])) / least), rel=1e-15)


def test_genus_one_past_the_crossover_never_loads_the_flats():
    # at area 50 the direct sum is the faster side for every group, so a
    # genus-1 call there neither imports dual nor builds a table's flats
    import subprocess
    import sys
    code = ("import sys\n"
            "from wittenzeta import partition\n"
            "for g in ('SU:2', 'SU:3', 'G2', 'F4'):\n"
            "    partition.partition_type_II(g, partition.SurfaceParams(1, 50.0), 1.0)\n"
            "assert 'wittenzeta.dual' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
