import math
import random
from fractions import Fraction as Q

import mpmath
import pytest

from wittenzeta import dims, genseries, rootdata, zeta
from wittenzeta.errors import (DegenerateConfiguration, DivergenceError,
                               DomainError, NotConverged)
from wittenzeta.genseries import (gen_series_direct, gen_series_mf, pi_series, term_cap,
                                  zero_identity_exact, zero_identity_residual,
                                  zeta_values_from_rank_one)
from wittenzeta.partition import (SurfaceParams, boundary_state,
                                  partition_type_I, partition_type_II)
from wittenzeta.specfun import digamma, hurwitz_zeta_certified, riemann_zeta
from wittenzeta.zeta import zeta_type_I

ZETA2 = math.pi ** 2 / 6


def test_pi_series_two_factor_value():
    # partial fractions: 1/((n+1)^2 (n+2)^2) telescopes to 2*zeta(2) - 13/4
    res = pi_series([1, 1], [1, 2])
    assert res.converged and res.rigorous
    assert res.value == pytest.approx(2 * ZETA2 - Q(13, 4), abs=1e-10)


def test_pi_series_single_factor_shift():
    res = pi_series([1], [2])
    assert res.value == pytest.approx(ZETA2 - 1 - 0.25, abs=1e-11)


def test_pi_series_divergence():
    with pytest.raises(DivergenceError):
        pi_series([0], [3])


def test_pi_series_validation():
    with pytest.raises(DomainError):
        pi_series([], [])
    with pytest.raises(DomainError):
        pi_series([1], [1, 2])
    with pytest.raises(DomainError):
        pi_series([-1, 1], [1, 2])
    with pytest.raises(DomainError):
        pi_series([1, 1], [0, 2])
    for pi in ([0.5, 0.5], [1e-9, 1e-9]):
        with pytest.raises(DomainError):
            pi_series(pi, [1, 2])


def test_pi_series_half_shift():
    # kappa = 1/2 reproduces the odd-denominator zeta: sum (n+1/2)^-2, n >= 1
    res = pi_series([1], [Q(1, 2)])
    expected = 3 * ZETA2 - 4
    assert res.value == pytest.approx(expected, abs=1e-11)


def test_gen_series_direct_telescoping():
    res = gen_series_direct([1, 2], [0.0, 0.0])
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_gen_series_direct_digamma_value():
    res = gen_series_direct([Q(1, 2), 1], [0.0, 0.0])
    assert res.value == pytest.approx(4 * math.log(2) - 2, abs=1e-12)


def test_gen_series_direct_three_factor():
    # sum_{n>=1} 1/((n+1)(n+2)(n+3)) telescopes to 1/12
    res = gen_series_direct([1, 2, 3], [0.0, 0.0, 0.0])
    assert res.value == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_gen_series_direct_brute_force_oracle():
    total = math.fsum(1.0 / ((n + 1.0) * (n + 2.0) * (n + 3.0))
                      for n in range(1_000_000, 0, -1))
    res = gen_series_direct([1, 2, 3], [0.0, 0.0, 0.0])
    assert res.value == pytest.approx(total, abs=1e-11)


def test_gen_series_direct_errors():
    with pytest.raises(DivergenceError):
        gen_series_direct([2], [0.0])
    with pytest.raises(DomainError):
        gen_series_direct([1, 2], [0.0])
    with pytest.raises(DomainError):
        gen_series_direct([1, 2], [0.0, 3.5])
    # 1 + kappa_j - T_j = 2^-53 in 20 factors: the first term is 2^1060
    with pytest.raises(DomainError, match="past the float range"):
        gen_series_direct([0.0] * 20, [1.0 - 2.0 ** -53] * 20)


def test_mf_two_factor_digamma():
    assert gen_series_mf([1, 2], [0.0, 0.0]) == pytest.approx(
        digamma(3.0) - digamma(2.0), abs=1e-13)
    assert gen_series_mf([1, 2], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-13)


def test_mf_three_factor():
    assert gen_series_mf([1, 2, 3], [0.0, 0.0, 0.0]) == pytest.approx(
        1.0 / 12.0, abs=1e-12)


def test_mf_matches_direct_at_generic_t():
    direct = gen_series_direct([1, 2], [0.1, -0.1], 1e-13)
    assert gen_series_mf([1, 2], [0.1, -0.1]) == pytest.approx(
        direct.value, abs=1e-10)


def test_mf_degenerate_configurations():
    with pytest.raises(DegenerateConfiguration):
        gen_series_mf([1, 1], [0.0, 0.0])
    with pytest.raises(DegenerateConfiguration):
        gen_series_mf([1, 2], [0.0, 1.0])


def test_mf_cross_validation_random_configurations():
    rng = random.Random(20260810)
    done = 0
    while done < 50:
        m = rng.randint(2, 6)
        kappa = sorted(rng.uniform(0.5, 9.0) for _ in range(m))
        if min(b - a for a, b in zip(kappa, kappa[1:])) < 0.3:
            continue
        tpoint = [rng.uniform(-0.1, 0.1) for _ in range(m)]
        direct = gen_series_direct(kappa, tpoint, 1e-13)
        mf = gen_series_mf(kappa, tpoint)
        assert mf == pytest.approx(direct.value, abs=1e-10), (kappa, tpoint)
        done += 1


def test_zero_identity_simple():
    assert zero_identity_residual([1.0, 2.0], [0.0, 0.0]) == 0.0
    assert zero_identity_residual([1.0, 2.0, 4.0], [0.0, 0.0, 0.0]) < 1e-15


def test_zero_identity_exact_random():
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(2, 6)
        while True:
            kappa = [Q(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(m)]
            tpoint = [Q(rng.randint(-5, 5), 10) for _ in range(m)]
            shifts = [k - t for k, t in zip(kappa, tpoint)]
            if len(set(shifts)) == m:
                break
        assert zero_identity_exact(kappa, tpoint) == 0


@pytest.mark.parametrize("identity", [zero_identity_residual, zero_identity_exact])
def test_zero_identity_rejects_unequal_lengths(identity):
    with pytest.raises(DomainError):
        identity([1, 2, 4], [0, 0])
    with pytest.raises(DomainError):
        identity([1, 2], [0, 0, 0])


@pytest.mark.parametrize("kappa,t_point", [([math.nan, 2.0], [0, 0]),
                                           ([1.0, 2.0], [math.inf, 0]),
                                           ([10 ** 400, 2], [0, 0])])
def test_zero_identity_residual_rejects_non_finite(kappa, t_point):
    with pytest.raises(DomainError):
        zero_identity_residual(kappa, t_point)


@pytest.mark.parametrize("kappa,t_point", [([math.nan, 2.0], [0, 0]),
                                           ([math.inf, 2.0], [0, 0]),
                                           ([1.0, 2.0], [-math.inf, 0])])
def test_zero_identity_exact_rejects_non_finite(kappa, t_point):
    with pytest.raises(DomainError):
        zero_identity_exact(kappa, t_point)


def test_zero_identity_degenerate():
    with pytest.raises(DegenerateConfiguration):
        zero_identity_exact([Q(1), Q(1)], [Q(0), Q(0)])


def test_taylor_consistency_with_pi_series():
    # finite differences of the generating series in T recover the
    # multi-factor series coefficients
    kappa = [1.0, 2.0]
    h = 1e-3

    def z(t1, t2):
        return gen_series_direct(kappa, [t1, t2], 1e-14).value

    d_t1 = (z(h, 0) - z(-h, 0)) / (2 * h)
    expected = pi_series([1, 0], kappa).value
    assert d_t1 == pytest.approx(expected, abs=1e-6)

    d_t2 = (z(0, h) - z(0, -h)) / (2 * h)
    assert d_t2 == pytest.approx(pi_series([0, 1], kappa).value, abs=1e-6)

    d_t1t1 = (z(h, 0) - 2 * z(0, 0) + z(-h, 0)) / (h * h) / 2
    assert d_t1t1 == pytest.approx(pi_series([2, 0], kappa).value, abs=1e-6)

    d_t1t2 = (z(h, h) - z(h, -h) - z(-h, h) + z(-h, -h)) / (4 * h * h)
    assert d_t1t2 == pytest.approx(pi_series([1, 1], kappa).value, abs=1e-6)


def test_zeta_values_from_rank_one_examples():
    assert zeta_values_from_rank_one("S:3", 1) == pytest.approx(ZETA2, abs=1e-9)
    assert zeta_values_from_rank_one("S:2", 2) == pytest.approx(
        math.pi ** 2 / 8, abs=1e-9)
    assert zeta_values_from_rank_one("CP:2", 1) == pytest.approx(
        riemann_zeta(3.0), abs=1e-9)


@pytest.mark.parametrize("space_id", ["S:2", "S:3", "S:4", "S:5", "S:6", "S:7",
                                      "CP:2", "CP:3", "CP:4", "HP:1", "HP:2",
                                      "FII"])
def test_zeta_values_agree_with_direct_path(space_id):
    from wittenzeta import rootdata
    dim = rootdata.lookup_space(space_id).dim
    for s in (1, 2, 3):
        if s * (dim - 1) <= 1:
            continue
        via_series = zeta_values_from_rank_one(space_id, s)
        direct = zeta_type_I(space_id, float(s), 1e-11)
        assert via_series == pytest.approx(direct.value, abs=1e-9), (space_id, s)


@pytest.mark.parametrize("space_id,s", [("S:2", 2000), ("S:5", 400)])
def test_zeta_values_past_the_float_scale(space_id, s):
    # c^s and c^-s are past the float range, but every term after d(0)^-s = 1
    # underflows, as on the direct path
    assert zeta_values_from_rank_one(space_id, s) == 1.0
    assert zeta_type_I(space_id, float(s)).value == 1.0


def test_zeta_values_divergence():
    with pytest.raises(DivergenceError):
        zeta_values_from_rank_one("S:2", 1)


def test_zeta_values_reject_non_integral_s():
    # the exponents s * xi - 1 of the multi-factor series must be integers
    with pytest.raises(DomainError):
        zeta_values_from_rank_one("S:3", 1.5)
    # nor can an integer past the float range be one
    with pytest.raises(DomainError):
        zeta_values_from_rank_one("S:2", 10 ** 400)
    # nor one too long to print in the message
    with pytest.raises(DomainError):
        zeta_values_from_rank_one("S:2", 10 ** 5000)


def test_zeta_values_unconverged_series_raises(monkeypatch):
    monkeypatch.setenv("WZ_MAX_TERMS", "64")
    with pytest.raises(NotConverged):
        zeta_values_from_rank_one("S:4", 1)


def test_term_cap_rejects_bad_env(monkeypatch):
    for raw in ("abc", "0"):
        monkeypatch.setenv("WZ_MAX_TERMS", raw)
        with pytest.raises(ValueError):
            term_cap()


def _zeta_series(space_id):
    """The kept series parts of a rank-one table, as ``zeta._zeta`` reads them."""
    return dims.compile_space(space_id).part(zeta._series)


def _zeta_tail_bound(space_id, s, head):
    """The bound the head search reads on the rank-one zeta terms after n = head."""
    return genseries._series_tail(_zeta_series(space_id), s, term_cap())[0](head)[2]


@pytest.mark.parametrize("space_id", ["S:2", "S:4", "S:6", "CP:2", "HP:2", "FII"])
def test_rank_one_head_is_within_sixteen_terms_of_the_least(space_id):
    factors = len(dims.compile_space(space_id).shifts)
    for s in (0.25, 1.0, 2.0):
        if s * factors <= 1:
            continue
        for tol in (1e-6, 1e-10):
            res = zeta_type_I(space_id, s, tol)
            head = res.terms_used - 1       # the n = 0 term is not in the series
            assert res.converged, (space_id, s, tol)
            # the certified tail's bound plus the evaluation error: the
            # pinned estimate's, the head's and that of the two additions
            series = _zeta_series(space_id)
            scale, total = -s * series.log_c, s * series.moments[0]
            tail, error = genseries._series_tail(series, s, term_cap())
            a, bound, _ = tail(head)
            logs = genseries._log_dims(series.factors, 1, head + 1)
            head_sum = math.fsum(math.exp(scale - s * y) for y in logs)
            estimate = 0.0
            if a is not None:
                value, err = hurwitz_zeta_certified(total, a)
                estimate = genseries._scaled(scale, value)
                bound += genseries._estimate_error(scale, value, err, estimate)
            series_sum = head_sum + estimate
            bound += error(head_sum, 0) + genseries._addition_error(head_sum, estimate)
            assert bound <= _zeta_tail_bound(space_id, s, head) <= tol
            assert res.value == 1.0 + series_sum
            assert res.tail_bound == bound + genseries._addition_error(1.0, series_sum)
            if head >= 32:
                assert _zeta_tail_bound(space_id, s, head - 16) > tol, (space_id, s, tol)


def _mp(x):
    """A Fraction as an mpmath number."""
    return mpmath.mpf(x.numerator) / x.denominator


def _rank_one_table(ident):
    return dims.compile_group(ident) if ident == "SU:2" else dims.compile_space(ident)


#: Closed forms of sum_{n >= start} d(n)^-s: d(n) = 2n + 1 on S:2 and CP:1,
#: (n + 1)^2 on S:3 and n + 1 on SU:2.
_HURWITZ_TAILS = {
    "S:2": lambda s, start: mpmath.mpf(2) ** -s * mpmath.zeta(s, start + mpmath.mpf(0.5)),
    "CP:1": lambda s, start: mpmath.mpf(2) ** -s * mpmath.zeta(s, start + mpmath.mpf(0.5)),
    "S:3": lambda s, start: mpmath.zeta(2 * s, start + 1),
    "SU:2": lambda s, start: mpmath.zeta(s, start + 1),
}

_RANK_ONE_IDS = ["SU:2"] + [sid for sid in rootdata.CATALOG_IDS
                            if rootdata.lookup_space(sid).rank == 1]


@pytest.mark.parametrize("ident", _RANK_ONE_IDS)
def test_whole_tail_bounds_the_rank_one_tail(ident):
    # the scaled whole tail of a table's series (``Series.tail``) is at
    # least sum_{n >= start} d(n)^-s: its Hurwitz closed form where there is
    # one, and there within 1e-3 of it on the pinned branch, else a 40-digit
    # partial sum of 60 terms, a lower bound on it.  At P = s deg = 300 and
    # start 1000 the kernel's value is below the float range, and the bound
    # is the first-order one in logs
    table = _rank_one_table(ident)
    series, poly = table.part(zeta._series), table.factored
    first_orders = 0
    with mpmath.workdps(40):
        for s in (1.5 / poly.degree, 2.0, 300.0 / poly.degree):
            moments = series.power(s)[2]
            for start in (1, 2, 17, 1000):
                bound = series.tail(s, start, True)
                first_order = math.isnan(genseries.whole_tail(*moments)(start))
                if ident in _HURWITZ_TAILS:
                    tail = _HURWITZ_TAILS[ident](mpmath.mpf(s), start)
                    assert first_order or mpmath.mpf(bound) <= tail * 1.001, (s, start)
                else:
                    dimensions = [poly.c * math.prod(Q(n + k) ** xi for k, xi in poly.factors)
                                  for n in range(start, start + 60)]
                    tail = mpmath.fsum(_mp(d) ** -mpmath.mpf(s) for d in dimensions)
                assert 0.0 < bound < math.inf and mpmath.mpf(bound) >= tail, (s, start)
                first_orders += first_order
    assert first_orders >= 1


def _s2_genus0_heat_bound(area, n):
    """The geometric bound on sum_{m > n} q^{c2(m)} d(m) of S:2, d(m) = 2m + 1,
    c2(m) = m^2 + m: the first term over one minus the ratio from n to n + 1."""
    first = math.exp(-area * (n + 1) * (n + 2)) * (2 * n + 3)
    ratio = math.exp(-area * 2 * (n + 1)) * (2 * n + 3) / (2 * n + 1)
    return first / (1.0 - ratio)


def test_missed_tolerance_stops_within_twice_the_caps_bound(monkeypatch):
    monkeypatch.setenv("WZ_MAX_TERMS", "4096")
    zeta = zeta_type_I("S:4", 1.0, 1e-30)
    series = pi_series([1, 1], [1, 2], 1e-30)
    for res, terms, parts in ((zeta, 4097, _zeta_series("S:4")),
                              (series, 4096, genseries.Series([1.0, 2.0], [2.0, 2.0]))):
        # a rank-one series stops within twice the search bound at the cap,
        # which holds the rounding; the zeta adds its n = 0 term after it
        search = genseries._series_tail(parts, 1.0, 4096)[0]
        assert res.terms_used < terms and not res.converged
        assert res.tail_bound <= 2.0 * search(4096)[2] + (res is zeta) * genseries._U * res.value
    heat = partition_type_I("S:2", SurfaceParams(0, 1e-6), 1e-12)
    heat_cap = _s2_genus0_heat_bound(1e-6, 4095)
    assert heat.terms_used < 4096 and not heat.converged
    assert heat.tail_bound <= 2.0 * heat_cap
    # the heat sum is one pass, so it stops at the least such n
    assert _s2_genus0_heat_bound(1e-6, heat.terms_used - 2) > 2.0 * heat_cap


def test_term_cap_env(monkeypatch):
    monkeypatch.setenv("WZ_MAX_TERMS", "64")
    res = pi_series([1, 1], [1, 2], tolerance=1e-30)
    assert res.terms_used <= 64
    assert not res.converged
    monkeypatch.delenv("WZ_MAX_TERMS")


_BAD_TOLERANCE_CALLS = {
    "partition_type_I": lambda tol: partition_type_I("S:2", SurfaceParams(1, 0.5), tol),
    "partition_type_II": lambda tol: partition_type_II("SU:3", SurfaceParams(1, 0.5), tol),
    "boundary_state": lambda tol: boundary_state("S:2", SurfaceParams(1, 0.2, (1.0,)), tol),
    "pi_series": lambda tol: pi_series([1], [1], tol),
    "gen_series_direct": lambda tol: gen_series_direct([1, 2], [0, 0], tol),
    "zeta_values_from_rank_one": lambda tol: zeta_values_from_rank_one("S:3", 2, tol),
}


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_BAD_TOLERANCE_CALLS))
def test_bad_tolerance_rejected(name, tol, monkeypatch):
    # a short cap, so a sum that does not check its tolerance ends quickly
    monkeypatch.setenv("WZ_MAX_TERMS", "1000")
    with pytest.raises(DomainError):
        _BAD_TOLERANCE_CALLS[name](tol)


@pytest.mark.parametrize("run,true_log", [
    (lambda: pi_series([1000000, 0], [1, 2]), -1000001 * math.log(2) - math.log(3)),
    (lambda: zeta_type_I("S:2", 1e300), -1e300 * math.log(3))])
def test_an_underflowed_head_has_a_positive_bound(run, true_log):
    # every term rounds to 0; the float is not exact, so the bound is not 0
    res = run()
    assert res.converged and res.value in (0.0, 1.0)
    assert 0.0 < res.tail_bound < 1e-320 and true_log < math.log(res.tail_bound)


_HISTORY_CASES = [(sid, s, tol) for sid in ("S:6", "CP:3", "HP:3", "FII")
                  for s in (0.5, 1.0, 2.0) for tol in (1e-6, 1e-10)]


def test_rank_one_answers_do_not_depend_on_history(monkeypatch):
    # each answer on a fresh table equals the answer on a table warmed by
    # every other s and tolerance, bit for bit
    warmed = {case: zeta_type_I(*case) for case in _HISTORY_CASES}
    for case in _HISTORY_CASES:
        table = dims.compile_space(case[0])
        fresh = table._replace()        # a _replace'd table keeps no parts
        assert zeta._zeta(fresh, case[1], case[2], None) == warmed[case], case
    # the kept prefix is the block function's, bit for bit, and at most one block
    calls, block = [], genseries._log_dims
    for sid in ("S:6", "CP:3", "HP:3", "FII"):
        series = dims.compile_space(sid).part(zeta._series)
        assert 0 < len(series.logs) <= genseries._HEAD_BLOCK
        assert series.logs == block(series.factors, 1, len(series.logs) + 1)

    def counting(*args):
        calls.append(args)
        return block(*args)

    # a second query within the kept block makes no block call
    monkeypatch.setattr(genseries, "_log_dims", counting)
    within = [case for case in _HISTORY_CASES
              if warmed[case].terms_used - 1 <= genseries._HEAD_BLOCK]
    assert len(within) >= 20
    for case in within:
        assert zeta_type_I(*case) == warmed[case]
    assert calls == []
    # a head past the block reads its later blocks afresh and keeps none
    res = zeta_type_I("S:6", 0.25, 1e-8)
    series = dims.compile_space("S:6").part(zeta._series)
    assert res.terms_used - 1 > genseries._HEAD_BLOCK
    assert len(series.logs) == genseries._HEAD_BLOCK and calls
    assert all(lo > genseries._HEAD_BLOCK for _, lo, _ in calls)


_AUDIT = [(sid, s) for sid in ("S:6", "CP:3", "HP:3", "FII") for s in (0.25, 0.5, 1.0, 2.0)]


@pytest.mark.parametrize("sid,s", _AUDIT)
def test_rank_one_zeta_within_its_bound_of_mpmath(sid, s):
    # heads below, at and past one block; the true value is mpmath's sum of
    # the head in 40 digits plus its Euler-Maclaurin tail, d(n) from the
    # exact factored form.  Where the search bound still falls there, a
    # tolerance equal to it at n = 1024 (1040) makes the head exactly the
    # kept block (the block and 16 terms of the next)
    mpmath = pytest.importorskip("mpmath")
    table = dims.compile_space(sid)
    poly, search = table.factored, genseries._series_tail(table.part(zeta._series), s,
                                                           term_cap())[0]
    edges = {search(n)[2]: n for n in (1024, 1040) if search(n - 8)[2] > search(n)[2]}
    for tol in (1e-6, 1e-10, *edges):
        res = zeta_type_I(sid, s, tol)
        if tol in edges:
            assert res.terms_used - 1 == edges[tol], (sid, s, tol)
        if res.terms_used > 20000:
            continue
        with mpmath.workdps(40):
            def term(n):
                d = mpmath.mpf(poly.c.numerator) / poly.c.denominator
                for k, xi in poly.factors:
                    d *= (n + mpmath.mpf(k.numerator) / k.denominator) ** xi
                return d ** -s
            true = mpmath.fsum(term(n) for n in range(res.terms_used))
            true += mpmath.nsum(term, [res.terms_used, mpmath.inf], method="e")
        assert abs(res.value - true) <= res.tail_bound, (sid, s, tol)


@pytest.mark.parametrize("call,exact", [
    (lambda: pi_series([1, 1], [1, 2], 1e-12), lambda mp: 2 * mp.pi ** 2 / 6 - mp.mpf(13) / 4),
    (lambda: pi_series([0, 0], [1, 2], 1e-10), lambda mp: mp.mpf(1) / 2),
    (lambda: gen_series_direct([1, 3], [0.25, 0.75], 1e-10),
     lambda mp: (mp.digamma(mp.mpf(13) / 4) - mp.digamma(mp.mpf(7) / 4)) / mp.mpf(3) * 2)])
def test_multi_factor_series_within_its_bound_of_mpmath(call, exact):
    mpmath = pytest.importorskip("mpmath")
    res = call()
    with mpmath.workdps(40):
        assert abs(res.value - exact(mpmath)) <= res.tail_bound
