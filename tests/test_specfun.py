import itertools
import math
import sys

import numpy as np
import pytest

from wittenzeta import genseries
from wittenzeta.errors import DomainError
from wittenzeta.specfun import (EULER_GAMMA, bernoulli_polynomial, digamma,
                                gauss_legendre_nodes, hurwitz_zeta_certified, hurwitz_zeta_error,
                                hurwitz_zeta_upper, legendre_p, riemann_zeta)


def brute_zeta(s: float, terms: int = 1_000_000) -> float:
    """Independent oracle: direct summation plus integral tail with endpoint correction."""
    partial = math.fsum(n ** (-s) for n in range(terms, 0, -1))
    n = terms + 1
    return partial + n ** (1 - s) / (s - 1) + 0.5 * n ** (-s)


def test_duplication_formula_residuals():
    for z in (0.3, 1.7, 4.25):
        lhs = math.gamma(2 * z)
        rhs = 2 ** (2 * z - 1) / math.sqrt(math.pi) * math.gamma(z) * math.gamma(z + 0.5)
        assert abs(lhs - rhs) / lhs < 1e-12


def _gamma_any(t: float) -> float:
    """Gamma at any non-pole real argument, negative side via reflection."""
    if t > 0:
        return math.gamma(t)
    return math.pi / (math.sin(math.pi * t) * math.gamma(1.0 - t))


def test_reflection_and_combined_ratio():
    # standard reflection, and the half-shift quotient it implies; note the
    # quotient is -z tan(pi z): the sign drops out of the dimension ratios,
    # which divide two values of the same quotient at integer-shifted points
    for z in (0.3, 0.77, 1.21, 2.6):
        refl = math.gamma(z) * _gamma_any(1.0 - z)
        assert refl == pytest.approx(math.pi / math.sin(math.pi * z), rel=1e-10)
        num = _gamma_any(0.5 + z) * _gamma_any(0.5 - z)
        den = _gamma_any(z) * _gamma_any(-z)
        assert num / den == pytest.approx(-z * math.tan(math.pi * z), rel=1e-10)


def test_bernoulli_polynomials():
    assert bernoulli_polynomial(0, 0.7) == 1.0
    assert bernoulli_polynomial(2, 0.3) == pytest.approx(0.09 - 0.3 + 1 / 6, rel=1e-15)
    for n in range(1, 12):
        assert bernoulli_polynomial(n, 0.0) == pytest.approx(
            [1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0][n],
            abs=1e-15)
        # B_n(x + 1) - B_n(x) = n x^(n-1)
        for x in (-3.5, 0.25, 2.0):
            assert bernoulli_polynomial(n, x + 1) - bernoulli_polynomial(n, x) == \
                pytest.approx(n * x ** (n - 1), rel=1e-12, abs=1e-12)


def test_digamma_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)
    assert digamma(1.5) == pytest.approx(2.0 - 2.0 * math.log(2.0) - EULER_GAMMA,
                                         abs=1e-13)


def test_digamma_harmonic_recurrence():
    h = 0.0
    for n in range(1, 51):
        h += 1.0 / n
        assert digamma(n + 1.0) == pytest.approx(-EULER_GAMMA + h, abs=1e-12)


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-2.5)
    with pytest.raises(DomainError):
        digamma(math.nan)


def test_riemann_zeta_against_brute_force():
    assert riemann_zeta(2.0) == pytest.approx(brute_zeta(2.0), abs=1e-12)
    assert riemann_zeta(4.0) == pytest.approx(brute_zeta(4.0), abs=1e-12)
    assert riemann_zeta(1.5) == pytest.approx(brute_zeta(1.5), abs=1e-10)
    # edges of the stated accuracy band
    assert riemann_zeta(1.05) == pytest.approx(brute_zeta(1.05), abs=1e-10)
    assert riemann_zeta(50.0) == pytest.approx(1.0 + 2.0 ** -50.0, abs=1e-14)


def test_riemann_zeta_analytic_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-13)
    assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90, abs=1e-13)
    assert 1.0 < riemann_zeta(30.0) < 1.0 + 1e-8


def test_zeta_certified_bound_is_honest():
    for s in (1.1, 2.0, 3.7, 12.0):
        value, bound = hurwitz_zeta_certified(s, 1.0)
        assert abs(value - brute_zeta(s, 400_000)) <= bound + 1e-10


def test_certified_zeta_is_finite_at_huge_s():
    # x^(-s) underflows while the Euler-Maclaurin factor (s)_17 overflows;
    # their product must not turn into inf * 0 = NaN
    for s in (300.0, 1e18, 1e20, 1e100, 1e200, 1e308):
        for a in (1.0, 1.5, 17.25, 1e6):
            value, bound = hurwitz_zeta_certified(s, a)
            assert math.isfinite(value) and math.isfinite(bound), (s, a)
            # the first term is all that is left; the bound is the rounding
            # slop of the partial sum
            assert math.isclose(value, a ** -s, rel_tol=1e-12), (s, a)
            assert 0.0 <= bound < 1e-14, (s, a)
    # a < 1 with a^(-s) inside the float range
    value, bound = hurwitz_zeta_certified(1000.0, 0.5)
    assert value == 2.0 ** 1000 and math.isfinite(bound)


@pytest.mark.parametrize("s,a", [(228.0, 16.0), (100.0, 16.0), (60.0, 1.5), (40.0, 1.0)])
def test_certified_zeta_is_tight_at_large_s(s, a):
    # past s = 96 the shift goes on from 16: at 16, (228, 16) gave
    # -2.66e-270 +- 1.8e-269 for a true 2.9e-275
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        true = mpmath.zeta(s, a)
        value, bound = hurwitz_zeta_certified(s, a)
        assert value > 0.0
        assert abs(mpmath.mpf(value) - true) <= bound
        assert bound < 1e-10 * true


#: The audit grid of ``hurwitz_zeta_upper``.
UPPER_S = (1.001, 1.05, 1.25, 2.0, 3.0, 10.0, 30.0, 96.0, 97.0, 300.0, 1e300)
UPPER_A = (1.0, 1.3, 2.5, 7.25, 16.0, 17.5, 100.0, 1e4, 1e300)


def _normal(x):
    return sys.float_info.min <= x


def test_upper_zeta_bounds_zeta_tightly():
    # at 40 digits: a positive normal result is at least zeta(s, a), and
    # wherever zeta(s, a) is a normal float and s <= 100 the result is one,
    # at most 2^-10 above it
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    with mpmath.workdps(40):
        for s, a in itertools.product(UPPER_S, UPPER_A):
            upper, true = hurwitz_zeta_upper(s, a), mpmath.zeta(s, a)
            if _normal(upper):
                assert mpmath.mpf(upper) >= true, (s, a)
            if true >= sys.float_info.min and s <= 100.0:
                assert (mpmath.mpf(upper) - true) / true <= 2.0 ** -10, (s, a)
                checked += 1
    assert checked == 74


@pytest.mark.parametrize("s", UPPER_S)
def test_upper_zeta_does_not_grow_along_a(s):
    # the box's least side and the rank-one head search read it as a
    # non-increasing function of the start
    for a in UPPER_A:
        values = [hurwitz_zeta_upper(s, a + n) for n in range(81)]
        assert all(x >= y for x, y in zip(values, values[1:])), (s, a)


def test_upper_zeta_below_the_float_range_is_no_bound():
    # zeta(96, 1e4) is about 1e-382: the kernel's 0 or subnormal result is
    # below it, and the tail rule passes it on as NaN, no bound
    assert not _normal(hurwitz_zeta_upper(96.0, 1e4))
    pinned = genseries.moment_tail(94.0, 1e4, 0.5, 1.0, 1e4 - 0.5)(0)
    first_order = genseries.moment_tail(96.0, 1e4, 1e5, 0.0, 1e4)(0)
    assert pinned[0] == 1e4 and math.isnan(pinned[1])
    assert first_order[0] is None and math.isnan(first_order[1])
    # the rank-one sum then bounds the tail in logs: every term underflows,
    # and the bound counts them, so it is not 0 (the float 0.0 is not exact)
    res = genseries.pi_series([95], [1e4], 1e-300)
    assert (res.value, res.terms_used, res.converged) == (0.0, 16, True)
    assert 0.0 < res.tail_bound < 1e-320


@pytest.mark.parametrize("s", [1.001, 1.5, 2.0, 6.0, 30.0, 96.0, 97.0, 150.0, 400.0])
def test_hurwitz_error_bounds_the_evaluation_error(s):
    # the a-priori error, given the kernel's bound, is at least the error
    # the evaluation returns
    for a in (0.5, 1.0, 1.3, 7.25, 16.0, 17.5, 20.0, 100.0, 1e4):
        upper = hurwitz_zeta_upper(s, a)
        if _normal(upper):
            assert hurwitz_zeta_error(s, a, upper) >= hurwitz_zeta_certified(s, a)[1], (s, a)


def test_upper_zeta_at_huge_s_and_its_domain():
    # a huge s needs no shift: the first term is all there is, or past the
    # float range for a < 1
    for s in (1e6, 1e200, 1e300):
        assert hurwitz_zeta_upper(s, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert hurwitz_zeta_upper(s, 1.5) == 0.0
        assert hurwitz_zeta_upper(s, 0.5) == math.inf
    for s, a in ((0.5, 1.0), (1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (2.0, 0.0),
                 (2.0, math.nan)):
        with pytest.raises(DomainError):
            hurwitz_zeta_upper(s, a)


def test_riemann_zeta_domain():
    with pytest.raises(DomainError):
        riemann_zeta(1.0)
    with pytest.raises(DomainError):
        riemann_zeta(0.5)


def test_hurwitz_values():
    assert hurwitz_zeta_certified(3.0, 1.0)[0] == pytest.approx(riemann_zeta(3.0), abs=1e-13)
    assert hurwitz_zeta_certified(2.0, 0.5)[0] == pytest.approx(math.pi ** 2 / 2, abs=1e-12)
    assert hurwitz_zeta_certified(3.0, 2.0)[0] == pytest.approx(riemann_zeta(3.0) - 1.0,
                                                                abs=1e-13)


@pytest.mark.parametrize("s", [2.0, 3.0, 5.0, 8.0])
def test_hurwitz_half_shift_identity(s):
    assert abs(hurwitz_zeta_certified(s, 0.5)[0] - (2 ** s - 1) * riemann_zeta(s)) < 1e-11


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta_certified(0.9, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta_certified(2.0, 0.0)


@pytest.mark.parametrize("s,a", [(math.nan, 1.0), (2.0, math.nan), (math.nan, math.nan),
                                 (math.inf, 0.5), (math.inf, 1.0),
                                 # a^(-s) past the float range for a < 1
                                 (2000.0, 0.5), (800.0, 0.3), (1e308, 0.5)])
def test_hurwitz_rejects_what_it_cannot_return(s, a):
    with pytest.raises(DomainError):
        hurwitz_zeta_certified(s, a)


def test_legendre_values():
    assert legendre_p(0, 0.83) == 1.0
    assert legendre_p(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert legendre_p(2, 0.5) == pytest.approx(-0.125, abs=1e-15)
    # the recurrence is exact at +-1: every step is an integer below 2^53
    for n in range(513):
        assert legendre_p(n, 1.0) == 1.0
        assert legendre_p(n, -1.0) == (-1.0) ** n


def test_gauss_nodes_small_orders():
    x, w = gauss_legendre_nodes(1)
    assert x[0] == pytest.approx(0.0, abs=1e-15)
    assert w[0] == pytest.approx(2.0, abs=1e-15)
    x, w = gauss_legendre_nodes(2)
    assert sorted(x) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert list(w) == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 64, 128, 512])
def test_gauss_weights_sum_to_two(order):
    _, w = gauss_legendre_nodes(order)
    w = np.asarray(w)
    assert abs(float(np.sum(w)) - 2.0) < 1e-14


def test_gauss_polynomial_exactness():
    x, w = map(np.asarray, gauss_legendre_nodes(3))
    assert float(np.sum(w * x ** 4)) == pytest.approx(2.0 / 5.0, abs=1e-12)
    # degree 2n-1 exactness on a random-ish polynomial
    x, w = map(np.asarray, gauss_legendre_nodes(5))
    coeffs = [0.3, -1.2, 0.8, 2.0, -0.5, 1.1, 0.25, -0.75, 0.5, 1.0]
    poly = sum(c * x ** k for k, c in enumerate(coeffs))
    exact = sum(c * (1 - (-1) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
    assert float(np.sum(w * poly)) == pytest.approx(exact, abs=1e-12)


def _mp_gauss_point(mpmath, order, guess):
    """(node, weight) of the order-``order`` rule by Newton's method on the
    three-term recurrence at the working precision, from ``guess``."""
    x = mpmath.mpf(guess)
    for _ in range(3):
        prev, p = mpmath.mpf(1), x
        for j in range(1, order):
            prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
        slope = order * (prev - x * p)      # (1 - x^2) P_n'(x)
        x -= p * (1 - x * x) / slope
    return x, 2 * (1 - x * x) / slope ** 2


@pytest.mark.parametrize("order", [1, 2, 3, 5, 64, 128, 512])
def test_gauss_rule_against_mpmath(order):
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_legendre_nodes(order)
    assert len(x) == len(w) == order and list(x) == sorted(x)
    assert x[:order // 2] == tuple(-t for t in reversed(x[(order + 1) // 2:]))
    assert w == tuple(reversed(w))
    _, ref_w = np.polynomial.legendre.leggauss(order)
    worst = worst_leggauss = 0.0
    with mpmath.workdps(40):
        for k in range(order // 2, order):      # the nodes in [0, 1)
            node, weight = _mp_gauss_point(mpmath, order, x[k])
            assert abs(float(node - x[k])) <= 1.2e-16
            worst = max(worst, abs(float((w[k] - weight) / weight)))
            worst_leggauss = max(worst_leggauss, abs(float((ref_w[k] - weight) / weight)))
    assert worst <= 1e-11
    assert worst <= worst_leggauss


def test_gauss_domain():
    with pytest.raises(DomainError):
        gauss_legendre_nodes(0)
    with pytest.raises(DomainError):
        gauss_legendre_nodes(513)
