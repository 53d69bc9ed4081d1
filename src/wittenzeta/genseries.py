"""Multi-factor series over shifted integers and their partial-fraction form.

``pi_series`` sums prod_j (n + kappa_j)^-(1+pi_j) over n >= 1.  The
generating-series value at a point T is the same sum with all exponents 1
and kappa_j shifted by -T_j; its partial-fraction expansion turns it into
digamma values, once the divergent single-factor pieces are regularized.
The regularization constant drops out because the partial-fraction
coefficients sum to zero, which is also checked here in exact arithmetic.

Every sum of the library fixes its goal, the tail bound at which it stops,
before it sums a term (``_goal``): the tolerance or, when that is out of
reach within the term cap, twice the bound at the cap.  The rank-one series
(``_sum_with_tail``, here and in ``zeta``) pick their head from
``certified_tail``; the higher-rank sums are in ``weights``, whose zeta box
certificate takes the same tail rule from its series' moments
(``moment_tail``).
"""
from __future__ import annotations

import math
import os
from fractions import Fraction as Q

from . import dims
from .errors import (DegenerateConfiguration, DivergenceError, DomainError,
                     NotConverged, shown)
from .result import EvalResult
from .specfun import digamma, hurwitz_zeta_certified

_DEFAULT_CAP = 2_000_000


def term_cap() -> int:
    """Series-length cap, overridable through WZ_MAX_TERMS (a positive integer)."""
    raw = os.environ.get("WZ_MAX_TERMS")
    if raw is None:
        return _DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"WZ_MAX_TERMS must be a positive integer, got {raw!r}")
    return cap


def _finite(x) -> bool:
    """math.isfinite, False for a number past the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_tolerance(tolerance: float) -> None:
    if not (_finite(tolerance) and tolerance > 0):
        raise DomainError(f"tolerance must be finite and positive, got {shown(tolerance)}")


def _goal(cap_bound: float, tolerance: float) -> float:
    """The tail bound at which a sum stops: the tolerance or, when the bound
    at the term cap misses it, twice that bound."""
    return tolerance if cap_bound <= tolerance else 2.0 * cap_bound


def certified_tail(kappas: list[float], powers: list[float]):
    """start -> certified (estimate, bound) of sum_{n >= start} prod_j
    (n+kappa_j)^(-p_j), every p_j > 0, their sum P > 1, start > -kappa_min:
    the tail of ``moment_tail`` at the moments of the factors
    (``tail_moments``).
    """
    return moment_tail(*tail_moments(kappas, powers))


def tail_moments(kappas: list[float], powers: list[float]
                 ) -> tuple[float, float, float, float, float]:
    """(P, kbar, spread, V, kappa_min) of the factors prod_j (n+kappa_j)^(-p_j):
    the total power P = sum p_j, the power-weighted mean shift kbar,
    max|kappa_j - kbar|, V = sum p_j (kappa_j - kbar)^2 and the least shift.
    ``weights._box_bound`` takes the same moments of many series at once, in
    array passes."""
    total = sum(powers)
    kbar = sum(p * k for p, k in zip(powers, kappas)) / total
    spread = max(abs(k - kbar) for k in kappas)
    v = sum(p * (k - kbar) ** 2 for p, k in zip(powers, kappas))
    return total, kbar, spread, v, min(kappas)


def moment_tail(total: float, kbar: float, spread: float, v: float, kappa_min: float):
    """start -> certified (estimate, bound) of the tail from n = start of a
    product of factors prod_j (n+kappa_j)^(-p_j), given by its moments
    (``tail_moments``): the one tail rule of the rank-one series and of the
    one-coordinate series of the zeta box certificate.

    The product is pinned to (n + kbar)^(-P) with kbar the power-weighted
    mean shift, so the first-order deviation vanishes and the remainder is
    controlled by V = sum p_j (kappa_j - kbar)^2:

        |prod - (n+kbar)^(-P)| <= 2 V (n+kbar)^(-P-2)

    valid for n + kbar >= 2 max|kappa_j - kbar| and V <= (n+kbar)^2 / 2
    (``shifted_product_tail``).  Before that the tail is bounded to
    first order: each term is at most (n + kappa_min)^(-P), so the tail is
    at most zeta(P, start + kappa_min).
    """
    def tail(start: int) -> tuple[float, float]:
        a = start + kbar
        if a > 1.0 and spread <= 0.5 * a and v <= 0.5 * a * a:
            return shifted_product_tail(total, v, a)
        value, err = hurwitz_zeta_certified(total, start + kappa_min)
        return 0.0, value + err

    return tail


def shifted_product_tail(total: float, v: float, a: float) -> tuple[float, float]:
    """The pinned tail zeta(P, start + kbar) of ``moment_tail``, and its bound."""
    main, bound = hurwitz_zeta_certified(total, a)
    if v > 0.0:
        corr, corr_err = hurwitz_zeta_certified(total + 2.0, a)
        bound += 2.0 * v * (corr + corr_err)
    return main, bound


def _exp(x: float) -> float:
    """exp(x), inf past the float range (``dims._LOG_MAX``)."""
    return math.exp(x) if x <= dims._LOG_MAX else math.inf


def _scaled(scale_log: float, x: float) -> float:
    """exp(scale_log) * x without overflowing on huge scale factors."""
    if x <= 0.0:
        return 0.0
    return _exp(scale_log + math.log(x))


def _sum_with_tail(kappas: list[float], powers: list[float],
                   tolerance: float, scale_log: float = 0.0) -> EvalResult:
    """sum_{n >= 1} exp(scale_log) * prod (n+kappa_j)^(-p_j), certified.

    The head n = 1..h is fixed before any term is summed.  Heads of 16, 32,
    64, ... terms, the last one the cap, are tried until ``certified_tail``
    bounds the tail after one by the goal: the tolerance or, when the cap's
    head misses it, twice the cap's bound.  The last doubling step is then
    bisected until it is under 16 terms wide.  The head is one exactly
    rounded fsum, and the value is that sum plus the pinned tail estimate.
    """
    total = sum(powers)
    if not all(map(math.isfinite, (*powers, total, scale_log))):
        raise DomainError("series powers and scale must be finite")
    if total <= 1.0:
        raise DivergenceError("series diverges: total exponent <= 1")
    _check_tolerance(tolerance)
    cap = term_cap()
    factors = list(zip(powers, kappas))
    tails = certified_tail(kappas, powers)
    tried = {}

    def bound(head):    # of the tail after n = head; ``tried`` keeps (estimate, bound)
        if head not in tried:
            estimate, err = tails(head + 1)
            tried[head] = _scaled(scale_log, estimate), _scaled(scale_log, err)
        return tried[head][1]

    heads = [min(16, cap)]
    while not bound(heads[-1]) <= tolerance and heads[-1] < cap:
        heads.append(min(2 * heads[-1], cap))
    goal = _goal(bound(heads[-1]), tolerance)
    i = next((i for i, h in enumerate(heads) if bound(h) <= goal), len(heads) - 1)
    low, head = heads[max(i - 1, 0)], heads[i]
    while head - low >= 16:
        mid = (low + head) // 2
        low, head = (low, mid) if bound(mid) <= goal else (mid, head)
    value = math.fsum(math.exp(scale_log - sum(p * math.log(m + k) for p, k in factors))
                      for m in range(1, head + 1))
    estimate, err = tried[head]
    return EvalResult(value=value + estimate, tail_bound=err, terms_used=head,
                      converged=err <= tolerance)


def _finite_floats(values: list, name: str) -> list[float]:
    """The values as floats; DomainError for one not finite or past the float range."""
    if not all(map(_finite, values)):
        raise DomainError(f"{name} entries must be finite")
    return [float(v) for v in values]


def _point_shifts(kappa: list[Q | float], t_point: list[float]) -> list[float]:
    """The shifts kappa_j - T_j of a point of the generating series, after
    checking that the point is one: equal lengths, two factors or more,
    finite entries, and 1 + kappa_j - T_j > 0."""
    if len(kappa) != len(t_point):
        raise DomainError("kappa and T must have equal length")
    if len(kappa) < 2:
        raise DivergenceError("a single factor with exponent one diverges")
    shifts = [k - t for k, t in zip(_finite_floats(kappa, "kappa"),
                                    _finite_floats(t_point, "T"))]
    if any(1.0 + a <= 0.0 for a in shifts):
        raise DomainError("need 1 + kappa_j - T_j > 0 for every factor")
    return shifts


def pi_series(pi: list[int], kappa: list[Q | float],
              tolerance: float = 1e-10) -> EvalResult:
    """sum_{n>=1} prod_j (n + kappa_j)^-(1+pi_j)."""
    if len(pi) != len(kappa) or not pi:
        raise DomainError("pi and kappa must be nonempty lists of equal length")
    pis = _finite_floats(pi, "pi")
    if not all(p >= 0 and p.is_integer() for p in pis):
        raise DomainError("pi entries must be nonnegative integers")
    kappas = _finite_floats(kappa, "kappa")
    if any(k <= 0 for k in kappas):
        raise DomainError("kappa entries must be positive")
    powers = [1.0 + p for p in pis]
    if sum(powers) < 2.0:
        raise DivergenceError("sum of (1 + pi_j) must be at least 2")
    return _sum_with_tail(kappas, powers, tolerance)


def gen_series_direct(kappa: list[Q | float], t_point: list[float],
                      tolerance: float = 1e-12) -> EvalResult:
    """sum_{n>=1} prod_j (n + kappa_j - T_j)^(-1) by direct summation."""
    shifts = _point_shifts(kappa, t_point)
    return _sum_with_tail(shifts, [1.0] * len(shifts), tolerance)


def _partial_fraction_coeffs(shifts: list[float]) -> list[float]:
    coeffs = []
    for nu, a_nu in enumerate(shifts):
        prod = 1.0
        for mu, a_mu in enumerate(shifts):
            if mu == nu:
                continue
            diff = a_mu - a_nu
            if abs(diff) < 1e-12:
                raise DegenerateConfiguration(
                    f"shifted kappas {a_mu} and {a_nu} coincide"
                )
            prod /= diff
        coeffs.append(prod)
    return coeffs


def gen_series_mf(kappa: list[Q | float], t_point: list[float]) -> float:
    """Partial-fraction value of the generating series.

    Each single-factor piece is regularized to -digamma(1 + kappa - T);
    the subtracted constants cancel because the coefficients sum to zero.
    """
    shifts = _point_shifts(kappa, t_point)
    coeffs = _partial_fraction_coeffs(shifts)
    return -sum(c * digamma(1.0 + a) for c, a in zip(coeffs, shifts))


def zero_identity_residual(kappa: list[float], t_point: list[float]) -> float:
    """|sum of partial-fraction coefficients|, which is zero in exact arithmetic."""
    if len(kappa) != len(t_point):
        raise DomainError("kappa and T must have equal length")
    if len(kappa) < 2:
        raise DivergenceError("need at least two factors")
    shifts = [k - t for k, t in zip(_finite_floats(kappa, "kappa"),
                                    _finite_floats(t_point, "T"))]
    return abs(sum(_partial_fraction_coeffs(shifts)))


def zero_identity_exact(kappa: list[Q], t_point: list[Q]) -> Q:
    """Same coefficient sum in exact rational arithmetic."""
    if len(kappa) != len(t_point):
        raise DomainError("kappa and T must have equal length")
    if len(kappa) < 2:
        raise DivergenceError("need at least two factors")
    try:
        shifts = [Q(k) - Q(t) for k, t in zip(kappa, t_point)]
    except (ValueError, OverflowError):     # Fraction of a NaN or an infinity
        raise DomainError("kappa and T entries must be finite") from None
    total = Q(0)
    for nu, a_nu in enumerate(shifts):
        prod = Q(1)
        for mu, a_mu in enumerate(shifts):
            if mu == nu:
                continue
            diff = a_mu - a_nu
            if diff == 0:
                raise DegenerateConfiguration("coinciding shifted kappas")
            prod /= diff
        total += prod
    return total


def zeta_values_from_rank_one(space_id: str, s: int,
                              tolerance: float = 1e-10) -> float:
    """Rank-one zeta value assembled from the factored dimension polynomial.

    The multi-factor series starts at n = 1, so the n = 0 term (equal to
    one by the normalization d(0) = 1) is restored explicitly.  Raises
    ``NotConverged`` when that series misses its tolerance.
    """
    if not (_finite(s) and s == int(s) and s >= 1):
        raise DomainError(f"s must be a positive integer, got {shown(s)}")
    _check_tolerance(tolerance)
    poly = dims.rank_one_factored(space_id)
    if s * poly.degree <= 1:
        raise DivergenceError(
            f"zeta of {space_id} diverges at s = {s}: s * degree <= 1"
        )
    pi = []
    kappa = []
    for k, xi in poly.factors:
        pi.append(s * xi - 1)
        kappa.append(k)
    # the c^{-s} prefactor amplifies the series error, so tighten accordingly;
    # the clamp keeps an underflowed tolerance positive and an overflowed one finite
    log_c = math.log(float(poly.c))
    inner_tol = min(max(_scaled(s * log_c, tolerance), 1e-300), 1e300)
    series = pi_series(pi, kappa, inner_tol)
    if not series.converged:
        raise NotConverged(
            f"zeta_values_from_rank_one({space_id}, {s}) unmet tolerance {tolerance} "
            f"(series tail bound {series.tail_bound:.3g} after {series.terms_used} terms)"
        )
    return 1.0 + _scaled(-s * log_c, series.value)
