"""Multi-factor series over shifted integers and their partial-fraction form.

``pi_series`` sums prod_j (n + kappa_j)^-(1+pi_j) over n >= 1.  The
generating-series value at a point T is the same sum with all exponents 1
and kappa_j shifted by -T_j; its partial-fraction expansion turns it into
digamma values, once the divergent single-factor pieces are regularized.
The regularization constant drops out because the partial-fraction
coefficients sum to zero, which is also checked here in exact arithmetic.

Every sum of the library fixes its goal, the tail bound at which it stops,
before it sums a term (``_goal``): the tolerance or, when that is out of
reach within the term cap, twice the bound at the cap.

One rule, ``whole_tail``, certifies a whole tail sum_{n >= start} prod_j
(n + kappa_j)^(-p_j) from its moments (``tail_moments``): for the zeta box
(``weights._box_bound``) and, as ``Series.tail``, for the rank-one heat
floor.  A rank-one ``Series`` is scaled to a power in one place,
``Series.power``.  The rank-one series (``_sum_with_tail``, here and in
``zeta``) pick their head from ``moment_tail`` at the scaled moments; the
one full-precision Hurwitz value, ``hurwitz_zeta_certified``, is their
estimate at the final head.
"""
from __future__ import annotations

import math
import os
import sys
from fractions import Fraction as Q
from itertools import chain

from . import dims
from .errors import (DegenerateConfiguration, DivergenceError, DomainError,
                     NotConverged, shown)
from .result import EvalResult
from .specfun import (digamma, hurwitz_zeta_certified, hurwitz_zeta_error,
                      hurwitz_zeta_upper)

_DEFAULT_CAP = 2_000_000

#: The unit roundoff 2^-53: one rounding to nearest errs by at most u of its result.
_U = 2.0 ** -53


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


def tail_moments(kappas: list[float], powers: list[float]
                 ) -> tuple[float, float, float, float, float]:
    """(P, kbar, spread, V, kappa_min) of the factors prod_j (n+kappa_j)^(-p_j):
    the total power P = sum p_j, the power-weighted mean shift kbar,
    max|kappa_j - kbar|, V = sum p_j (kappa_j - kbar)^2 (inf past the float
    range) and the least shift.  Scaling every power by s scales P and V by
    s and leaves the rest (``Series.power``).  ``weights._box_bound`` takes the
    same moments of many series at once, in array passes."""
    total = sum(powers)
    kbar = sum([p * k for p, k in zip(powers, kappas)]) / total
    least = min(kappas)
    # max |kappa_j - kbar|, exact as rounding is monotone
    spread = max(max(kappas) - kbar, kbar - least)
    try:
        v = sum([p * (k - kbar) ** 2 for p, k in zip(powers, kappas)])
    except OverflowError:       # a shift some 1e154 from the mean
        v = math.inf
    return total, kbar, spread, v, least


def _upper(s: float, a: float) -> float:
    """``hurwitz_zeta_upper(s, a)``, or NaN when that is not a positive normal
    float and so bounds nothing (its true value may lie below the float range)."""
    bound = hurwitz_zeta_upper(s, a)
    return bound if bound >= sys.float_info.min else math.nan


def whole_tail(total: float, kbar: float, spread: float, v: float, kappa_min: float):
    """start -> a certified upper bound on sum_{n >= start} prod_j (n +
    kappa_j)^(-p_j), given by its moments: the bound of ``moment_tail`` plus,
    on its pinned branch, the kernel's upper bound on zeta(P, a); NaN where
    that is no positive normal float.  Each start is evaluated once."""
    tail, known = moment_tail(total, kbar, spread, v, kappa_min), {}

    def bound(start: int) -> float:
        value = known.get(start)
        if value is None:
            a, value = tail(start)
            if a is not None:
                value += _upper(total, a)
            known[start] = value = value if value >= sys.float_info.min else math.nan
        return value

    return bound


def moment_tail(total: float, kbar: float, spread: float, v: float, kappa_min: float):
    """start -> (a, bound) for the tail from n = start of a product of factors
    prod_j (n+kappa_j)^(-p_j), given by its moments (``tail_moments``): the
    rule behind ``whole_tail`` and the rank-one estimate.

    The product is pinned to (n + kbar)^(-P) with kbar the power-weighted
    mean shift, so the first-order deviation vanishes and the remainder is
    controlled by V = sum p_j (kappa_j - kbar)^2:

        |prod - (n+kbar)^(-P)| <= 2 V (n+kbar)^(-P-2)

    valid for n + kbar >= 2 max|kappa_j - kbar| and a finite V <= (n+kbar)^2
    / 2.  There the tail is zeta(P, a), a = start + kbar, within bound = 2 V
    zeta(P+2, a).  Before that it is bounded to first order: each term is at
    most (n + kappa_min)^(-P), so the tail is at most bound = zeta(P, start +
    kappa_min), and a is None.  Every zeta here is the certified upper bound
    ``specfun.hurwitz_zeta_upper``; where that is not a positive normal float
    the bound is NaN, no bound.  ``whole_tail`` adds the upper bound at (P,
    a); the rank-one estimate adds the certified value.
    """
    def tail(start: int) -> tuple[float | None, float]:
        a = start + kbar
        if a > 1.0 and spread <= 0.5 * a and v <= 0.5 * a * a and v < math.inf:
            return a, 2.0 * v * _upper(total + 2.0, a) if v > 0.0 else 0.0
        return None, _upper(total, start + kappa_min)

    return tail


def _exp(x: float) -> float:
    """exp(x), inf past the float range (``dims._LOG_MAX``)."""
    return math.exp(x) if x <= dims._LOG_MAX else math.inf


#: The least positive float 2^-1074: below the normal range a rounding errs
#: by up to this much, whatever the result.
_TINY = 2.0 ** -1074


def _up(x: float) -> float:
    """A computed bound x on a positive quantity, raised by ``_TINY`` where it
    is below the normal range, so that it never reads 0."""
    return x if x >= sys.float_info.min else x + _TINY


def _scaled(scale_log: float, x: float) -> float:
    """exp(scale_log) * x without overflowing on huge scale factors."""
    if x <= 0.0:
        return 0.0
    return _exp(scale_log + math.log(x))


def log_first_order(factors: list[tuple[float, float]], total: float, start: int) -> float:
    """The log of a bound on sum_{n >= start} f(n), f(n) = prod_j (n +
    kappa_j)^(-p_j) over the (p_j, kappa_j) of ``factors``, P = sum p_j > 1:
    the first term plus the integral of the rest, f(start) (1 + (start +
    kappa_max) / (P - 1)), as f(n) / f(start) <= ((n + kappa_max) / (start +
    kappa_max))^(-P) for n >= start.  It holds where no float does."""
    acc = 0.0
    for p, k in factors:
        acc += p * math.log(start + k)
    return math.log1p((start + max(k for _, k in factors)) / (total - 1.0)) - acc


def _scaling_error(scale_log: float, x: float) -> float:
    """A bound on the relative error of ``_scaled(scale_log, x)``, x > 0: the
    logarithm and the exponential are each within an ulp and the sum rounds
    once, so the exponent errs by u (|scale_log| + 3 |log x|) and the result
    by that plus 2u, while that is small."""
    return _U * (3.0 + abs(scale_log) + 4.0 * abs(math.log(x)))


def _estimate_error(scale_log: float, value: float, err: float, scaled: float) -> float:
    """A bound on the distance of the estimate, scaled = ``_scaled(scale_log,
    value)``, from the scaled tail, given |value - tail| <= err: its own
    rounding and err, scaled alike.  Below the normal range the scaling keeps
    no relative accuracy, and the bound is on both: twice the scaled value +
    err, its exponent raised by its own error, plus ``_TINY``."""
    if scaled >= sys.float_info.min:
        return scaled * (_scaling_error(scale_log, value) + err / value)
    reach = value + err
    return 2.0 * _exp(scale_log + math.log(reach) + _scaling_error(scale_log, reach)) + _TINY


def _addition_error(x: float, y: float) -> float:
    """|x + y - fl(x + y)|, exactly: Knuth's TwoSum."""
    total = x + y
    back = total - x
    return abs((x - (total - back)) + (y - back))


#: The kept prefix of a ``Series`` holds at most this many log-dimensions,
#: and a longer head reads the rest in blocks of this many.
_HEAD_BLOCK = 1024


def _log_dims(factors: list[tuple[float, float]], lo: int, hi: int) -> list[float]:
    """l_m = sum_j xi_j log(m + kappa_j), m = lo..hi-1, over the (xi_j,
    kappa_j) of ``factors``, the sum over j from left to right: one list per
    factor, then the sums.  The rank-one twin of ``LinearFactors.log_dims``."""
    columns = [[xi * math.log(m + k) for m in range(lo, hi)] for xi, k in factors]
    return list(map(sum, zip(*columns)))


class Series:
    """The parts of a rank-one series sum_{n >= 1} exp(-s log c) prod_j (n +
    kappa_j)^(-s xi_j) that do not depend on s (``_sum_with_tail``): the
    factors (xi_j, kappa_j), log c, the moments of ``tail_moments`` at s = 1
    and a prefix of the log-dimensions l_m of ``_log_dims``, m = 1, 2, ...;
    the n-th term is exp(-s log c - s l_n).

    The prefix starts empty.  When a head past it is asked for, it grows to
    the larger of that head and twice its length, never past
    ``_HEAD_BLOCK`` terms; a longer head reads the rest block by block and
    keeps none of it.  A call reads one stored prefix throughout, so calls
    that grow it at once still get the right values; the last one stored
    is kept.  A compiled rank-one table keeps one (``zeta._series``);
    ``pi_series`` and ``gen_series_direct`` build one per call.
    """

    def __init__(self, kappas: list[float], xis: list[float], log_c: float = 0.0):
        self.factors = list(zip(xis, kappas))
        self.log_c = log_c
        self.moments = tail_moments(kappas, xis)
        self.logs = []

    def prefix(self, head: int) -> list[float]:
        """The kept log-dimensions, grown to hold at least min(head, _HEAD_BLOCK)."""
        logs = self.logs
        if len(logs) < min(head, _HEAD_BLOCK):
            size = min(max(head, 2 * len(logs)), _HEAD_BLOCK)
            logs = logs + _log_dims(self.factors, len(logs) + 1, size + 1)
            self.logs = logs
        return logs

    def log_dims(self, head: int):
        """l_1, ..., l_head in blocks: the kept prefix's, then ``_log_dims``'s."""
        yield self.prefix(head)[:head]
        for lo in range(_HEAD_BLOCK + 1, head + 1, _HEAD_BLOCK):
            yield _log_dims(self.factors, lo, min(lo + _HEAD_BLOCK, head + 1))

    def power(self, s: float) -> tuple[float, float, tuple]:
        """(P, scale_log, moments) of the series to the power s, whose n-th
        term is exp(scale_log - s l_n): P = s sum xi_j, scale_log = -s log c
        and the moments of ``tail_moments`` with V scaled by s."""
        total, kbar, spread, v, least = self.moments
        return s * total, -s * self.log_c, (s * total, kbar, spread, s * v, least)

    def tail(self, s: float, start: int, whole: bool) -> float:
        """A bound on the tail from n = start of the series to the power s, in
        logs and never 0 (``_up``): the whole tail (``whole_tail``) where
        ``whole`` is true and that is a float, else the first term plus the
        integral of the rest (``log_first_order``)."""
        total, scale_log, moments = self.power(s)
        value = whole_tail(*moments)(start) if whole else math.nan
        log = math.log(value) if value >= sys.float_info.min else log_first_order(
            [(s * xi, k) for xi, k in self.factors], total, start)
        return _up(_exp(scale_log + log))


def _head_error(scale_log: float, s: float, first: float, total: float, count: int,
                log_span: float):
    """(head_sum, tiny) -> a bound on the distance of head_sum, the fsum of
    a head's terms t_m = exp(y_m), y_m = scale_log - s l_m (``Series``), from
    their exact sum, where ``tiny`` of the terms are below the normal range;
    ``count`` factors of total power P = s sum xi_j, log_span >= |log(m +
    kappa_j)| for every m of the head and every j, and first = l_1.

    In l_m each shift, product and partial sum rounds once and each
    logarithm is within an ulp, and s l_m and y_m round once more each, so
    y_m errs by at most E = (J + 4) Y u, Y = |scale_log| + P (1 + log_span),
    one more rounding than a term exp(scale_log - sum_j s xi_j log(m +
    kappa_j)) made at once.  A term in the normal range is then within rho = 1.02
    (E + 2u) of its value, exp adding an ulp, while rho <= 2^-10, and the
    fsum rounds once: u + rho of head_sum.  A term below the normal range
    also loses up to ``_TINY`` to rounding, and the fsum up to half that:
    2 ``_TINY`` each.  Past rho = 2^-10 the bound holds only a head of
    zeros whose largest term, the first, is below ``_TINY`` even with E
    added to its exponent: 2 ``_TINY`` a term; else it is inf.
    """
    # u inside the sum keeps E finite at s up to the float range
    exponent = (count + 4) * (_U * abs(scale_log) + _U * total * (1.0 + log_span))
    rho = 1.02 * (exponent + 2.0 * _U)
    rel = _U + rho if rho <= 2.0 ** -10 else math.inf
    zeros = scale_log - s * first + exponent <= -745.0     # exp(-745) < 2^-1074

    def error(head_sum: float, tiny: int) -> float:
        if rel < math.inf:
            return rel * head_sum + 2.0 * _TINY * tiny
        return 2.0 * _TINY * tiny if head_sum == 0.0 and zeros else math.inf

    return error


def _series_tail(series: Series, s: float, cap: int):
    """(head -> (a, bound, search bound), error) for the series of
    ``_sum_with_tail`` after n = head <= cap: the pinned argument of its
    estimate (None when the estimate is 0), the scaled bound on the tail's
    distance from that estimate, and what the head search reads, that bound
    plus the evaluation's error as bounded before the evaluation: the
    estimate's (``_estimate_error`` at an upper bound on zeta(P, a), with
    ``specfun.hurwitz_zeta_error``), the head's (``_head_error``, at a head
    sum of ``top``, which bounds the sum, every term below the normal range)
    and the addition's; error is the head's error (``_head_error``).
    Without the rounding in the search, a bound that the bisection leaves
    just below the tolerance can miss it once the rounding is added:
    ``zeta_type_I("S:6", 0.25, 1e-10)`` would end unconverged at 45,961
    terms with the bound 1.0009e-10.

    Where ``moment_tail`` has no float bound (NaN) the tail is bounded in
    logs (``Series.tail``).  That bound at start = 1 is ``top``.  A
    bound on a positive tail never reads 0 (``_up``).
    """
    total, scale_log, moments = series.power(s)
    tails, least = moment_tail(*moments), moments[4]
    most = max(k for _, k in series.factors)
    first = series.prefix(min(16, cap))[0]      # every head has at least so many terms
    top = _exp(scale_log - s * first + math.log1p((1.0 + most) / (total - 1.0)))
    error = _head_error(scale_log, s, first, total, len(series.factors), max(
        abs(math.log(1.0 + least)), abs(math.log(cap + most))))
    known = {}

    def tail(head: int) -> tuple[float | None, float, float]:
        if head not in known:
            a, bound = tails(head + 1)
            # zeta(P, a) <= a^-P + a^(1-P) / (P - 1), the first term plus the
            # integral of the rest: loose, but it only sizes the estimate's error
            upper = 0.0 if a is None else a ** -total + a ** (1.0 - total) / (total - 1.0)
            if not upper >= sys.float_info.min and a is not None:
                upper = math.nan
            err = error(top, head) + _U * top if top else error(0.0, head)
            if not (bound >= 0.0 and upper >= 0.0):     # a NaN: no float bound
                a, bound = None, series.tail(s, head + 1, False)
            else:
                if a is not None:
                    err += _estimate_error(scale_log, upper, hurwitz_zeta_error(total, a, upper),
                                           _scaled(scale_log, upper))
                bound = _up(_scaled(scale_log, bound)) if bound > 0.0 else 0.0
            known[head] = a, bound, bound + err
        return known[head]

    return tail, error


def _sum_with_tail(series: Series, s: float, tolerance: float) -> EvalResult:
    """sum_{n >= 1} exp(-s log c - s l_n) of a ``Series``, certified; the
    bound covers the float returned.

    The head n = 1..h is fixed before any term is summed.  Heads of 16, 32,
    64, ... terms, the last one the cap, are tried until the search bound
    of ``_series_tail`` after one, the tail's bound plus the evaluation's
    error bounded beforehand, meets the goal: the tolerance or, when the
    cap's head misses it, twice the cap's bound.  The last doubling step is
    then bisected until it is under 16 terms wide.  A tried head costs a
    few pow calls.  The head's terms are exp(-s log c - s l_m) over the
    series' log-dimensions (``Series.log_dims``), one exactly rounded fsum;
    on the pinned branch the value adds the tail's estimate,
    ``hurwitz_zeta_certified(P, a)`` scaled, the one full-precision
    evaluation.  The bound is the tail's bound plus that estimate's error
    (``_estimate_error``), the head's (``_head_error``) and the exact error
    of the addition.  A head term past the float range is a ``DomainError``.
    """
    total, scale_log, _ = series.power(s)
    if not (math.isfinite(total) and math.isfinite(scale_log)):
        raise DomainError("series powers and scale must be finite")
    if total <= 1.0:
        raise DivergenceError("series diverges: total exponent <= 1")
    _check_tolerance(tolerance)
    cap = term_cap()
    tail, error = _series_tail(series, s, cap)

    def bound(head):
        return tail(head)[2]

    heads = [min(16, cap)]
    while not bound(heads[-1]) <= tolerance and heads[-1] < cap:
        heads.append(min(2 * heads[-1], cap))
    goal = _goal(bound(heads[-1]), tolerance)
    i = next((i for i, h in enumerate(heads) if bound(h) <= goal), len(heads) - 1)
    low, head = heads[max(i - 1, 0)], heads[i]
    while head - low >= 16:
        mid = (low + head) // 2
        low, head = (low, mid) if bound(mid) <= goal else (mid, head)
    tiny = 0

    def blocks():
        """The head's terms block by block, so that fsum holds one block at a time."""
        nonlocal tiny
        exp = math.exp
        for logs in series.log_dims(head):
            try:
                terms = [exp(scale_log - s * y) for y in logs]
            except OverflowError:   # 1 + kappa_j - T_j near 0 in many factors
                raise DomainError("a series term is past the float range") from None
            # the terms fall with m, so only a block ending below twice the
            # least normal float holds terms below it
            if terms[-1] < 2.0 * sys.float_info.min:
                tiny += sum(t < sys.float_info.min for t in terms)
            yield terms

    head_sum = math.fsum(chain.from_iterable(blocks()))
    a, tail_bound, _ = tail(head)
    estimate = 0.0
    if a is not None:
        value, err = hurwitz_zeta_certified(total, a)
        estimate = _scaled(scale_log, value)
        tail_bound += _estimate_error(scale_log, value, err, estimate)
    value = head_sum + estimate
    tail_bound += error(head_sum, tiny) + _addition_error(head_sum, estimate)
    return EvalResult(value=value, tail_bound=tail_bound, terms_used=head,
                      converged=tail_bound <= tolerance)


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
    return _sum_with_tail(Series(kappas, powers), 1.0, tolerance)


def gen_series_direct(kappa: list[Q | float], t_point: list[float],
                      tolerance: float = 1e-12) -> EvalResult:
    """sum_{n>=1} prod_j (n + kappa_j - T_j)^(-1) by direct summation."""
    shifts = _point_shifts(kappa, t_point)
    return _sum_with_tail(Series(shifts, [1.0] * len(shifts)), 1.0, tolerance)


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
