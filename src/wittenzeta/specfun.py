"""Scalar special functions with explicit error control.

The Hurwitz/Riemann zeta evaluations use Euler-Maclaurin with Bernoulli
terms; because the derivatives of x^(-s) alternate in sign (it is
completely monotone), the remainder after a Bernoulli term has the sign of
the first omitted term and is at most that term (Olver, Asymptotics and
Special Functions, ch. 8).  ``hurwitz_zeta_certified`` returns a value to
full precision with a rigorous error bound; ``hurwitz_zeta_upper`` returns
only a certified upper bound, from a few terms and B_2, which is all a tail
bound needs.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, shown

EULER_GAMMA = 0.57721566490153286061

# B_2, B_4, ..., B_24 as exact rationals
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730),
)
_BERNOULLI_F = tuple(float(b) for b in _BERNOULLI)
# B_0, B_1, ..., B_25 as floats; the odd ones past B_1 vanish
_BERNOULLI_ALL = (1.0, -0.5) + tuple(v for b in _BERNOULLI_F for v in (b, 0.0))
# the Euler-Maclaurin coefficients B_2k / (2k)! of ``hurwitz_zeta_certified``,
# k = 1..8, and |B_18| / 18! of its first omitted term
_EM_COEFFS = tuple(_BERNOULLI_F[k - 1] / math.factorial(2 * k) for k in range(1, 9))
_EM_OMITTED = abs(_BERNOULLI_F[8]) / math.factorial(18)


def bernoulli_polynomial(n: int, x: float) -> float:
    """B_n(x) = sum_j C(n, j) B_j x^(n - j), for 0 <= n <= 25."""
    return math.fsum(math.comb(n, j) * _BERNOULLI_ALL[j] * x ** (n - j)
                     for j in range(n + 1))


def digamma(x: float) -> float:
    """psi(x) for x > 0, via recurrence shift plus the asymptotic series."""
    if not x > 0.0:     # written so that a NaN fails too
        raise DomainError(f"digamma requires x > 0, got {shown(x)}")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for k, b in enumerate(_BERNOULLI_F[:7], start=1):
        series += b / (2 * k) * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series


def _em_point(s: float, a: float) -> tuple[int, float]:
    """The shift and the point x = a + shift at which ``hurwitz_zeta_certified``
    takes Euler-Maclaurin."""
    shift = 0
    x = a
    while x < 16.0:
        shift += 1
        x += 1.0
    if s > 96.0:
        # the Euler-Maclaurin terms at x = 16 grow (s > 2 pi x): x moves on
        # until the first omitted term is at most 2^-53 a^(-s), which the
        # value exceeds
        limit = (math.log(_EM_OMITTED) + math.fsum(math.log(s + j) for j in range(17))
                 + 53.0 * math.log(2.0) + s * math.log(a))
        while (s + 17.0) * math.log(x) < limit:
            shift += 1
            x += 1.0
    return shift, x


def _check_hurwitz(s: float, a: float) -> None:
    if not 1.0 < s < math.inf:      # written so that a NaN fails too
        raise DomainError(f"hurwitz_zeta requires finite s > 1, got {shown(s)}")
    if not a > 0.0:
        raise DomainError(f"hurwitz_zeta requires a > 0, got {shown(a)}")


def hurwitz_zeta_certified(s: float, a: float) -> tuple[float, float]:
    """(value, rigorous absolute error bound) for sum_{n>=0} (n+a)^(-s)."""
    _check_hurwitz(s, a)
    shift, x = _em_point(s, a)
    try:
        partial = math.fsum([(n + a) ** (-s) for n in range(shift)]) if shift else 0.0
    except OverflowError:
        raise DomainError(f"hurwitz_zeta({shown(s)}, {shown(a)}) is past the float range"
                          ) from None
    value = partial + x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    factor = s
    xpow = x ** (-s - 1.0)
    inv2 = 1.0 / (x * x)
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        if xpow == 0.0:     # every term left is factor * 0, and factor may be inf
            break
        value += coeff * factor * xpow
        # advance (s)(s+1)...(s+2k) and x^(-s-2k-1)
        factor *= (s + 2 * k - 1) * (s + 2 * k)
        xpow *= inv2
    omitted = _EM_OMITTED * factor * xpow
    slop = 4e-16 * (abs(value) + x ** (-s)) * (shift + 4)
    return value, omitted + slop


def hurwitz_zeta_error(s: float, a: float, upper: float) -> float:
    """A bound, taken before the evaluation, on the error bound that
    ``hurwitz_zeta_certified(s, a)`` returns, given upper >= zeta(s, a).

    Its first omitted term is at most |B_18| / 18! ((s+16)/x)^17 x^(-s):
    (s+16)^17 exceeds s (s+1) ... (s+16) by over 136/(s+16) of it, which
    dwarfs the rounding of either side wherever x^(-s) > 0, as that needs
    s < 269 at x >= 16.  Its value is at most zeta(s, a) plus that term
    plus its rounding, which is below 2^-40 of it while the shift is below
    2,000, so the rounding allowance is taken at (upper + omitted)(1 +
    2^-40) and is at least the evaluation's."""
    _check_hurwitz(s, a)
    shift, x = _em_point(s, a)
    power = x ** (-s)
    omitted = _EM_OMITTED * ((s + 16.0) / x) ** 17 * power if power else 0.0
    return omitted + 4e-16 * ((upper + omitted) * (1.0 + 2.0 ** -40) + power) * (shift + 4)


#: The most explicit terms ``hurwitz_zeta_upper`` takes before its tail.
_UPPER_TERMS = 16


def hurwitz_zeta_upper(s: float, a: float) -> float:
    """A certified upper bound on zeta(s, a) = sum_{n>=0} (n+a)^(-s), s > 1,
    a > 0, from at most 16 explicit terms and Euler-Maclaurin through B_2;
    a result that is not a positive normal float bounds nothing.

    The terms run to x = a + m, m = ceil(1.1 (s+1) - a) clipped to [0, 16].
    At every x > 0 the remainder after the B_2 term has the sign of the
    first omitted one, -s(s+1)(s+2) x^(-s-3) / 720, so

        zeta(s, x) <= x^(1-s) / (s-1) + x^(-s) / 2 + s x^(-s-1) / 12,

    and the first term plus the integral of the rest gives zeta(s, x) <=
    x^(-s) + x^(1-s) / (s-1); the smaller of the two is taken, so a huge s
    needs no shift.  At x >= 1.1 (s+1) the B_2 form exceeds zeta(s, x) by
    less than (s-1) s (s+1) (s+2) / (720 x^4) < 1/1054 of it; when 16 terms
    stop short of that point, they hold all but a sliver of the sum.  The
    points a + n are floats: when a + m rounds, a moves down onto the grid of
    a + m past the first term, which only raises the bound.  Each pow is
    within an ulp and each other operation rounds once, so the sum of
    positive parts is within (m + 8) 2^-52 of its exact value; the result is
    rounded outward by 1 + 1e-15 (m + 8).  No loop grows with s.
    """
    _check_hurwitz(s, a)
    need = 1.1 * (s + 1.0) - a
    m = (0 if need <= 0.0 or a >= 2.0 ** 52
         else _UPPER_TERMS if need >= _UPPER_TERMS else math.ceil(need))
    total = 0.0
    if m:
        try:
            total = a ** -s
        except OverflowError:       # a < 1 and a^(-s) past the float range
            return math.inf
        if a + m - a != m or a + m - m != a:    # some a + n rounds
            grid = math.ldexp(1.0, math.frexp(a + m)[1] - 53)
            a = math.floor(a / grid) * grid
        for n in range(1, m):
            total += (a + n) ** -s
    x = a + m
    power = x ** -s
    # 1 - s is exact below 2^53; past it x^(1-s) is x times x^(-s)
    lead = x ** (1.0 - s) if s <= 2.0 ** 53 else power * x
    total += lead / (s - 1.0) + power * min(0.5 + s / (12.0 * x), 1.0)
    return total * (1.0 + 1e-15 * (m + 8))


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1."""
    if s <= 1.0:
        raise DomainError(f"riemann_zeta requires s > 1, got {shown(s)}")
    return hurwitz_zeta_certified(s, 1.0)[0]


def _legendre_pair(n: int, x: float) -> tuple[float, float]:
    """(P_{n-1}(x), P_n(x)) for n >= 1, by the three-term recurrence; at
    x = +-1 every step is exact, so P_n(+-1) = (+-1)^n comes out exactly."""
    prev, p = 1.0, x
    for k in range(1, n):
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    return prev, p


def legendre_p(n: int, x: float) -> float:
    """Legendre polynomial P_n(x)."""
    if n < 0:
        raise DomainError("legendre_p requires n >= 0")
    return _legendre_pair(n, x)[1] if n else 1.0


@lru_cache(maxsize=64)
def gauss_legendre_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights on [-1, 1]; exact for polynomials of degree < 2n.

    Newton on P_n from Tricomi's nodes (Hale and Townsend, SIAM J. Sci. Comput.
    35, 2013), one symmetric pair at a time; the weights are scaled to sum to 2."""
    if not 1 <= n <= 512:
        raise DomainError(f"quadrature order must be in [1, 512], got {shown(n)}")
    half = []       # (node, weight) on [0, 1), largest node first
    for k in range((n + 1) // 2):
        theta = math.pi * (4 * k + 3) / (4 * n + 2)
        x = (1 - (n - 1) / (8 * n ** 3)
             - (39 - 28 / math.sin(theta) ** 2) / (384 * n ** 4)) * math.cos(theta)
        step = 1.0
        while abs(step) >= 1e-16:   # at most 5 steps at every order in [1, 512]
            prev, p = _legendre_pair(n, x)
            gap = (1 - x) * (1 + x)
            slope = n * (prev - x * p)      # (1 - x^2) P_n'(x)
            step = p * gap / slope
            x -= step
        half.append((x, 2 * gap / slope ** 2))
    pairs = [(-x, w) for x, w in half[:n // 2]] + half[::-1]
    total = math.fsum(w for _, w in pairs)
    return tuple(x for x, _ in pairs), tuple(2 * w / total for _, w in pairs)


def legendre_table(nmax: int, x: tuple[float, ...]) -> list[list[float]]:
    """Rows 0..nmax of P_n evaluated at the points x."""
    table = [[1.0] * len(x), list(x)]
    for n in range(1, nmax):
        table.append([((2 * n + 1) * t * p - n * q) / (n + 1)
                      for t, p, q in zip(x, table[n], table[n - 1])])
    return table[:nmax + 1]
