"""Type II heat sums on the sphere by Poisson duality.

At genus 0 a type II sum is Z(A) = sum_n d(n)^2 q^{c2(n)} over the dominant
weights n of a group's compiled table (``dims.compile_group``), q = e^-A.
With x = n + rho in the table's coordinates, rho = G^-1 lin / 2, the
dimension is d(n) = prod_j (L_j.x) / c_j and the Casimir c2(n) = x.G.x -
|rho|^2.  The summand prod_j (L_j.x)^2 e^{-A x.G.x} is invariant under the
Weyl group W and vanishes on every wall.  The coordinates are over the
fundamental weights, so W keeps rho + Z^r and every regular point of it is
W-conjugate to exactly one x with n >= 0: Z is 1/|W| times the sum over
rho + Z^r.  Poisson summation turns that into a sum over the
dual lattice, k in Z^r.

Its k = 0 term is a Macdonald-Mehta integral (Macdonald 1982; Etingof
2010), in closed form:

    Z0 = e^{A |rho|^2} (2 pi)^{r/2} (2A)^{-r/2-N} prod_i d_i!
         prod_j (|a_j|^2 / 2) / (|W| sqrt(det G) prod_j c_j^2),

r the rank, N the number of positive roots, |a_j|^2 = L_j.G^-1.L_j the norm
of coroot j and d_i the degrees of W.  Shifting the contour of the k-th
term by i pi G^-1 k / A, then Hoelder's inequality over its N factors and
Minkowski's inequality, bound it by

    e^{A |rho|^2 - pi^2 k.G^-1.k / A} (pi/A)^{r/2} det(G)^{-1/2} / |W|
    prod_j (mu_N |a_j|^2 / (2A) + (pi L_j.G^-1.k / A)^2) / c_j^2,

with mu_N = ((2N - 1)!!)^{1/N}.  The tail bound is their sum over k != 0:
term by term over the shells of norm k.G^-1.k up to twice the least norm
l1, and past them, in shells of width A / pi^2, from the packing count
#{k : k.G^-1.k <= t} <= (1 + 2 sqrt(t / l1))^r and from (L_j.G^-1.k)^2 <=
|a_j|^2 k.G^-1.k.  It falls like e^{-pi^2 l1 / A}, so the dual is short
where the direct sum over the simplex is long.

The degrees come from the table alone: c_j is the height of coroot j, and
the exponents d_i - 1 are the parts of the partition dual to the counts of
coroots of each height (Kostant).  What a table needs is built once, in
integers and Fractions (``_dual_parts``), and kept on the table
(``dims.LinearFactors.part``); a sum then takes a few logarithms per class
of equal terms.  Nothing here needs numpy.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as Q
from operator import mul
from typing import NamedTuple

from . import genseries, rootdata
from .result import EvalResult

#: pi to 50 digits, for the constant of Z0, rounded once
_PI = Q("3.14159265358979323846264338327950288419716939937510")
_PI2 = math.pi ** 2
#: the most shells of width A / pi^2 the bound's remainder sums one by one
_SHELLS = 64


def degrees(heights) -> list[int]:
    """The degrees of the Weyl group, ascending, of a root system whose
    positive coroots have these heights: one plus each part of the
    partition dual to the counts of coroots of each height."""
    counts = Counter(heights)
    return [1 + sum(1 for n in counts.values() if n >= i) for i in range(counts[1], 0, -1)]


def _norm(form, v) -> int:
    """v.form.v, in integers."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(v, form))


def _short_vectors(form, bound: int) -> list[tuple[int, ...]]:
    """Every k != 0 in Z^r with k.form.k <= bound, one of each pair +-k, for
    a positive definite integer matrix ``form`` (Fincke and Pohst, Math.
    Comp. 44, 1985).

    k.form.k = sum_i q_i (k_i + sum_{j>i} m_ij k_j)^2, so once the
    coordinates above i are fixed, k_i runs over an interval about a centre.
    The intervals are widened against rounding and every vector found is
    checked in integers.  Of +-k the one kept has its last nonzero
    coordinate positive.
    """
    r = len(form)
    a = [[Q(v) for v in row] for row in form]
    for i in range(r):          # then a[i][i] = q_i and a[i][j] = m_ij, j > i
        for j in range(i + 1, r):
            a[j][i], a[i][j] = a[i][j], a[i][j] / a[i][i]
        for j in range(i + 1, r):
            for l in range(j, r):
                a[j][l] -= a[j][i] * a[i][l]
    q = [float(a[i][i]) for i in range(r)]
    m = [[float(v) for v in row] for row in a]
    found, k = [], [0] * r

    def level(i: int, left: float, zero_above: bool) -> None:
        centre = -sum(m[i][j] * k[j] for j in range(i + 1, r))
        width = math.sqrt(max(left, 0.0) / q[i]) + 1e-9
        for x in range(0 if zero_above else math.ceil(centre - width),
                       math.floor(centre + width) + 1):
            k[i] = x
            if i:
                level(i - 1, left - q[i] * (x - centre) ** 2, zero_above and x == 0)
            elif not (zero_above and x == 0):
                found.append(tuple(k))
        k[i] = 0

    level(r - 1, bound * (1.0 + 1e-9), True)
    return [v for v in found if _norm(form, v) <= bound]


class _DualParts(NamedTuple):
    """What the dual of a type II genus-0 heat sum needs of its table alone,
    built once per table (``_dual_parts``, by ``table.part``)."""

    rank: int
    roots: int              # N, the number of positive roots
    rho2: float             # |rho|^2
    value_scale: float      # Z0 = value_scale e^{A |rho|^2} A^{-r/2-N}
    log_scale: float        # log of pi^{r/2} / (|W| sqrt(det G) prod_j c_j^2)
    mu: float               # mu_N
    log_norms: float        # sum_j log |a_j|^2
    least: float            # l1, the least nonzero norm k.G^-1.k
    reach: float            # the least norm a k past the shells can have
    shells: tuple           # (norm, log count, ((mu |a_j|^2 / 2, (L_j.G^-1.k)^2, count), ...))
    vectors: int            # the number of k != 0 in the shells


def _dual_parts(table) -> _DualParts:
    """The constants of Z0 and of its bound, and the shells of the dual
    lattice up to twice the least norm, in classes of equal terms.

    Vectors k of one norm and one multiset of (|a_j|^2, (L_j.G^-1.k)^2)
    have the same bound at every area, and W keeps both, so each Weyl orbit
    is read off its dominant vector, the one whose pairings with the simple
    coroots (height 1) are all >= 0, and counted as |W| over the order of
    its stabiliser, the Weyl group of the coroots orthogonal to it
    (Chevalley).
    """
    r, n_roots = len(table.lin), len(table.shifts)
    inverse, det = rootdata.inverse(table.gram)
    scale = math.lcm(*(v.denominator for row in inverse for v in row))
    form = [[int(v * scale) for v in row] for row in inverse]      # scale G^-1
    columns = list(zip(*table.pairing))
    simple = [col for c, col in zip(table.shifts, columns) if c == 1]
    norms = [Q(_norm(form, col), scale) for col in columns]
    degs = degrees(table.shifts)
    order = math.prod(degs)
    # the constant of Z0, prod_i d_i! prod_j |a_j|^2 pi^{r/2} / (4^N |W|
    # sqrt(det G) prod_j c_j^2), from its exact square to 70 bits, rounded once
    square = (math.prod(map(math.factorial, degs)) * math.prod(norms) / (
        4 ** n_roots * order * math.prod(table.shifts) ** 2)) ** 2 / det * _PI ** r
    bits = max(0, 70 + (square.denominator.bit_length() - square.numerator.bit_length()) // 2)
    root = math.isqrt((square.numerator << 2 * bits) // square.denominator)
    mu = math.exp((math.lgamma(2 * n_roots + 1) - n_roots * math.log(2.0)
                   - math.lgamma(n_roots + 1)) / n_roots)
    least = min(_norm(form, v) for v in _short_vectors(form, min(form[i][i] for i in range(r))))
    classes, half = Counter(), [mu * float(a) / 2.0 for a in norms]
    for v in _short_vectors(form, 2 * least):
        u = [sum(map(mul, row, v)) for row in form]                 # scale G^-1 k
        at_simple = [sum(map(mul, col, u)) for col in simple]
        if min(at_simple) < 0 < max(at_simple):     # neither k nor -k is dominant
            continue
        pairings = [abs(sum(map(mul, col, u))) for col in columns]
        fixed = [c for c, p in zip(table.shifts, pairings) if p == 0]
        pairs = Counter(zip(half, (p * p for p in pairings)))
        classes[sum(map(mul, u, v)), tuple(sorted(pairs.items()))] += \
            order // math.prod(degrees(fixed))
    rho = [sum(map(mul, row, table.lin)) / 2 for row in inverse]
    return _DualParts(
        rank=r, roots=n_roots,
        rho2=float(sum(map(mul, rho, table.lin)) / 2),              # rho.G.rho, G rho = lin / 2
        value_scale=float(Q(root, 1 << bits)),
        log_scale=(r / 2 * math.log(math.pi) - math.log(order) - math.log(det) / 2
                   - 2 * math.fsum(map(math.log, table.shifts))),
        mu=mu, log_norms=math.fsum(map(math.log, norms)),
        least=least / scale, reach=(2 * least + 1) / scale,
        shells=tuple((norm / scale, math.log(count),
                      tuple((h, p2 / scale ** 2, c) for (h, p2), c in pairs))
                     for (norm, pairs), count in sorted(classes.items())),
        vectors=sum(classes.values()))


def _packing(parts: _DualParts, area: float, s: float) -> float:
    """log of what the remainder's shells up to norm s share: the count
    (1 + 2 sqrt(s / l1))^r and A^{2N} prod_j of the factors over |a_j|^2."""
    return (parts.roots * math.log(parts.mu * area / 2.0 + _PI2 * s)
            + parts.rank * math.log1p(2.0 * math.sqrt(s / parts.least)))


def _remainder(parts: _DualParts, area: float, log_base: float, budget: float) -> float:
    """The bound's part past the shells, or inf once it passes ``budget``.

    Shell m of width A / pi^2 from the reach holds at most the packing count
    at its top, each term at most its Gaussian at the bottom times its
    factors at the top.  The ratio of two shells falls with m, so once it is
    below one the rest is geometric; past ``_SHELLS`` shells it is inf.
    """
    step, log_head = area / _PI2, log_base + parts.log_norms - _PI2 * parts.reach / area
    total, top = 0.0, _packing(parts, area, parts.reach + step)
    for m in range(_SHELLS):
        above = _packing(parts, area, parts.reach + (m + 2) * step)
        log_ratio = above - top - 1.0
        if log_ratio < 0.0:
            return total + genseries._exp(log_head - m + top) / -math.expm1(log_ratio)
        total += genseries._exp(log_head - m + top)
        if total > budget:
            break
        top = above
    return math.inf


def _leading(parts: _DualParts, area: float) -> float:
    """Z0 = value_scale e^{A |rho|^2} A^{-r/2-N}, inf past the float range:
    A = m 2^e with e even, so A^{-p} = m^{-p} 2^{-e p} scales exactly."""
    mant, exp2 = math.frexp(area)
    if exp2 % 2:
        mant, exp2 = 2.0 * mant, exp2 - 1
    power = parts.rank / 2 + parts.roots
    try:
        return math.ldexp(parts.value_scale * math.exp(area * parts.rho2) * mant ** -power,
                          int(-exp2 * power))
    except OverflowError:
        return math.inf


def heat_sum(table, area: float, tolerance: float) -> EvalResult | None:
    """The genus-0 type II heat sum of a group's table at area > 0 from its
    dual: Z0 with its tail bound, or None as soon as that bound passes the
    tolerance.  A Z0 past the float range is inf with bound inf, not
    converged.  ``terms_used`` counts the dual vectors read one by one: k = 0
    and every k of the shells."""
    genseries._check_tolerance(tolerance)
    parts = table.part(_dual_parts)
    log_area = math.log(area)
    # the log of the constant of every term: e^{A |rho|^2} (pi/A)^{r/2} A^{-2N} / ...
    log_base = (area * parts.rho2 + parts.log_scale
                - (parts.rank / 2 + 2 * parts.roots) * log_area)
    bound = 0.0
    for norm, log_count, factors in parts.shells:
        # a factor under the float range is raised to it: still a bound
        bound += genseries._exp(log_base - _PI2 * norm / area + log_count + sum(
            c * math.log(max(h * area + _PI2 * v, 1e-300)) for h, v, c in factors))
        if bound > tolerance:
            return None
    bound += _remainder(parts, area, log_base, tolerance - bound)
    if bound > tolerance:
        return None
    value = _leading(parts, area)
    if not math.isfinite(value):    # Z0 past the float range: no certificate
        bound = math.inf
    return EvalResult(value=value, tail_bound=bound, terms_used=1 + parts.vectors,
                      converged=bound <= tolerance)
