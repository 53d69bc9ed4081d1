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

At genus 1 the summand is e^{-A x.G.x} alone, with no factor to vanish on
the walls, so the sum over the regular points of Z^r is taken apart by
Moebius inversion over the flats of the coroot hyperplanes (Orlik and
Solomon, Invent. Math. 56, 1980): each flat's points form a lattice, whose
Gaussian sum Poisson summation gives exactly.  The flats fall into Weyl
orbits, each holding a coordinate flat F_J (``_flat_classes``), and
``torus_sum`` sums one theta series per orbit.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction as Q
from operator import mul
from typing import NamedTuple

from . import dims, genseries, rootdata
from .result import EvalResult

#: pi to 50 digits, for the constant of Z0, rounded once
_PI = Q("3.14159265358979323846264338327950288419716939937510")
_PI2 = math.pi ** 2
_LOG_PI = math.log(math.pi)
_U = 2.0 ** -53
#: the fraction bits of the fixed point in which ``torus_sum`` adds its terms
_BITS = 128
_ONE = 1 << _BITS
#: the largest float, as an integer
_FLOAT_MAX = int(sys.float_info.max)
#: the most shells of width A / pi^2 the bound's remainder sums one by one
_SHELLS = 64


def degrees(heights) -> list[int]:
    """The degrees of the Weyl group, ascending, of a root system whose
    positive coroots have these heights: one plus each part of the
    partition dual to the counts of coroots of each height."""
    counts = Counter(heights)
    return [1 + sum(1 for n in counts.values() if n >= i) for i in range(counts[1], 0, -1)]


def _root(square: Q) -> float:
    """The square root of a positive Fraction, from its integer square root
    to 70 bits, rounded once."""
    bits = max(0, 70 + (square.denominator.bit_length() - square.numerator.bit_length()) // 2)
    return float(Q(math.isqrt((square.numerator << 2 * bits) // square.denominator), 1 << bits))


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


def _dual_form(gram) -> tuple[list[list[int]], int, Q]:
    """The dual of the lattice Z^r with the positive definite Gram matrix
    G: its form scale G^-1 as an integer matrix, with the least such
    scale; that scale, and det G."""
    inverse, det = rootdata.inverse(gram)
    scale = math.lcm(*(v.denominator for row in inverse for v in row))
    return [[int(v * scale) for v in row] for row in inverse], scale, det


def _shells(form) -> tuple[int, list[tuple[int, ...]]]:
    """The least nonzero norm l1 of an integer form, and every k != 0 of norm
    at most 2 l1, one of each pair +-k (``_short_vectors``): from one
    enumeration up to twice the least diagonal entry, which l1 is at most."""
    found = [(_norm(form, v), v) for v in
             _short_vectors(form, 2 * min(row[i] for i, row in enumerate(form)))]
    least = min(norm for norm, _ in found)
    return least, [v for norm, v in found if norm <= 2 * least]


def _rho2(form, scale: int, lin) -> float:
    """|rho|^2 = rho.G.rho, rounded once: G rho = lin / 2, so it is
    lin.G^-1.lin / 4."""
    return float(Q(_norm(form, lin), 4 * scale))


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
    form, scale, det = _dual_form(table.gram)                       # form = scale G^-1
    least, vectors = _shells(form)
    columns = list(zip(*table.pairing))
    simple = [col for c, col in zip(table.shifts, columns) if c == 1]
    norms = [Q(_norm(form, col), scale) for col in columns]
    degs = degrees(table.shifts)
    order = math.prod(degs)
    # the constant of Z0, prod_i d_i! prod_j |a_j|^2 pi^{r/2} / (4^N |W|
    # sqrt(det G) prod_j c_j^2), from its exact square to 70 bits, rounded once
    square = (math.prod(map(math.factorial, degs)) * math.prod(norms) / (
        4 ** n_roots * order * math.prod(table.shifts) ** 2)) ** 2 / det * _PI ** r
    mu = math.exp((math.lgamma(2 * n_roots + 1) - n_roots * math.log(2.0)
                   - math.lgamma(n_roots + 1)) / n_roots)
    classes, half = Counter(), [mu * float(a) / 2.0 for a in norms]
    for v in vectors:
        u = [sum(map(mul, row, v)) for row in form]                 # scale G^-1 k
        at_simple = [sum(map(mul, col, u)) for col in simple]
        if min(at_simple) < 0 < max(at_simple):     # neither k nor -k is dominant
            continue
        pairings = [abs(sum(map(mul, col, u))) for col in columns]
        fixed = [c for c, p in zip(table.shifts, pairings) if p == 0]
        pairs = Counter(zip(half, (p * p for p in pairings)))
        classes[sum(map(mul, u, v)), tuple(sorted(pairs.items()))] += \
            order // math.prod(degrees(fixed))
    return _DualParts(
        rank=r, roots=n_roots, rho2=_rho2(form, scale, table.lin),
        value_scale=_root(square),
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


def _dominant(roots, v) -> tuple[int, ...]:
    """The dominant vector of the Weyl orbit of v, over the fundamental
    weights: while a coordinate, the pairing with a simple coroot, is
    negative, reflect in that simple root.  ``roots[i]`` holds the nonzero
    coordinates (a, <alpha_i, alpha_a^v>) of alpha_i, which are i and its
    neighbours in the Dynkin diagram."""
    v = list(v)
    while True:
        for i, x in enumerate(v):
            if x < 0:
                for a, c in roots[i]:
                    v[a] -= x * c
                break
        else:
            return tuple(v)


def _images(form, subset) -> list[tuple[int, ...]]:
    """Every tuple (sigma(j) for j in subset) of distinct simple coroots
    that keeps their inner products, form[sigma(a)][sigma(b)] =
    form[a][b]: what a w in W with w alpha_j = alpha_sigma(j) must do."""
    found = [()]
    for p, j in enumerate(subset):
        found = [tau + (s,) for tau in found for s in range(len(form))
                 if s not in tau and form[s][s] == form[j][j]
                 and all(form[s][t] == form[j][i] for i, t in zip(subset, tau))]
    return found


def _flat_classes(table) -> list[tuple[tuple[int, ...], Q]]:
    """The Weyl orbits of the flats of the coroot hyperplanes, each as (J,
    w): J the first subset of the simple roots, in the order of their bit
    masks, whose flat F_J = {x_j = 0, j in J} lies in the orbit, and w the
    sum over the subsets J' of the orbit of

        w_J' = mu_J' / (|W_J'| |W_J'^perp| M_J'),

    so that sum_J w_J sum_{x in Z^{S-J}} e^{-A x.G.x} is 1/|W| times the
    sum over the regular x of Z^r.

    Every flat is W-conjugate to some F_J, whose pointwise stabiliser is the
    parabolic W_J, and mu_J = (-1)^|J| prod_i (d_i - 1) over the degrees of
    W_J (Orlik and Solomon, Invent. Math. 56, 1980).  v_J = sum_p 8^p
    alpha_{j_p} has base-8 digits <alpha_j, beta^v> in [-3, 3] at every
    coroot beta^v, so w fixes v_J only if it fixes every alpha_j: its
    stabiliser W_J^perp is the standard parabolic at the zero coordinates
    of its dominant vector (Chevalley), and v_sigma(J) lies in the orbit of
    v_J exactly when some w maps each alpha_j to alpha_sigma(j).  M_J counts
    those sigma; as the normaliser of W_J is W_J times the w that map J
    onto itself, and those modulo W_J^perp permute J as the sigma of one
    image do, the J' of the orbit, the images sigma(J), then share
    1 / |N_W(W_J)|, which is |F_J's orbit| / |W|, with no normaliser built.
    """
    r = len(table.lin)
    form = _dual_form(table.gram)[0]        # a multiple of the simple coroots' Gram matrix
    # alpha_i over the fundamental weights: <alpha_i, alpha_a^v> = 2 (G^-1)_ai / (G^-1)_ii
    roots = [[(a, 2 * form[a][i] // form[i][i]) for a in range(r) if form[a][i]]
             for i in range(r)]
    supports = [sum(1 << i for i, v in enumerate(col) if v) for col in zip(*table.pairing)]

    def orbit_code(tau):
        v = [0] * r
        for p, t in enumerate(tau):
            for a, c in roots[t]:
                v[a] += c << 3 * p
        return _dominant(roots, v)

    classes, seen = [], set()
    for mask in range(1 << r):
        subset = tuple(i for i in range(r) if mask >> i & 1)
        if subset in seen:
            continue
        code = orbit_code(subset)
        images = [tau for tau in _images(form, subset) if orbit_code(tau) == code]
        orbit = {tuple(sorted(tau)) for tau in images}
        seen |= orbit
        # the coroots supported on J, and those orthogonal to v_J's dominant
        # vector: as it and the coroots are >= 0, those supported on its zeros
        degs = degrees([c for c, support in zip(table.shifts, supports) if not support & ~mask])
        zeros = sum(1 << i for i, v in enumerate(code) if not v)
        perp = degrees([c for c, support in zip(table.shifts, supports) if not support & ~zeros])
        classes.append((subset, Q((-1) ** len(subset) * math.prod(d - 1 for d in degs)
                                  * len(orbit),
                                  math.prod(degs) * math.prod(perp) * len(images))))
    return classes


class _Flat(NamedTuple):
    """One Weyl orbit of flats F_J in ``_FlatsParts``: the theta series of
    the lattice Z^{S-J} of F_J, with what its Poisson dual needs.  It is
    a dual sum with no root factors (roots 0), so ``_remainder`` bounds its
    terms past the shells as it does those of ``_DualParts``."""

    rank: int               # d = |S-J|
    roots: int              # 0: no root factors
    mu: float               # unused with no root factors
    log_norms: float        # 0.0: no root factors
    fixed: int              # K = w / sqrt(det G_{S-J}), w summed over the orbit,
                            # as floor(|K| 2^_BITS) with the sign of w
    scale: float            # |K|, rounded once
    log_scale: float        # log |K|
    least: float            # l1, the least nonzero norm k.G_{S-J}^-1.k; inf at d = 0
    reach: float            # the least norm a k past the shells can have
    shells: tuple           # (norm, number of k of that norm), norms up to 2 l1


class _FlatsParts(NamedTuple):
    """What the genus-1 type II heat sum needs of its table alone, built
    once per table (``_flats_parts``, by ``table.part``)."""

    rho2: float             # |rho|^2
    flats: tuple            # the orbits, _Flat, J = {} (d = r) first
    vectors: int            # k = 0 and the k of the shells, of every orbit


def _flats_parts(table) -> _FlatsParts:
    """For every Weyl orbit of flats (``_flat_classes``): its weight over
    sqrt(det G_{S-J}), from the exact square, and the shells of the dual of
    Z^{S-J}, the k with k.G_{S-J}^-1.k up to twice the least norm, counted
    with -k."""
    r = len(table.lin)
    flats, vectors_read = [], 0
    for subset, weight in _flat_classes(table):
        keep = [i for i in range(r) if i not in subset]
        form, scale, det = (_dual_form([[table.gram[i][j] for j in keep] for i in keep])
                            if keep else ([], 1, Q(1)))
        square = weight * weight / det
        fixed = math.isqrt((square.numerator << 2 * _BITS) // square.denominator)
        least, vectors = _shells(form) if keep else (math.inf, [])
        norms = Counter(_norm(form, v) for v in vectors)
        vectors_read += 1 + 2 * len(vectors)
        if not subset:              # J = {}: form = scale G^-1
            rho2 = _rho2(form, scale, table.lin)
        flats.append(_Flat(rank=len(keep), roots=0, mu=0.0, log_norms=0.0,
                           fixed=fixed if weight > 0 else -fixed, scale=_root(square),
                           log_scale=math.log(_root(square)),
                           least=least / scale, reach=(2 * least + 1) / scale,
                           shells=tuple((norm / scale, 2 * count)
                                        for norm, count in sorted(norms.items()))))
    return _FlatsParts(rho2=rho2, flats=tuple(flats), vectors=vectors_read)


def _fixed(x: float) -> int:
    """floor(x 2^_BITS), exactly, for a finite x >= 0: from the float
    x 2^_BITS, or, past the float range, from the ratio x is."""
    try:
        return int(math.ldexp(x, _BITS))
    except OverflowError:
        numerator, denominator = x.as_integer_ratio()
        return (numerator << _BITS) // denominator


def _float(fixed: int) -> float:
    """fixed 2^-_BITS rounded once, inf past the float range."""
    try:
        return fixed / _ONE
    except OverflowError:
        return math.copysign(math.inf, fixed)


def torus_sum(table, area: float, tolerance: float) -> EvalResult | None:
    """The genus-1 type II heat sum of a group's table at area > 0 in
    closed form over the Weyl orbits of flats, or None as soon as its bound
    passes the tolerance.

    Z1 = e^{A |rho|^2} sum_J w_J theta_J(A), and by Poisson, with d = |S-J|,

        theta_J(A) = (pi/A)^{d/2} det(G_{S-J})^{-1/2}
                     sum_{k in Z^d} e^{-pi^2 k.G_{S-J}^-1.k / A}.

    The k of each orbit's shells are summed term by term, so Z1 = e^{A
    |rho|^2} sum_d a_d y^d, y = sqrt(pi/A), with a_d the sum over the orbits
    of dimension d of K (1 + their shells).  The terms cancel, by orders of
    magnitude where the area is not small, so the sum is taken in fixed
    point of _BITS fraction bits, in integers, by Horner's rule, with
    integer bounds on its error: each floor errs by one unit, y by one unit
    and the relative error of ``_PI``, a shell sum by u (1 + 4 S + 3 sum of
    its terms times their exponents), u = 2^-53, and e^{A |rho|^2} = 1 +
    ``math.expm1`` by 2u of that plus what the rounding of A |rho|^2 moves
    it by.  The bound is what lies past the shells (``_remainder``), that
    error, and half an ulp of the float returned.  A value past the float
    range by more than that error is inf with bound inf, not converged.
    ``terms_used`` counts the dual vectors read: k = 0 and the shells', of
    every orbit.
    """
    genseries._check_tolerance(tolerance)
    parts = table.part(_flats_parts)
    growth, log_ratio = area * parts.rho2, _LOG_PI - math.log(area)   # A |rho|^2, log(pi / A)
    if growth > dims._LOG_MAX:
        return None
    bound = 0.0
    for flat in parts.flats:
        if flat.rank:
            log_base = growth + flat.log_scale + flat.rank / 2 * log_ratio
            bound += _remainder(flat, area, log_base, tolerance - bound)
            if bound > tolerance:
                return None
    rank = parts.flats[0].rank
    coeffs, errors = [0] * (rank + 1), [0.0] * (rank + 1)
    for flat in parts.flats:
        total = weighted = 0.0          # the shells: sum of count e^{-a}, and of its terms times a
        for norm, count in flat.shells:
            a = _PI2 * norm / area
            term = count * math.exp(-a)
            if not term:
                break
            total, weighted = total + term, weighted + term * a
        # the spare u covers shell terms below the normal range
        coeffs[flat.rank] += flat.fixed * (_ONE + _fixed(total)) >> _BITS
        errors[flat.rank] += flat.scale * _U * (1.0 + 4.0 * total + 3.0 * weighted)
    # in units of 2^-_BITS, y = sqrt(pi/A) less at most one unit and y 2^-160
    numerator, denominator = area.as_integer_ratio()
    root = math.isqrt((_PI.numerator * denominator << 2 * _BITS)
                      // (_PI.denominator * numerator))
    shift = 2 + (root >> 160)
    value, error = 0, 0
    for d in range(rank, -1, -1):
        # floors count 1 each, and the coefficients' floors one per orbit
        error = ((error * (root + 1) + abs(value) * shift) >> _BITS) + 2 * len(parts.flats) \
            + 2 + _fixed(errors[d])
        value = (value * root >> _BITS) + coeffs[d]
    growth_m1 = math.expm1(growth)
    scale = _ONE + _fixed(growth_m1)
    scale_error = 2 + _fixed(2.0 * _U * growth_m1 + 2.02 * _U * growth * (1.0 + growth_m1))
    error = ((scale_error * abs(value) + (scale + scale_error) * error) >> _BITS) + 2
    value = scale * value >> _BITS
    if value - error > _FLOAT_MAX << _BITS:
        return EvalResult(value=math.inf, tail_bound=math.inf, terms_used=parts.vectors,
                          converged=False)
    result = _float(value)
    bound += _float(error) * (1.0 + 4.0 * _U) + math.ulp(result) / 2.0
    if not bound <= tolerance:
        return None
    return EvalResult(value=result, tail_bound=bound, terms_used=parts.vectors, converged=True)


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
