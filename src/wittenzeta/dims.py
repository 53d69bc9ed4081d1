"""Class-one representation dimensions, two independent ways.

The exact path evaluates the per-root closed-form factors in rational
arithmetic.  The numeric path evaluates the gamma-quotient that defines
each factor, rewritten with the reflection and duplication formulas so all
log-gamma arguments stay positive; the trigonometric parts cancel exactly
for lattice pairings and only gamma ratios remain.  The two paths share
nothing beyond the pairing integers, so their agreement is a real check.

Float sums use a third form compiled from the per-root cases: each factor
expands into terms (p + c)/c linear in the root pairing p, with c > 0, so
a dimension is prod_j (L[:, j] . n + c_j)/c_j over an integer matrix L.
The Weyl dimension of a group has the same form.  The compiled table also
carries the Casimir c2(n) as a quadratic form over the same basis, and a
one-coordinate table its factored form c prod_k (n + kappa_k)^xi_k, the
kappas being the shifts over the pairings, for spaces and groups alike.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from operator import mul, truediv

from . import rootdata, weights
from .errors import InconsistentMultiplicities, NotRankOne, PoleError
from .specfun import bernoulli_polynomial, log_gamma

_LOG_MAX = 709.0


@dataclass(frozen=True)
class PerRootFactorParams:
    """Everything one restricted root contributes to the dimension product."""

    m: int
    m2: int
    rho: Q          # (rho_X, alpha)/(alpha, alpha)
    case: str       # "even" | "odd" | "A" | "B"
    l: int
    j: int
    r: int


def per_root_params(m: int, m2: int, rho: Q) -> PerRootFactorParams:
    if m < 0 or m2 < 0:
        raise InconsistentMultiplicities(f"negative multiplicity ({m}, {m2})")
    if rho <= 0:
        raise InconsistentMultiplicities(f"rho pairing must be positive, got {rho}")
    if m2 == 0:
        if m == 0:
            raise InconsistentMultiplicities("root with no multiplicity at all")
        if m % 2 == 0:
            return PerRootFactorParams(m, 0, rho, "even", m // 2, 0, m // 2)
        return PerRootFactorParams(m, 0, rho, "odd", (m - 1) // 2, 0, (m - 1) // 2)
    if m2 % 2 == 0 or m % 2 == 1:
        raise InconsistentMultiplicities(
            f"m2 must be odd and m even when m2 != 0, got ({m}, {m2})"
        )
    j = (m2 - 1) // 2
    if j not in (0, 1, 3):
        raise InconsistentMultiplicities(f"m2 = {m2} is outside the allowed cases")
    if m % 4 == 0:
        l = m // 4
        return PerRootFactorParams(m, m2, rho, "A", l, j, l + j)
    if m % 4 == 2:
        l = (m - 2) // 4
        return PerRootFactorParams(m, m2, rho, "B", l, j, l + j)
    raise InconsistentMultiplicities(f"no case applies to ({m}, {m2})")


def _half_square_product(y: Q, count: int) -> Q:
    """prod_{k=1..count} (y^2 - (k - 1/2)^2)."""
    acc = Q(1)
    y2 = y * y
    for k in range(1, count + 1):
        acc *= y2 - Q(2 * k - 1, 2) ** 2
    return acc


def _int_square_product(y: Q, count: int) -> Q:
    """prod_{k=1..count} (y^2 - k^2)."""
    acc = Q(1)
    y2 = y * y
    for k in range(1, count + 1):
        acc *= y2 - k * k
    return acc


def dim_factor(params: PerRootFactorParams, pairing: int) -> Q:
    """Exact per-root factor at integer pairing (lambda, alpha_0) = pairing."""
    if pairing < 0:
        raise InconsistentMultiplicities("pairing must be a nonnegative integer")
    rho = params.rho
    x = pairing + rho
    if params.case == "even":
        l = params.l
        return (x * x * _int_square_product(x, l - 1)) / (
            rho * rho * _int_square_product(rho, l - 1))
    if params.case == "odd":
        l = params.l
        return (x * _half_square_product(x, l)) / (rho * _half_square_product(rho, l))
    if pairing % 2:
        raise InconsistentMultiplicities(
            "pairing must be even on roots with m_2alpha != 0"
        )
    y, ybar = x / 2, rho / 2
    if params.case == "A":
        return (x / rho) \
            * (_half_square_product(y, params.l) / _half_square_product(ybar, params.l)) \
            * (_half_square_product(y, params.r) / _half_square_product(ybar, params.r))
    return (x / rho) ** 3 \
        * (_int_square_product(y, params.l) / _int_square_product(ybar, params.l)) \
        * (_int_square_product(y, params.r) / _int_square_product(ybar, params.r))


def _log_part(t: Q, scale: float, pairs: tuple[tuple[float, float], ...]) -> float:
    """log t + sum over (a, b) in ``pairs`` of lgamma(a + u) - lgamma(b + u),
    u = scale * t, for an exact t > 0.

    Once u is 1e3 times past every |a|, |b| (and past 1), the two log-gammas
    of a pair cancel to a few digits, so each difference is summed from its
    1/u series (Tricomi and Erdelyi, Pacific J. Math. 1, 1951), to seven terms:
    (a - b) log u + sum_k (-1)^(k+1) (B_{k+1}(a) - B_{k+1}(b)) / (k (k+1) u^k).
    The k-th term is of order |a| (|a|/u)^k, so the dropped tail is below
    1e-24 |a|; under that bound the lgamma difference loses at most
    u / |a - b| <= 1e3 ulps of its value.  There t may lie past the float
    range, so log t is taken from its numerator and denominator.
    """
    reach = 1e3 * max(1.0, *(abs(x) for pair in pairs for x in pair))
    if t < reach / scale:
        u, acc = scale * float(t), math.log(t)
        for a, _ in pairs:
            acc += math.lgamma(a + u)
        for _, b in pairs:
            acc -= math.lgamma(b + u)
        return acc
    acc = math.log(t.numerator) - math.log(t.denominator)
    log_u = acc + math.log(scale)
    for a, b in pairs:
        acc += (a - b) * log_u + math.fsum(
            (bernoulli_polynomial(k + 1, a) - bernoulli_polynomial(k + 1, b))
            * (-1) ** (k + 1) / (k * (k + 1)) * math.exp(-k * log_u) for k in range(1, 8))
    return acc


def _factor_log_numeric(params: PerRootFactorParams, pairing: int) -> float:
    """log of the same factor through the gamma quotient, in floats from the
    exact pairing + rho."""
    if params.m2 == 0:
        h = params.m / 2.0
        pairs, scale = ((h, 1.0 - h),), 1.0
    else:
        a = params.m / 4.0 + 0.5
        b = params.m / 4.0 + params.m2 / 2.0
        pairs, scale = ((a, 1.0 - a), (b, 1.0 - b)), 0.5
    return (_log_part(pairing + params.rho, scale, pairs)
            - _log_part(params.rho, scale, pairs))


@dataclass(frozen=True)
class _RootData:
    params: PerRootFactorParams
    column: int          # index into the positive-root pairing matrix
    rho_float: float


@lru_cache(maxsize=None)
def _space_roots(space_id: str) -> tuple[_RootData, ...]:
    space = rootdata.lookup_space(space_id)
    space.require_mult()
    rs = space.root_system
    out = []
    for idx in rs.indivisible_indices:
        m = space.m_alpha(idx)
        m2 = space.m_2alpha(idx)
        if m == 0 and m2 == 0:
            continue
        rho_a = space.rho_pairings[idx]
        params = per_root_params(m, m2, rho_a)
        # numeric-path precondition: all shifted gamma arguments positive
        if params.m2 == 0:
            if float(rho_a) <= params.m / 2.0 - 1.0:
                raise AssertionError(f"{space_id}: gamma argument not positive")
        out.append(_RootData(params=params, column=idx, rho_float=float(rho_a)))
    return tuple(out)


def dim_class_one(space_id: str, coords: weights.Coords) -> Q:
    """Exact dimension of the class-one representation with the given coordinates."""
    pairings = weights.root_pairings(space_id, coords)
    acc = Q(1)
    for rd in _space_roots(space_id):
        acc *= dim_factor(rd.params, pairings[rd.column])
    return acc


def dim_class_one_log(space_id: str, coords: weights.Coords) -> float:
    """log of the dimension via the gamma-quotient path."""
    pairings = weights.root_pairings(space_id, coords)
    return math.fsum(
        _factor_log_numeric(rd.params, pairings[rd.column])
        for rd in _space_roots(space_id)
    )


def float_and_log(value: Q) -> tuple[float | None, float]:
    """(float(value), or None past the float range; log value) of a positive value."""
    log = math.log(value.numerator) - math.log(value.denominator)
    return (float(value) if log <= _LOG_MAX else None), log


# ---------------------------------------------------------------------------
# type II: Weyl dimension formula
# ---------------------------------------------------------------------------

def dim_type_II(group_id: str, coords: weights.Coords) -> int:
    """Weyl dimension of the irreducible representation with the given labels."""
    table = compile_group(group_id)
    weights.check_coords(coords, len(table.pairing))
    acc = Q(1)
    for column, den in zip(zip(*table.pairing), table.shifts):
        acc *= (sum(map(mul, coords, column)) + den) / den
    if acc.denominator != 1:
        raise AssertionError("Weyl dimension came out non-integral")
    return int(acc)


# ---------------------------------------------------------------------------
# Compiled linear factors: d(n) = prod_j (L[:, j] . n + c_j) / c_j
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFactors:
    """A dimension as a product of factors linear in the coordinates n, and
    the Casimir as a quadratic form in them.

    ``pairing`` is the integer matrix L, one row per coordinate and one
    column per factor; ``shifts`` are the c_j, all positive, so every factor
    is at least one on the nonnegative cone.  ``gram`` and ``lin`` give the
    Casimir c2(n) = n.G.n + lin.n over the same basis; G is the Gram matrix
    of the basis, nonnegative, and lin_i = 2 (b_i, rho).
    """

    pairing: tuple[tuple[int, ...], ...]
    shifts: tuple[Q, ...]
    gram: tuple[tuple[Q, ...], ...]
    lin: tuple[Q, ...]

    def __post_init__(self):
        if any(c <= 0 for c in self.shifts):
            raise AssertionError(f"nonpositive shift in {self.shifts}")
        if any(v < 0 for row in self.pairing for v in row):
            raise AssertionError("negative entry in the pairing matrix")
        if any(v < 0 for row in self.gram for v in row):
            raise AssertionError("basis Gram matrix has a negative entry")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        return (np.array(self.pairing, dtype=float),     # exact, and a BLAS product
                np.array([float(c) for c in self.shifts]))

    @cached_property
    def _form(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        return np.array(self.gram, dtype=float), np.array(self.lin, dtype=float)

    def log_dims(self, coords: np.ndarray) -> np.ndarray:
        """log d(n) for every row n of an integer coordinate array.

        Summed as log1p(L n / c), so d(0) = 1 comes out exactly and no large
        logarithms cancel.
        """
        import numpy as np
        matrix, shifts = self._arrays
        return np.log1p((coords @ matrix) / shifts).sum(axis=1)

    def casimirs(self, coords: np.ndarray) -> np.ndarray:
        """c2(n) for every row n of an integer coordinate array, in floats."""
        gram, lin = self._form
        return ((coords @ gram) * coords).sum(axis=1) + coords @ lin

    @cached_property
    def factored(self) -> FactoredDimPolynomial:
        """d(n) = c prod_k (n + kappa_k)^xi_k of a one-row table: each factor
        (L_j n + c_j)/c_j is (n + kappa_j)/kappa_j with kappa_j = c_j / L_j."""
        if len(self.pairing) != 1:
            raise NotRankOne(f"a table of {len(self.pairing)} rows has no factored form")
        factors = tuple(sorted(Counter(map(truediv, self.shifts, self.pairing[0])).items()))
        return FactoredDimPolynomial(c=1 / math.prod(k ** xi for k, xi in factors),
                                     factors=factors)

    def casimir(self, coords: weights.Coords) -> Q:
        """c2(n) at one weight, exact."""
        weights.check_coords(coords, len(self.pairing))
        acc = Q(0)
        for i, ni in enumerate(coords):
            if not ni:
                continue
            acc += ni * self.lin[i]
            for j, nj in enumerate(coords):
                if nj:
                    acc += ni * nj * self.gram[i][j]
        return acc


def _casimir_form(rs: rootdata.RestrictedRootSystem, scales: tuple[Q, ...],
                  mult: tuple[int, ...]) -> dict:
    """Gram matrix and linear part of the Casimir over the weight basis
    b_i = s_i w_i: (b_i, b_k) = s_i s_k W_ik, W the inverse Gram matrix, and
    2 (b_i, rho) = s_i (2 rho)_i, the i-th coefficient of 2 rho."""
    w = rs.coweights
    return {"gram": tuple(tuple(si * sk * w[i][k] for k, sk in enumerate(scales))
                          for i, si in enumerate(scales)),
            "lin": tuple(map(mul, scales, rs.twice_rho(mult)))}


def _factor_offsets(params: PerRootFactorParams) -> list[Q]:
    """Offsets t with per-root factor prod_t (x + t)/(rho + t), x = pairing + rho."""
    pm = (-1, 1)
    if params.case == "even":
        return [Q(0), Q(0)] + [sg * k for k in range(1, params.l) for sg in pm]
    if params.case == "odd":
        return [Q(0)] + [sg * Q(2 * k - 1, 2)
                         for k in range(1, params.l + 1) for sg in pm]
    ranges = [k for count in (params.l, params.r) for k in range(1, count + 1)]
    if params.case == "A":
        return [Q(0)] + [sg * (2 * k - 1) for k in ranges for sg in pm]
    return [Q(0)] * 3 + [sg * 2 * k for k in ranges for sg in pm]


@lru_cache(maxsize=None)
def compile_space(space_id: str) -> LinearFactors:
    """Class-one dimension of a space as compiled linear factors."""
    space = rootdata.lookup_space(space_id)
    rs = space.root_system
    matrix = weights.class_one_pairing_matrix(space_id)
    columns, shifts = [], []
    for rd in _space_roots(space_id):
        for offset in _factor_offsets(rd.params):
            columns.append(rd.column)
            shifts.append(rd.params.rho + offset)
    return LinearFactors(
        pairing=tuple(tuple(row[j] for j in columns) for row in matrix),
        shifts=tuple(shifts),
        **_casimir_form(rs, rs.class_one_scales, space.mult),
    )


@lru_cache(maxsize=None)
def compile_group(group_id: str) -> LinearFactors:
    """Weyl dimension of a group as compiled linear factors.

    Over the fundamental weights b_i = (|alpha_i|^2 / 2) w_i: the coroot
    pairings (b_i, alpha^v), one row per i and one column per positive root
    alpha, and the shifts (rho, alpha^v) = 2 (rho, alpha)/(alpha, alpha).
    """
    rs = rootdata.lookup_group(group_id).root_system
    ones = (1,) * len(rs.norms)
    # (b_i, alpha^v) = (2 b_i, alpha)/(alpha, alpha), with 2 b_i = |alpha_i|^2 w_i
    return LinearFactors(pairing=rs.pairing_matrix(rs.norms[:rs.rank]),
                         shifts=tuple(2 * p for p in rs.rho_pairings(ones)),
                         **_casimir_form(rs, tuple(a / 2 for a in rs.norms[:rs.rank]), ones))


# ---------------------------------------------------------------------------
# Rank-one factored polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactoredDimPolynomial:
    """d(n) = c * prod_k (n + kappa_k)^{xi_k} with d(0) = 1."""

    c: Q
    factors: tuple[tuple[Q, int], ...]

    @property
    def degree(self) -> int:
        return sum(xi for _, xi in self.factors)

    def evaluate(self, n: int) -> Q:
        acc = self.c
        for kappa, xi in self.factors:
            acc *= (n + kappa) ** xi
        return acc

    def expand(self) -> tuple[Q, ...]:
        """Polynomial coefficients in n, ascending order, exact."""
        coeffs = [self.c]
        for kappa, xi in self.factors:
            for _ in range(xi):
                nxt = [Q(0)] * (len(coeffs) + 1)
                for i, a in enumerate(coeffs):
                    nxt[i] += a * kappa
                    nxt[i + 1] += a
                coeffs = nxt
        return tuple(coeffs)


@lru_cache(maxsize=None)
def rank_one_factored(space_id: str) -> FactoredDimPolynomial:
    """Factored dimension polynomial of a rank-one space."""
    space = rootdata.lookup_space(space_id)
    space.require_mult()
    if space.rank != 1:
        raise NotRankOne(f"{space_id} has rank {space.rank}")
    roots = _space_roots(space_id)
    if len(roots) != 1:
        raise NotRankOne(f"{space_id}: expected one indivisible root")
    p = roots[0].params
    poly = compile_space(space_id).factored
    if any(k <= 0 for k, _ in poly.factors):
        raise AssertionError(f"{space_id}: nonpositive kappa in factorization")
    if any((2 * k).denominator != 1 for k, _ in poly.factors):
        raise AssertionError(f"{space_id}: kappa is not a half-integer")
    if poly.degree != p.m + p.m2:
        raise AssertionError(f"{space_id}: degree {poly.degree} != {p.m + p.m2}")
    return poly


# ---------------------------------------------------------------------------
# Harish-Chandra c-function
# ---------------------------------------------------------------------------

def _near_nonpositive_integer(w: complex, tol: float = 1e-9) -> bool:
    if abs(w.imag) > tol:
        return False
    r = w.real
    return r < 0.5 and abs(r - round(r)) < tol


def _log_c_alpha(m: int, m2: int, w: complex) -> complex:
    """log c_alpha at w = i z; PoleError when a gamma argument is at a pole."""
    for arg in (w, m / 4 + 0.5 + w / 2, m / 4 + m2 / 2 + w / 2):
        if _near_nonpositive_integer(complex(arg)):
            raise PoleError(f"c_alpha gamma argument {arg} at a pole")
    return (-w * math.log(2.0)
            + log_gamma(complex(w))
            - log_gamma(complex(m / 4 + 0.5 + w / 2))
            - log_gamma(complex(m / 4 + m2 / 2 + w / 2)))


def c_alpha(m: int, m2: int, z: complex) -> complex:
    """Per-root c-function factor as a function of z = (lambda, alpha_0)."""
    return cmath.exp(_log_c_alpha(m, m2, 1j * z))


def c_alpha_reduced(m: int, z: complex) -> complex:
    """Simplified factor for m2 = 0 via the duplication formula."""
    w = 1j * z
    for arg in (w, m / 2 + w):
        if _near_nonpositive_integer(complex(arg)):
            raise PoleError(f"c_alpha gamma argument {arg} at a pole")
    logc = ((m / 2 - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
            + log_gamma(complex(w)) - log_gamma(complex(m / 2 + w)))
    return cmath.exp(logc)


def c_function(space_id: str, lam: tuple[complex, ...]) -> complex:
    """Product of the per-root factors over indivisible positive roots."""
    space = rootdata.lookup_space(space_id)
    rs = space.root_system
    acc = complex(1.0)
    for rd in _space_roots(space_id):
        alpha = rs.positive_roots[rd.column]
        norm = float(rs.norms[rd.column])
        z = sum(complex(c) * float(a) for c, a in zip(lam, alpha)) / norm
        acc *= c_alpha(rd.params.m, rd.params.m2, z)
    return acc


def dimension_via_c_ratio(space_id: str, coords: weights.Coords,
                          eps: float = 1e-5) -> float:
    """Dimension from the c-function ratio, via a symmetric displaced limit.

    At lattice points the individual c-factors hit gamma poles and zeros;
    the ratio has a finite limit, approached here from +-eps and averaged.
    """
    pairings = weights.root_pairings(space_id, coords)

    def ratio(d: float) -> float:
        total = complex(0.0)
        for rd in _space_roots(space_id):
            m, m2 = rd.params.m, rd.params.m2
            rho = rd.rho_float
            x = pairings[rd.column] + rho
            total += (_log_c_alpha(m, m2, complex(-rho + d))
                      + _log_c_alpha(m, m2, complex(rho + d))
                      - _log_c_alpha(m, m2, complex(-x + d))
                      - _log_c_alpha(m, m2, complex(x + d)))
        return cmath.exp(total).real

    return 0.5 * (ratio(eps) + ratio(-eps))


def dims_record(space_id: str, coords: weights.Coords) -> dict:
    """CLI payload: exact and float dimension, plus the factored form if rank one."""
    space = rootdata.lookup_space(space_id)
    exact = dim_class_one(space_id, coords)
    logd = dim_class_one_log(space_id, coords)
    rec = {
        "space": space.space_id,
        "coords": list(coords),
        "dim_exact": str(exact),
        "dim_float": float_and_log(exact)[0],
        "dim_log": logd,
    }
    if space.rank == 1:
        poly = rank_one_factored(space_id)
        rec["factored"] = {
            "c": str(poly.c),
            "factors": [[str(k), xi] for k, xi in poly.factors],
        }
    return rec
