"""Heat-kernel partition series on genus-g surfaces, both lattice types.

For q = exp(-area) < 1 the quadratic Casimir growth makes every series here
certifiable; at q = 1 the sums reduce to the zeta functions, to which
evaluation is delegated.  Every sum reads the dimension and the Casimir
from the compiled table of its space or group (``dims.compile_space``,
``dims.compile_group``), and runs through ``genseries.drive``.

Rank one sums one weight per shell under a geometric ratio bound, its
dimension multiplied out from the table's one row.  A higher rank bounds
its terms by a separable majorant q^{c2(n)} d(n)^-e <= prod_i h_i(n_i)
(``_majorant_logs``).  The majorant's sum beyond coordinate sum K is a
coefficient tail of a product of one-coordinate series, so the least K that
meets the tolerance is known before any term is summed; the weights of
coordinate sum <= K (``weights.simplex_chunks``) are then summed in chunks
by ``genseries.sum_region``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from . import dims, genseries, rootdata, weights, zeta
from .errors import DivergenceError, DomainError, UnsupportedSpace
from .result import EvalResult


@dataclass(frozen=True)
class SurfaceParams:
    """Genus, total area, and optional boundary data of the surface."""

    genus: int
    area: float
    holonomies: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.genus, numbers.Integral) or self.genus < 0:
            raise DomainError(f"genus must be an integer >= 0, got {self.genus!r}")
        if not (math.isfinite(self.area) and self.area >= 0):
            raise DomainError(f"area must be finite and >= 0, got {self.area}")
        for theta in self.holonomies:
            if not 0.0 <= theta < 2.0 * math.pi:
                raise DomainError("holonomy angles must lie in [0, 2*pi)")

    @property
    def n_holes(self) -> int:
        return len(self.holonomies)


def _rank_one_heat_sum(table: dims.LinearFactors, exponent: float, area: float,
                       tolerance: float, weight=None,
                       bound_exponent: float | None = None) -> EvalResult:
    """sum_n weight(n) q^{c2(n)} / d(n)^exponent with a geometric tail bound.

    The tail is bounded by the same sum with exponent ``bound_exponent``
    (default ``exponent``) and no weight, so |weight(n)| must be at most
    d(n)^(exponent - bound_exponent).  The Casimir increments grow linearly,
    so beyond any n the term ratios of the bounding sum are dominated by the
    ratio at n, which makes the geometric bound valid.
    """
    lq = -area
    power = exponent if bound_exponent is None else bound_exponent
    a, b = float(table.gram[0][0]), float(table.lin[0])
    factors = [(v, float(c)) for v, c in zip(table.pairing[0], table.shifts)]

    def dim(m):     # d(m) = prod_j (m L_j + c_j) / c_j, in factor order
        return math.prod((v * m + c) / c for v, c in factors)

    def shells():
        n, d, c2 = 0, dim(0), 0.0
        while True:
            term = math.exp(lq * c2 - exponent * math.log(d))
            if weight is not None:
                term *= weight(n)
            m = n + 1
            d_next, c2_next = dim(m), a * m * m + b * m
            ratio = math.exp(lq * (c2_next - c2)) * (d_next / d) ** max(0.0, -power)
            next_term = math.exp(lq * c2_next - power * math.log(d_next))
            yield term, 1, 0.0, next_term / (1.0 - ratio) if ratio < 1.0 else math.inf
            n, d, c2 = n + 1, d_next, c2_next

    return genseries.drive(shells(), tolerance, genseries.term_cap())


def _grade_cap(rank: int, cap: int) -> int:
    """The largest K whose C(K + rank, rank) weights of coordinate sum <= K
    fit in ``cap`` >= 1 terms."""
    # C(K + rank, rank) > K^rank / rank!, so K stays below this root
    k = int((cap * math.factorial(rank)) ** (1.0 / rank)) + 1
    while math.comb(k + rank, rank) > cap:
        k -= 1
    return k


def _majorant_logs(table: dims.LinearFactors, exponent: float, area: float,
                   top: int) -> np.ndarray:
    """log h_i(m) for every coordinate i (rows) and m = 0..top (columns),
    with q^{c2(n)} d(n)^-exponent <= prod_i h_i(n_i) on the nonnegative cone:

        h_i(m) = exp(-area (G_ii m^2 + lin_i m)) prod_j (1 + r_ij m)^p_ij.

    The Casimir n.G.n + lin.n is at least sum_i G_ii n_i^2 + lin_i n_i, as
    G >= 0 entrywise.  Each factor of d, 1 + sum_i a_i with a_i = L_ij n_i /
    c_j >= 0, is at most prod_i (1 + a_i), so r_ij = L_ij / c_j and p_ij =
    -exponent when exponent <= 0; and at least prod_i (1 + a_i / w_ij)^w_ij
    (weighted AM-GM, as in ``zeta._box_bound``), so at the shares w_ij =
    L_ij / sum_i L_ij, r_ij = sum_i L_ij / c_j and p_ij = -exponent w_ij
    when exponent > 0.
    """
    import numpy as np
    matrix, shifts = table._arrays
    gram, lin = table._form
    rates, powers = matrix / shifts, -exponent
    if exponent > 0.0:
        totals = matrix.sum(axis=0)
        rates, powers = totals / shifts, powers * matrix / totals
    m = np.arange(top + 1, dtype=float)[:, None]
    poly = (np.log1p(m[:, :, None] * rates) * powers).sum(axis=2)
    return (poly - area * (m * m * gram.diagonal() + m * lin)).T


def _majorant_grade(table: dims.LinearFactors, exponent: float, area: float,
                    tolerance: float, cap: int) -> tuple[int, float]:
    """The least grade K whose majorant tail is at most ``tolerance``, and
    that tail; when no K within ``cap`` terms is, the least K whose tail is
    within twice that of the largest K within ``cap`` terms.

    The majorant sum_n prod_i h_i(n_i) is the product of the one-coordinate
    series H_i(z) = sum_m h_i(m) z^m at z = 1, and its part beyond grade K
    is the coefficient tail of prod_i H_i.  Split each H_i at M (``cut``)
    into P_i, its terms m <= M, and the rest T_i.  For K <= M that tail is
    at most the coefficients beyond K of prod_i P_i (``np.convolve``) plus
    sum_i T_i prod_{l != i} (P_l(1) + T_l).  The ratio h_i(m+1)/h_i(m)
    decreases in m when exponent <= 0; when exponent > 0 its polynomial
    part is <= 1, and q^{G_ii (2m + 1) + lin_i}, which decreases, bounds
    it.  The larger of the two at m = M+1 is r_i, and T_i <= h_i(M+1) /
    (1 - r_i).  M doubles until a K <= M meets the tolerance or M reaches
    the largest grade the cap allows.  Every h_i is scaled by its largest
    term before the products, so nothing overflows.
    """
    import numpy as np
    gram, lin = table._form
    k_cap = _grade_cap(len(lin), cap)
    log_tol = math.log(tolerance)
    cut = min(16, k_cap)
    while True:
        # past the float range a log h_i(m) is -inf, and -inf - -inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            logs = _majorant_logs(table, exponent, area, cut + 2)
            log_ratio = np.fmax(logs[:, cut + 2] - logs[:, cut + 1],
                                -area * (gram.diagonal() * (2 * cut + 3) + lin))
        scale = logs.max(axis=1)
        head = np.exp(logs - scale[:, None])
        if (log_ratio < 0.0).all():
            rest = head[:, cut + 1] / -np.expm1(log_ratio)
            sums = head[:, :cut + 1].sum(axis=1) + rest
            with np.errstate(over="ignore"):     # an inf spill: no certificate
                spill = (rest * np.prod(sums) / sums).sum()
        else:
            spill = np.inf
        coeffs = head[0, :cut + 1]
        for row in head[1:, :cut + 1]:
            coeffs = np.convolve(coeffs, row)
        tails = np.append(np.cumsum(coeffs[::-1])[::-1], 0.0)[1:cut + 2] + spill
        with np.errstate(divide="ignore"):
            log_tails = np.log(tails) + scale.sum()
        if cut == k_cap and log_tails[cut] > log_tol:
            log_tol = log_tails[cut] + math.log(2.0)
        fits = np.flatnonzero(log_tails <= log_tol)
        if fits.size:
            grade = int(fits[0])
            break
        cut = min(2 * cut, k_cap)
    log_tail = float(log_tails[grade])
    return grade, math.exp(log_tail) if log_tail < 709.0 else math.inf


def _shell_heat_sum(table: dims.LinearFactors, exponent: float, area: float,
                    tolerance: float) -> EvalResult:
    """Higher-rank heat sum over every weight up to the grade its separable
    majorant (``_majorant_logs``) certifies.

    ``_majorant_grade`` turns the majorant into the least grade K whose
    tail beyond it meets the tolerance, and the weights of coordinate sum
    <= K are summed in chunks of ``weights.simplex_chunks``.  When the cap
    cannot hold that grade, the result is not converged and carries the
    bound of the grade ``_majorant_grade`` falls back to.
    """
    rank = len(table.lin)

    def certify(cap):
        grade, bound = _majorant_grade(table, exponent, area, tolerance, cap)
        return weights.simplex_chunks(rank, grade), math.comb(grade + rank, rank), bound

    return genseries.sum_region(table, exponent, area, certify, tolerance)


def _partition(table: dims.LinearFactors, surface: SurfaceParams, exponent: float,
               tolerance: float) -> EvalResult:
    if surface.area == 0.0:
        return zeta._zeta(table, exponent, tolerance, None)
    heat_sum = _rank_one_heat_sum if len(table.lin) == 1 else _shell_heat_sum
    return heat_sum(table, exponent, surface.area, tolerance)


def partition_type_II(group_id: str, surface: SurfaceParams,
                      tolerance: float = 1e-8) -> EvalResult:
    """sum over dominant weights of q^{c2} / d^{2g-2}."""
    return _partition(dims.compile_group(group_id), surface, float(2 * surface.genus - 2),
                      tolerance)


def partition_type_I(space_id: str, surface: SurfaceParams,
                     tolerance: float = 1e-8) -> EvalResult:
    """sum over class-one weights of q^{c2} / d^{2g-1}."""
    return _partition(dims.compile_space(space_id), surface, float(2 * surface.genus - 1),
                      tolerance)


def so3_character(n: int, theta: float) -> float:
    """Character of the (2n+1)-dimensional rotation representation."""
    s = math.sin(theta / 2.0)
    if abs(s) < 1e-12:
        return 2.0 * n + 1.0
    return math.sin((2 * n + 1) * theta / 2.0) / s


def _s3_character(n: int, theta: float) -> float:
    s = math.sin(theta / 2.0)
    if abs(s) < 1e-12:
        return float((n + 1) ** 2)
    return (math.sin((n + 1) * theta / 2.0) / s) ** 2


def boundary_state(space_id: str, surface: SurfaceParams,
                   tolerance: float = 1e-8) -> EvalResult:
    """Boundary-holonomy sum q^{c2} * prod_i chi_n(theta_i) / d^{2g+holes-1}.

    Only the sphere family carries an implemented character model; with no
    holes this reduces exactly to partition_type_I.
    """
    space = rootdata.lookup_space(space_id)
    if space.space_id not in ("S:2", "S:3"):
        raise UnsupportedSpace(
            f"boundary states are implemented for S:2 and S:3 only, got {space_id}"
        )
    if surface.n_holes == 0:
        return partition_type_I(space_id, surface, tolerance)
    if surface.area == 0.0:
        raise DivergenceError("boundary sums need positive area")
    char = so3_character if space.space_id == "S:2" else _s3_character
    thetas = surface.holonomies
    # |chi_n| <= d(n), so the tail obeys the exponent-(2g-1) partition bound
    return _rank_one_heat_sum(
        dims.compile_space(space_id),
        exponent=float(2 * surface.genus + surface.n_holes - 1),
        area=surface.area,
        tolerance=tolerance,
        weight=lambda n: math.prod(char(n, t) for t in thetas),
        bound_exponent=float(2 * surface.genus - 1),
    )
