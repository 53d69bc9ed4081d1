"""Heat-kernel partition series on genus-g surfaces, both lattice types.

For q = exp(-area) < 1 the quadratic Casimir growth makes every series here
certifiable; at q = 1 the sums reduce to the zeta functions, to which
evaluation is delegated.  Every sum reads the dimension and the Casimir
from the compiled table of its space or group (``dims.compile_space``,
``dims.compile_group``).

Rank one sums weight by weight, its dimension multiplied out from the
table's one row, up to the first weight whose geometric ratio bound meets
a goal fixed before the first term, or whose running total is infinite.
A higher rank bounds its terms by a separable majorant q^{c2(n)} d(n)^-e
<= prod_i h_i(n_i) (``_majorant_logs``).  The majorant's sum beyond
coordinate sum K is a coefficient tail of a product of one-coordinate
series, so the least K that meets the tolerance is known before any term
is summed.

What the majorant needs of its table alone is built once per table, on
its first heat sum (``_heat_parts``): its rows up to its first cut, the
denominators of its shares and its diagonal Casimir coefficients.  The
weights of coordinate sum <= K come from ``weights.ball``, as the zeta box
does: when they fit in ``weights.CHUNK_ROWS`` rows, as a prefix of the
table's simplex head, which holds log d and c2 by coordinate sum and grows
on demand (``weights.Head``); otherwise in chunks of
``weights.simplex_chunks``.  ``genseries.sum_region`` sums them.
"""
from __future__ import annotations

import math
import numbers
from itertools import accumulate
from typing import NamedTuple

from . import dims, genseries, rootdata, weights, zeta
from .errors import DivergenceError, DomainError, UnsupportedSpace, shown
from .result import EvalResult, Frozen


class _SurfaceParamsFields(NamedTuple):
    genus: int
    area: float
    holonomies: tuple[float, ...]


class SurfaceParams(Frozen, _SurfaceParamsFields):
    """Genus, total area, and optional boundary data of the surface."""

    def __new__(cls, genus: int, area: float, holonomies: tuple[float, ...] = ()):
        self = super().__new__(cls, genus, area, holonomies)
        if not isinstance(self.genus, numbers.Integral) or self.genus < 0:
            raise DomainError(f"genus must be an integer >= 0, got {shown(self.genus, repr)}")
        if not genseries._finite(2 * self.genus + self.n_holes):
            raise DomainError("genus must be within the float range")
        if not (genseries._finite(self.area) and self.area >= 0):
            raise DomainError(f"area must be finite and >= 0, got {shown(self.area)}")
        for theta in self.holonomies:
            if not 0.0 <= theta < 2.0 * math.pi:
                raise DomainError("holonomy angles must lie in [0, 2*pi)")
        return self

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
    ratio at n, which makes the geometric bound valid.  The sum stops at the
    first n whose bound meets the goal, fixed before the first term
    (``genseries._goal``): the tolerance or, when the bound after the cap's
    last term misses it, twice that bound.  That bound is taken in logs, so
    a dimension past the float range does not void it.  An infinite bound
    at the cap makes the goal infinite, and the sum stops at its first term.
    A running total past the float range stops the sum too, with the value
    inf.
    """
    genseries._check_tolerance(tolerance)
    lq = -area
    power = exponent if bound_exponent is None else bound_exponent
    a, b = float(table.gram[0][0]), float(table.lin[0])
    factors = [(v, float(c)) for v, c in zip(table.pairing[0], table.shifts)]
    cap = genseries.term_cap()
    log_d = [sum(math.log((v * m + c) / c) for v, c in factors) for m in (cap - 1, cap)]
    log_ratio = lq * (a * (2 * cap - 1) + b) + max(0.0, -power) * (log_d[1] - log_d[0])
    log_last = (lq * (a * cap * cap + b * cap) - power * log_d[1]
                - math.log(-math.expm1(log_ratio)) if log_ratio < 0.0 else math.inf)
    goal = genseries._goal(genseries._exp(log_last), tolerance)
    total, n, d, c2 = 0.0, 0, 1.0, 0.0
    while True:
        term = math.exp(lq * c2 - exponent * math.log(d))
        if weight is not None:
            term *= weight(n)
        total += term
        n += 1      # d(n) = prod_j (n L_j + c_j) / c_j, in factor order
        d_next, c2_next = math.prod((v * n + c) / c for v, c in factors), a * n * n + b * n
        ratio = math.exp(lq * (c2_next - c2)) * (d_next / d) ** max(0.0, -power)
        next_term = math.exp(lq * c2_next - power * math.log(d_next))
        bound = next_term / (1.0 - ratio) if ratio < 1.0 else math.inf
        if bound <= goal or n >= cap or total == math.inf:
            return EvalResult(value=total, tail_bound=bound, terms_used=n,
                              converged=bound <= tolerance)
        d, c2 = d_next, c2_next


#: The first cut M of ``_majorant_grade``; each table keeps its majorant
#: rows up to M + 2 (``_HeatParts``).
_FIRST_CUT = 16


def _majorant_rows(table: dims.LinearFactors, top: int) -> tuple[np.ndarray, ...]:
    """The parts of ``_majorant_logs`` at m = 0..top that depend on the table
    alone: log1p(m r_ij) of the upper form (exponent <= 0), log1p(m r_j) of
    the lower form (exponent > 0), and G_ii m^2 + lin_i m."""
    import numpy as np
    matrix, shifts = table._arrays
    gram, lin = table._form
    m = np.arange(top + 1, dtype=float)[:, None]
    return (np.log1p(m[:, :, None] * (matrix / shifts)),
            np.log1p(m[:, :, None] * (matrix.sum(axis=0) / shifts)),
            m * m * gram.diagonal() + m * lin)


class _HeatParts(NamedTuple):
    """What the majorant of a higher-rank heat sum needs of its table alone,
    built once per table (``dims.LinearFactors._heat``)."""

    totals: np.ndarray                  # sum_i L_ij, the shares' denominators
    gauss: list[tuple[float, float]]    # (G_ii, lin_i) of the ratio bound
    rows: tuple[np.ndarray, ...]        # _majorant_rows up to _FIRST_CUT + 2


def _heat_parts(table: dims.LinearFactors) -> _HeatParts:
    """The majorant's table parts."""
    gram, lin = table._form
    return _HeatParts(totals=table._arrays[0].sum(axis=0),
                      gauss=list(zip(gram.diagonal().tolist(), lin.tolist())),
                      rows=_majorant_rows(table, _FIRST_CUT + 2))


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
    parts = table._heat
    upper, lower, quadratic = (parts.rows if top <= _FIRST_CUT + 2
                               else _majorant_rows(table, top))
    if exponent > 0.0:
        poly = (lower[:top + 1] * (-exponent * table._arrays[0] / parts.totals)).sum(axis=2)
    else:
        poly = (upper[:top + 1] * -exponent).sum(axis=2)
    return (poly - area * quadratic[:top + 1]).T


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
    term before the products, so nothing overflows.  The arithmetic on one
    number per coordinate or per grade is in Python floats; the exponentials,
    logarithms and convolutions are numpy's.
    """
    import numpy as np
    gauss = table._heat.gauss
    k_cap = weights.radius(len(gauss), cap, simplex=True)
    log_tol = math.log(tolerance)
    cut = min(_FIRST_CUT, k_cap)
    # past the float range area m^2 makes a log h_i(m) -inf and a product of
    # sums makes the spill inf (no certificate); a zero tail's log is -inf
    with np.errstate(over="ignore", divide="ignore"):
        while True:
            logs = _majorant_logs(table, exponent, area, cut + 2)
            scale = logs.max(axis=1)
            head = np.exp(logs - scale[:, None])
            # max keeps its first argument over a NaN, the difference of two -inf
            log_ratio = [max(-area * (g * (2 * cut + 3) + b), last - before)
                         for (before, last), (g, b) in zip(logs[:, cut + 1:].tolist(), gauss)]
            if all(r < 0.0 for r in log_ratio):
                rest = head[:, cut + 1] / -np.expm1(log_ratio)
                sums = head[:, :cut + 1].sum(axis=1) + rest
                spill = float((rest * math.prod(sums.tolist()) / sums).sum())
            else:
                spill = math.inf
            coeffs = head[0, :cut + 1]
            for row in head[1:, :cut + 1]:
                coeffs = np.convolve(coeffs, row)
            # the coefficients past K, summed from the top down, for K = 0..cut
            beyond = [*accumulate(reversed(coeffs.tolist()))][-2::-1] + [0.0]
            log_tails = (np.log([t + spill for t in beyond[:cut + 1]])
                         + scale.sum()).tolist()
            if cut == k_cap and log_tails[cut] > log_tol:
                log_tol = log_tails[cut] + math.log(2.0)
            grade = next((k for k, t in enumerate(log_tails) if t <= log_tol), None)
            if grade is not None:
                break
            cut = min(2 * cut, k_cap)
    log_tail = log_tails[grade]
    return grade, genseries._exp(log_tail)


def _shell_heat_sum(table: dims.LinearFactors, exponent: float, area: float,
                    tolerance: float) -> EvalResult:
    """Higher-rank heat sum over every weight up to the grade its separable
    majorant (``_majorant_logs``) certifies.

    ``_majorant_grade`` turns the majorant into the least grade K whose
    tail beyond it meets the tolerance, and ``genseries.sum_region`` sums
    the weights of coordinate sum <= K, from ``weights.ball``.  When the cap
    cannot hold that grade, the result is not converged and carries the
    bound of the grade ``_majorant_grade`` falls back to.
    """
    genseries._check_tolerance(tolerance)
    grade, bound = _majorant_grade(table, exponent, area, tolerance, genseries.term_cap())
    value = genseries.sum_region(weights.ball(table, grade, simplex=True), exponent, area)
    return EvalResult(value=value, tail_bound=bound,
                      terms_used=weights.ball_size(len(table.lin), grade, simplex=True),
                      converged=bound <= tolerance)


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
