"""Heat-kernel partition series on genus-g surfaces, both lattice types.

For q < 1 the quadratic Casimir growth makes every series here certifiable
by geometric ratio bounds; at q = 1 the sums reduce to the zeta functions,
to which evaluation is delegated.  Every sum reads the dimension and the
Casimir from the compiled table of its space or group
(``dims.compile_space``, ``dims.compile_group``).  Rank one sums one weight
per shell; a higher rank sums the weights of coordinate sum k, built by
``weights.grade_shell``, as one int64 array.  The shells run through
``genseries.drive``.
"""
from __future__ import annotations

import math
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
        if self.genus < 0:
            raise DomainError("genus must be >= 0")
        if not (math.isfinite(self.area) and self.area >= 0):
            raise DomainError(f"area must be finite and >= 0, got {self.area}")
        for theta in self.holonomies:
            if not 0.0 <= theta < 2.0 * math.pi:
                raise DomainError("holonomy angles must lie in [0, 2*pi)")

    @property
    def n_holes(self) -> int:
        return len(self.holonomies)

    @property
    def q(self) -> float:
        return math.exp(-self.area)


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

    def shells():
        n, d, c2 = 0, table.dim_float((0,)), 0.0
        while True:
            term = math.exp(lq * c2 - exponent * math.log(d))
            if weight is not None:
                term *= weight(n)
            m = n + 1
            d_next, c2_next = table.dim_float((m,)), a * m * m + b * m
            ratio = math.exp(lq * (c2_next - c2)) * (d_next / d) ** max(0.0, -power)
            next_term = math.exp(lq * c2_next - power * math.log(d_next))
            yield term, 1, 0.0, next_term / (1.0 - ratio) if ratio < 1.0 else math.inf
            n, d, c2 = n + 1, d_next, c2_next

    return genseries.drive(shells(), tolerance, genseries.term_cap())


def _shell_heat_sum(table: dims.LinearFactors, exponent: float, area: float,
                    tolerance: float) -> EvalResult:
    """Shell-by-shell summation for higher rank, with a rigorous q < 1 bound.

    Shell k is every weight of coordinate sum k, one int64 array.  On shell
    k the Casimir is at least beta_min * k^2 / rank, with beta_min the least
    diagonal entry of the Gram matrix, the weight count is C(k+rank-1,
    rank-1), and the dimension is at most d(k, ..., k), which bounds every
    shell beyond the cutoff by an explicitly decreasing geometric sequence.
    """
    lq = -area
    rank = len(table.lin)
    beta_min = float(min(table.gram[i][i] for i in range(rank)))

    def shell_bound(j: int) -> float:
        count = math.comb(j + rank - 1, rank - 1)
        lg = lq * beta_min * j * j / rank + math.log(count)
        if exponent < 0.0:
            lg += -exponent * math.log(table.dim_float((j,) * rank))
        return math.exp(lg) if lg < 700.0 else math.inf

    def shells():
        import numpy as np
        k = 0
        while True:
            rows = weights.grade_shell(rank, k)
            terms = np.exp(-area * table.casimirs(rows) - exponent * table.log_dims(rows))
            b1 = shell_bound(k + 1)
            tail = 0.0 if b1 == 0.0 else math.inf
            if 0.0 < b1 < math.inf:
                rho = shell_bound(k + 2) / b1
                if rho < 1.0:
                    tail = b1 / (1.0 - rho)
            yield math.fsum(terms.tolist()), len(rows), 0.0, tail
            k += 1

    return genseries.drive(shells(), tolerance, genseries.term_cap())


def _partition(table: dims.LinearFactors, surface: SurfaceParams, exponent: int,
               tolerance: float) -> EvalResult:
    if len(table.lin) == 1:
        return _rank_one_heat_sum(table, float(exponent), surface.area, tolerance)
    return _shell_heat_sum(table, float(exponent), surface.area, tolerance)


def partition_type_II(group_id: str, surface: SurfaceParams,
                      tolerance: float = 1e-8) -> EvalResult:
    """sum over dominant weights of q^{c2} / d^{2g-2}."""
    exponent = 2 * surface.genus - 2
    if surface.area == 0.0:
        return zeta.zeta_type_II(group_id, float(exponent), tolerance)
    return _partition(dims.compile_group(group_id), surface, exponent, tolerance)


def partition_type_I(space_id: str, surface: SurfaceParams,
                     tolerance: float = 1e-8) -> EvalResult:
    """sum over class-one weights of q^{c2} / d^{2g-1}."""
    space = rootdata.lookup_space(space_id)
    space.require_mult()
    exponent = 2 * surface.genus - 1
    if surface.area == 0.0:
        return zeta.zeta_type_I(space_id, float(exponent), tolerance)
    return _partition(dims.compile_space(space_id), surface, exponent, tolerance)


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
