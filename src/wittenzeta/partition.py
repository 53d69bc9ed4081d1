"""Heat-kernel partition series on genus-g surfaces, both lattice types.

For q < 1 the quadratic Casimir growth makes every series here certifiable
by geometric ratio bounds; at q = 1 the sums reduce to the zeta functions,
to which evaluation is delegated.  Rank one sums one weight per shell; a
higher rank sums the weights of coordinate sum k as one int64 array, with
the dimensions from the compiled linear factors and the Casimir from the
quadratic form.  The shells run through ``genseries.drive``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def _casimir_coeffs(kind: str, ident: str) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and linear part of c2(n) = n.G.n + lin.n, in floats."""
    gram, lin = dims._quadratic_form(kind, ident)
    gram_f = np.array(gram, dtype=float)
    if (gram_f < 0.0).any():
        raise AssertionError("basis Gram matrix has a negative entry")
    return gram_f, np.array(lin, dtype=float)


def _rank_one_heat_sum(dim_at, c2_at, exponent: float, area: float,
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

    def shells():
        n, d, c2 = 0, dim_at(0), c2_at(0)
        while True:
            term = math.exp(lq * c2 - exponent * math.log(d))
            if weight is not None:
                term *= weight(n)
            d_next, c2_next = dim_at(n + 1), c2_at(n + 1)
            ratio = math.exp(lq * (c2_next - c2)) * (d_next / d) ** max(0.0, -power)
            next_term = math.exp(lq * c2_next - power * math.log(d_next))
            yield term, 1, 0.0, next_term / (1.0 - ratio) if ratio < 1.0 else math.inf
            n, d, c2 = n + 1, d_next, c2_next

    return genseries.drive(shells(), tolerance, genseries.term_cap())


def _shell_heat_sum(term_at, dim_bound_at, rank: int, beta_min: float,
                    exponent: float, area: float, tolerance: float) -> EvalResult:
    """Shell-by-shell summation for higher rank, with a rigorous q < 1 bound.

    ``term_at`` maps an int64 array of coordinate rows to their terms; shell
    k is every weight of coordinate sum k.  On shell k the Casimir is at
    least beta_min * k^2 / rank, the weight count is C(k+rank-1, rank-1),
    and the dimension is at most dim_bound_at(k), which bounds every shell
    beyond the cutoff by an explicitly decreasing geometric sequence.
    """
    lq = -area

    def shell_bound(j: int) -> float:
        count = math.comb(j + rank - 1, rank - 1)
        lg = lq * beta_min * j * j / rank + math.log(count)
        if exponent < 0.0:
            lg += -exponent * math.log(dim_bound_at(j))
        return math.exp(lg) if lg < 700.0 else math.inf

    def shells():
        k = 0
        while True:
            rows = np.array(weights._compositions_within(rank, k, k), dtype=np.int64)
            b1 = shell_bound(k + 1)
            tail = 0.0 if b1 == 0.0 else math.inf
            if 0.0 < b1 < math.inf:
                rho = shell_bound(k + 2) / b1
                if rho < 1.0:
                    tail = b1 / (1.0 - rho)
            yield math.fsum(term_at(rows).tolist()), len(rows), 0.0, tail
            k += 1

    return genseries.drive(shells(), tolerance, genseries.term_cap())


def _partition(kind: str, ident: str, surface: SurfaceParams, exponent: int,
               tolerance: float) -> EvalResult:
    if surface.area == 0.0:
        if kind == "space":
            return zeta.zeta_type_I(ident, float(exponent), tolerance)
        return zeta.zeta_type_II(ident, float(exponent), tolerance)
    gram, lin = _casimir_coeffs(kind, ident)
    table = dims.compile_space(ident) if kind == "space" else dims.compile_group(ident)
    rank = len(lin)

    if rank == 1:
        a, b = float(gram[0, 0]), float(lin[0])
        return _rank_one_heat_sum(
            dim_at=lambda n: table.dim_float((n,)),
            c2_at=lambda n: a * n * n + b * n,
            exponent=float(exponent),
            area=surface.area,
            tolerance=tolerance,
        )

    def term_at(rows: np.ndarray) -> np.ndarray:
        c2 = ((rows @ gram) * rows).sum(axis=1) + rows @ lin
        return np.exp(-surface.area * c2 - exponent * table.log_dims(rows))

    def dim_bound_at(k: int) -> float:
        return table.dim_float((k,) * rank)

    return _shell_heat_sum(term_at, dim_bound_at, rank, float(gram.diagonal().min()),
                           float(exponent), surface.area, tolerance)


def partition_type_II(group_id: str, surface: SurfaceParams,
                      tolerance: float = 1e-8) -> EvalResult:
    """sum over dominant weights of q^{c2} / d^{2g-2}."""
    return _partition("group", group_id, surface, 2 * surface.genus - 2, tolerance)


def partition_type_I(space_id: str, surface: SurfaceParams,
                     tolerance: float = 1e-8) -> EvalResult:
    """sum over class-one weights of q^{c2} / d^{2g-1}."""
    space = rootdata.lookup_space(space_id)
    space.require_mult()
    return _partition("space", space_id, surface, 2 * surface.genus - 1, tolerance)


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
    gram, lin = _casimir_coeffs("space", space_id)
    a, b = float(gram[0, 0]), float(lin[0])
    table = dims.compile_space(space_id)
    thetas = surface.holonomies
    # |chi_n| <= d(n), so the tail obeys the exponent-(2g-1) partition bound
    return _rank_one_heat_sum(
        dim_at=lambda n: table.dim_float((n,)),
        c2_at=lambda n: a * n * n + b * n,
        exponent=float(2 * surface.genus + surface.n_holes - 1),
        area=surface.area,
        tolerance=tolerance,
        weight=lambda n: math.prod(char(n, t) for t in thetas),
        bound_exponent=float(2 * surface.genus - 1),
    )
