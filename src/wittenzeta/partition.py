"""Heat-kernel partition series on genus-g surfaces, both lattice types.

For q < 1 the quadratic Casimir growth makes every series here certifiable
by geometric ratio bounds; at q = 1 the sums reduce to the zeta functions,
to which evaluation is delegated.
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


def _casimir_coeffs(kind: str, ident: str) -> tuple[tuple[tuple[float, ...], ...],
                                                     tuple[float, ...]]:
    gram, lin = dims._quadratic_form(kind, ident)
    gram_f = tuple(tuple(float(v) for v in row) for row in gram)
    lin_f = tuple(float(v) for v in lin)
    if any(v < 0.0 for row in gram_f for v in row):
        raise AssertionError("basis Gram matrix has a negative entry")
    return gram_f, lin_f


def _casimir_float(gram, lin, coords) -> float:
    acc = 0.0
    for i, ni in enumerate(coords):
        if not ni:
            continue
        acc += ni * lin[i]
        row = gram[i]
        for jj, nj in enumerate(coords):
            if nj:
                acc += ni * nj * row[jj]
    return acc


def _rank_one_heat_sum(dim_at, c2_at, exponent: float, area: float,
                       tolerance: float) -> EvalResult:
    """sum_n q^{c2(n)} / d(n)^exponent with a geometric tail bound.

    The Casimir increments grow linearly, so beyond any n the term ratios
    are dominated by the ratio at n, which makes the geometric bound valid.
    """
    lq = -area
    cap = genseries.term_cap()
    total = 0.0
    n = 0
    while True:
        d = dim_at(n)
        total += math.exp(lq * c2_at(n) - exponent * math.log(d))
        dc = c2_at(n + 1) - c2_at(n)
        growth = (dim_at(n + 1) / d) ** max(0.0, -exponent)
        ratio = math.exp(lq * dc) * growth
        next_term = math.exp(lq * c2_at(n + 1) - exponent * math.log(dim_at(n + 1)))
        if ratio < 1.0:
            tail = next_term / (1.0 - ratio)
            if tail <= tolerance or n + 1 >= cap:
                return EvalResult(
                    value=total,
                    tail_bound=tail,
                    terms_used=n + 1,
                    converged=tail <= tolerance,
                    rigorous=True,
                )
        n += 1
        if n >= cap:
            return EvalResult(value=total, tail_bound=math.inf,
                              terms_used=n, converged=False, rigorous=True)


def _shell_heat_sum(term_at, dim_bound_at, rank: int, beta_min: float,
                    exponent: float, area: float, tolerance: float) -> EvalResult:
    """Shell-by-shell summation for higher rank, with a rigorous q < 1 bound.

    On the shell of coordinate sum k the Casimir is at least
    beta_min * k^2 / rank, the weight count is C(k+rank-1, rank-1), and the
    dimension is at most dim_bound_at(k), which bounds every shell beyond
    the cutoff by an explicitly decreasing geometric sequence.
    """
    lq = -area
    cap = genseries.term_cap()
    total = 0.0
    terms = 0
    k = 0
    while True:
        for coords in weights._compositions_within(rank, k, k):
            total += term_at(coords)
            terms += 1

        def shell_bound(j: int) -> float:
            count = math.comb(j + rank - 1, rank - 1)
            lg = lq * beta_min * j * j / rank + math.log(count)
            if exponent < 0.0:
                lg += -exponent * math.log(dim_bound_at(j))
            return math.exp(lg) if lg < 700.0 else math.inf

        b1 = shell_bound(k + 1)
        b2 = shell_bound(k + 2)
        if b1 < math.inf and b1 > 0.0:
            rho = b2 / b1
            if rho < 1.0:
                tail = b1 / (1.0 - rho)
                if tail <= tolerance or terms >= cap:
                    return EvalResult(value=total, tail_bound=tail,
                                      terms_used=terms,
                                      converged=tail <= tolerance,
                                      rigorous=True)
        elif b1 == 0.0:
            return EvalResult(value=total, tail_bound=0.0, terms_used=terms,
                              converged=True, rigorous=True)
        k += 1
        if terms >= cap:
            return EvalResult(value=total, tail_bound=math.inf,
                              terms_used=terms, converged=False, rigorous=True)


def _partition(kind: str, ident: str, surface: SurfaceParams, exponent: int,
               tolerance: float) -> EvalResult:
    if surface.area == 0.0:
        if kind == "space":
            return zeta.zeta_type_I(ident, float(exponent), tolerance)
        return zeta.zeta_type_II(ident, float(exponent), tolerance)
    gram, lin = _casimir_coeffs(kind, ident)

    if kind == "space":
        desc = rootdata.lookup_space(ident)
        rank = desc.rank
        dim_at_coords = lambda c: dims.dim_class_one_float(ident, c)
    else:
        desc = rootdata.lookup_group(ident)
        rank = desc.rank
        dim_at_coords = lambda c: dims.dim_type_II_float(ident, c)

    if rank == 1:
        a, b = gram[0][0], lin[0]
        return _rank_one_heat_sum(
            dim_at=lambda n: dim_at_coords((n,)),
            c2_at=lambda n: a * n * n + b * n,
            exponent=float(exponent),
            area=surface.area,
            tolerance=tolerance,
        )

    beta_min = min(gram[i][i] for i in range(rank))

    def term_at(coords):
        c2 = _casimir_float(gram, lin, coords)
        return math.exp(-surface.area * c2
                        - exponent * math.log(dim_at_coords(coords)))

    def dim_bound_at(k: int) -> float:
        return dim_at_coords(tuple([k] * rank))

    return _shell_heat_sum(term_at, dim_bound_at, rank, beta_min,
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
    a, b = gram[0][0], lin[0]
    exponent = 2 * surface.genus + surface.n_holes - 1
    thetas = surface.holonomies

    def dim_at(n: int) -> float:
        return dims.dim_class_one_float(space_id, (n,))

    def c2_at(n: int) -> float:
        return a * n * n + b * n

    lq = -surface.area
    cap = genseries.term_cap()
    total = 0.0
    n = 0
    while True:
        d = dim_at(n)
        weight = math.exp(lq * c2_at(n)) / d ** exponent
        total += weight * math.prod(char(n, t) for t in thetas)
        # |chi| <= d, so the tail obeys the exponent-(2g-1) partition bound
        dc = c2_at(n + 1) - c2_at(n)
        growth = (dim_at(n + 1) / d) ** max(0.0, -(exponent - surface.n_holes))
        ratio = math.exp(lq * dc) * growth
        bound_next = math.exp(
            lq * c2_at(n + 1)
            - (exponent - surface.n_holes) * math.log(dim_at(n + 1))
        )
        if ratio < 1.0:
            tail = bound_next / (1.0 - ratio)
            if tail <= tolerance or n + 1 >= cap:
                return EvalResult(value=total, tail_bound=tail,
                                  terms_used=n + 1,
                                  converged=tail <= tolerance, rigorous=True)
        n += 1
        if n >= cap:
            return EvalResult(value=total, tail_bound=math.inf,
                              terms_used=n, converged=False, rigorous=True)
