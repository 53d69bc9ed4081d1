"""Heat-kernel partition series on genus-g surfaces, both lattice types.

For q = exp(-area) < 1 the quadratic Casimir growth makes every series here
certifiable; at q = 1 the sums reduce to the zeta functions, to which
evaluation is delegated.  Every sum reads the dimension and the Casimir
from the compiled table of its space or group (``dims.compile_space``,
``dims.compile_group``).

A type II sum at genus 0, d^2 q^{c2}, is first tried by Poisson duality
(``dual.heat_sum``), at every rank: its closed-form leading term is the
answer when the certified bound on the dual terms meets the tolerance (inf
with bound inf, not converged, when it is past the float range), and
``terms_used`` then counts the dual lattice vectors read one by one.  A
type II sum at genus 1, q^{c2}, is first tried in closed form over the Weyl
orbits of the flats of the coroot hyperplanes (``dual.torus_sum``): a few
lattice theta series, each exact by Poisson summation, with the same
bound, the same rejection and the same inf past the float range.  It is
tried below the area where the direct side of Poisson summation is the
faster (``_crossover``), so a large area neither imports ``dual`` nor builds
a table's flats.  Every other sum, and one whose dual bound misses, is
summed directly.  Rank one sums weight by weight, its dimension multiplied
out from the table's one row, up to the first weight whose geometric ratio
bound (``_geometric``) meets a goal fixed before the first term, or whose
running total is infinite; its terms are added with ``math.fsum`` and
rounded once.  Where the area is so small that the geometric bound says
little and the bound exponent is > 0, the whole tail of the table's series
at that exponent (``genseries.Series.tail``) bounds the heat tail too, as
q^{c2} <= 1.  A higher rank sums the simplex its
separable majorant certifies (``_shell_heat_sum``, from the lattice module
``weights``), or, at exponent > 0 where the majorant misses, the least box
whose zeta bound meets the tolerance.  The majorant's rows that depend on
the table, and on the table and the exponent, are kept on the table
(``weights._HeatParts``), so a heat sum pays only for the passes that
depend on its area, and a head of fewer than a few hundred weights goes
straight to ``math.fsum``.
"""
from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

from . import dims, genseries, rootdata, zeta
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


def _geometric(log_ratio: float, log_next: float) -> float:
    """exp(log_next) / (1 - exp(log_ratio)), a geometric tail, in logs with
    expm1, so that a ratio within 2^-53 of one still bounds; inf at a ratio
    of one or more, or a NaN."""
    if not log_ratio < 0.0:
        return math.inf
    return genseries._exp(log_next - math.log(-math.expm1(log_ratio)))


def _rank_one_heat_sum(table: dims.LinearFactors, exponent: float, area: float,
                       tolerance: float, weight=None,
                       bound_exponent: float | None = None) -> EvalResult:
    """sum_n weight(n) q^{c2(n)} / d(n)^exponent with a geometric tail bound.

    The tail is bounded by the same sum with exponent ``bound_exponent``
    (default ``exponent``) and no weight, so |weight(n)| must be at most
    d(n)^(exponent - bound_exponent).  The Casimir increments grow linearly,
    so beyond any n the term ratios of the bounding sum are dominated by the
    ratio at n, which makes the geometric bound valid (``_geometric``, after
    the cap and after every term).  The sum stops at the first n whose bound
    meets the goal, fixed before the first term (``genseries._goal``): the
    tolerance or, when the bound after the cap's last term misses it, twice
    that bound.  An infinite bound at the cap makes the goal infinite, and
    the sum stops at its first term.  A running total past the float range
    stops the sum too, with the value inf; otherwise the value is the sum
    of the terms, rounded once.

    At a tiny area the geometric bound says little.  So where the bound
    exponent is > 0, the bounding sum converges at area 0, and the bound
    after the cap misses the tolerance or q^{Delta c2} rounds to one at the
    cap, the whole tail of the table's series at the bound exponent
    (``genseries.Series.tail``) bounds the tail too: the goal is then fixed
    from the smaller of the two bounds after the cap, and from the least n
    whose whole tail meets it (``weights._least_side``) the bound is the
    smaller of the two, never 0 (``genseries._up``).
    """
    genseries._check_tolerance(tolerance)
    lq = -area
    power = exponent if bound_exponent is None else bound_exponent
    a, b = float(table.gram[0][0]), float(table.lin[0])
    factors = [(v, float(c)) for v, c in zip(table.pairing[0], table.shifts)]
    cap = genseries.term_cap()
    log_d = [sum(math.log((v * m + c) / c) for v, c in factors) for m in (cap - 1, cap)]
    cap_bound = _geometric(lq * (a * (2 * cap - 1) + b) + max(0.0, -power) * (log_d[1] - log_d[0]),
                           lq * (a * cap * cap + b * cap) - power * log_d[1])
    stop, zeta_bound, tail = cap, math.inf, None
    if cap_bound > tolerance or math.exp(lq * (a * (2 * cap - 1) + b)) == 1.0:
        series = table.part(zeta._series)
        if series.power(power)[0] > 1.0:
            tail = functools.cache(functools.partial(series.tail, power, whole=True))
            cap_bound = min(cap_bound, tail(cap))
    goal = genseries._goal(cap_bound, tolerance)
    if tail is not None and tail(cap) <= goal:
        from . import weights
        stop = weights._least_side(lambda side: tail(side + 1), cap - 1, goal) + 1
        zeta_bound = tail(stop)
    terms, total, n, log_d, c2 = [], 0.0, 0, 0.0, 0.0
    while True:
        term = math.exp(lq * c2 - exponent * log_d)
        if weight is not None:
            term *= weight(n)
        terms.append(term)
        total += term
        if len(terms) > 1 << 15 and total < math.inf:
            # hold the sum so far as head + rest, exact to 2^-106 of it, so
            # the memory of a sum of a million terms stays under one MiB
            head = math.fsum(terms)
            terms = [head, math.fsum([*terms, -head])]
        n += 1      # d(n) = prod_j (n L_j + c_j) / c_j, in factor order
        log_next = math.log(math.prod((v * n + c) / c for v, c in factors))
        c2_next = a * n * n + b * n
        log_ratio = lq * (c2_next - c2) - (power * (log_next - log_d) if power < 0.0 else 0.0)
        bound = _geometric(log_ratio, lq * c2_next - power * log_next)
        if n >= stop:       # the smaller, which like the whole tail never reads 0
            bound = genseries._up(min(bound, zeta_bound))
        if bound <= goal or n >= cap or total == math.inf:
            return EvalResult(value=total if total == math.inf else math.fsum(terms),
                              tail_bound=bound, terms_used=n, converged=bound <= tolerance)
        log_d, c2 = log_next, c2_next


def _shell_heat_sum(table: dims.LinearFactors, exponent: float, area: float,
                    tolerance: float) -> EvalResult:
    """Higher-rank heat sum over every weight up to the grade its separable
    majorant (``weights._HeatParts.logs``) certifies, or over a box.

    ``weights._majorant_grade`` turns the majorant into the least grade K
    whose tail beyond it meets the tolerance, and ``weights.sum_region``
    sums the weights of coordinate sum <= K, from ``weights.ball``.  When
    the cap cannot hold that grade, the bound is that of the grade
    ``_majorant_grade`` falls back to.  Then, at exponent > 0, q^{c2} <= 1
    makes the zeta bound outside a box (``weights._box_bound``) a bound on
    the heat sum's tail too, and where a box within the cap meets the
    tolerance, the least such side (``weights._least_side``) is summed
    instead, the Casimirs of its rows taken from ``weights.ball_chunks``, as
    the box head keeps none.  A tiny area, where the majorant's
    one-coordinate sums overflow or fall too slowly, is then certified as
    the zeta sum at area 0 is.
    """
    from . import weights
    genseries._check_tolerance(tolerance)
    cap, rank = genseries.term_cap(), len(table.lin)
    grade, bound = weights._majorant_grade(table, exponent, area, tolerance, cap)
    if bound > tolerance and exponent > 0.0:
        top = weights.radius(rank, cap, simplex=False)
        box_bound = functools.cache(weights._box_bound(table, exponent))
        if box_bound(top) <= tolerance:
            side = weights._least_side(box_bound, top, tolerance)
            value = weights.sum_region(
                ((table.log_dims(rows), table.casimirs(rows))
                 for rows in weights.ball_chunks(rank, side, simplex=False)), exponent, area)
            return EvalResult(value=value, tail_bound=box_bound(side),
                              terms_used=weights.ball_size(rank, side, simplex=False),
                              converged=True)
    value = weights.sum_region(weights.ball(table, grade, simplex=True), exponent, area)
    return EvalResult(value, bound, weights.ball_size(rank, grade, simplex=True),
                      bound <= tolerance)


def _crossover(table: dims.LinearFactors) -> float:
    """The area A from which a genus-1 sum's first direct term e^{-A m1} is
    at most its first dual term e^{-pi^2 l1 / A}, so that the direct sum is
    the faster side of Poisson summation: pi sqrt(D / m1), with m1 = min_i
    (G_ii + lin_i) the least Casimir of a weight n != 0 (G >= 0), and D =
    min_i (G^-1)_ii at least the least dual norm l1."""
    inverse, _ = rootdata.inverse(table.gram)
    least = min(row[i] + c for i, (row, c) in enumerate(zip(table.gram, table.lin)))
    return math.pi * math.sqrt(min(row[i] for i, row in enumerate(inverse)) / least)


def _partition(table: dims.LinearFactors, surface: SurfaceParams, exponent: float,
               tolerance: float) -> EvalResult:
    if surface.area == 0.0:
        return zeta._zeta(table, exponent, tolerance, None)
    # type II at genus 0, or at genus 1 where the dual side is the faster:
    # the dual, where it certifies
    if exponent == -2.0 or exponent == 0.0 and surface.area < table.part(_crossover):
        from . import dual
        dual_sum = dual.heat_sum if exponent else dual.torus_sum
        result = dual_sum(table, surface.area, tolerance)
        if result is not None:
            return result
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
