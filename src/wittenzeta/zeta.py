"""Witten zeta functions of both types.

Both types sum d(n)^(-s) over the weight cone, with d read off the compiled
table of the space or group (``dims.compile_space``, ``dims.compile_group``),
and both go through ``_zeta``.  Rank-one tables get a certified evaluation
of their factored form: explicit terms plus a tail that is pinned to a
Hurwitz zeta with a rigorous correction bound.  Higher ranks sum a box
[0, B]^rank once, B the least side whose tail outside the box is certified
by one-coordinate series of the same pinned form (``_box_bound``), under
the weighted AM-GM of the heat majorant (``partition._majorant_logs``); the
box's terms are those of a heat sum at q = 1 (``genseries.sum_region``).
Both run through ``genseries.drive``, and every bound is rigorous.
"""
from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import replace

from . import dims, genseries, weights
from .errors import DivergenceError, DomainError
from .result import EvalResult
from .specfun import hurwitz_zeta, riemann_zeta


def _box_bound(table: dims.LinearFactors, s: float):
    """The certified bound on the sum of d(n)^(-s) outside [0, B]^rank, as a
    function of B.

    The outside is the union of the regions {n_i > B}.  Each factor of d,
    1 + sum_k a_k with a_k = L_kj n_k / c_j, is at least prod_k (1 + a_k /
    w_kj)^w_kj for shares w_kj >= 0 summing to one over k (weighted AM-GM),
    so d(n)^(-s) <= prod_k g_k(n_k), g_k(m) = prod_j (1 + L_kj m / (c_j
    w_kj))^(-s w_kj), and region i sums to at most sum_{m > B} g_i(m) times
    the full sums of the other g_k.  Its shares start at L_kj / sum_k L_kj
    and move toward coordinate i by the largest t in [0, 1] that keeps
    s sum_j w_kj >= 1.2 for every other k; a g_k with s sum_j w_kj <= 1
    diverges and makes the bound inf.  As d >= 1, a bound at s' <= s holds
    at s, and s' <= 1e300 keeps the power sums finite.
    """
    s = min(s, 1e300)
    matrix, shifts = table.pairing, table._arrays[1].tolist()
    base = [[v / n for v, n in zip(row, map(sum, zip(*matrix)))] for row in matrix]

    def series(row, shares):    # g = exp(scale) prod_j (m + kappa_j)^(-p_j)
        kappas = [c * w / v for c, w, v in zip(shifts, shares, row) if w > 0]
        powers = [s * w for w in shares if w > 0]
        if sum(powers) > 1.0:   # its tail function and scale; None when g diverges
            return (genseries.certified_tail(kappas, powers),
                    sum(p * math.log(k) for p, k in zip(powers, kappas)))

    regions = []
    for i, own in enumerate(matrix):
        gives = [sum(w for w, v in zip(row, own) if v) for row in base]
        t = max(0.0, min([1.0] + [(sum(base[k]) - 1.2 / s) / g
                                  for k, g in enumerate(gives) if k != i and g > 0]))
        coords = [series(row, [w + t * ((k == i) - w) if v else w for w, v in zip(shares, own)])
                  for k, (row, shares) in enumerate(zip(matrix, base))]
        if None in coords:
            return lambda box: math.inf
        # the log of each full sum 1 + sum_{m >= 1} g_k(m) but the i-th; the
        # sum of a tail's estimate and bound bounds it from above
        log_rest = sum(math.log1p(genseries._scaled(scale, sum(tail(1))))
                       for k, (tail, scale) in enumerate(coords) if k != i)
        regions.append((coords[i][0], coords[i][1] + log_rest))

    return lambda box: sum(genseries._scaled(scale, sum(tail(box + 1))) for tail, scale in regions)


def _growing_box(table: dims.LinearFactors, s: float, tolerance: float,
                 max_box: int | None) -> EvalResult:
    """sum of d(n)^(-s) over the least box [0, B]^rank whose ``_box_bound``
    meets the tolerance.

    The side is capped by ``max_box`` and by the term cap.  The bound does
    not grow with B, so a bisection over every side up to the cap finds the
    least one.  When no box within the caps meets the tolerance, the least
    one whose bound is within twice that of the largest is summed, and the
    result is not converged.  The box is summed once, in chunks of
    ``weights.box_chunks``.
    """
    rank = len(table.pairing)

    def certify(cap):
        side = round(cap ** (1.0 / rank))       # the largest side of <= cap points
        top = min(side - (side ** rank > cap) - 1, cap if max_box is None else max_box)
        bound = functools.cache(_box_bound(table, s))
        goal = tolerance if bound(top) <= tolerance else 2.0 * bound(top)
        box = bisect.bisect_left(range(top + 1), True, key=lambda b: bound(b) <= goal)
        return weights.box_chunks(rank, box), (box + 1) ** rank, bound(box)

    return genseries.sum_region(table, s, 0.0, certify, tolerance)


def _check_s(s: float, max_box: int | None = None) -> None:
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if max_box is not None and not (isinstance(max_box, numbers.Integral) and max_box >= 0):
        raise DomainError(f"max_box must be None or an integer >= 0, got {max_box!r}")


def _zeta(table: dims.LinearFactors, s: float, tolerance: float,
          max_box: int | None) -> EvalResult:
    """sum over the weight cone of d(n)^(-s), d given by a compiled table.

    A proven divergence: d is a product of J linear factors, so on the shell
    of sup-norm t, which holds at least t^(rank-1) points, d <= C t^J, and
    the sum diverges when s J <= rank.  Rank one sums the certified series
    of the factored form (``max_box`` is not used); higher ranks, the
    certified box of ``_growing_box``.
    """
    rank, factors = len(table.pairing), len(table.shifts)
    if s * factors <= rank:
        raise DivergenceError(f"series diverges: s * {factors} linear factors = "
                              f"{s * factors} <= rank {rank}")
    if rank == 1:    # 1 + sum_{n>=1} d(n)^(-s), d(n) = c prod_k (n + kappa_k)^xi_k
        poly = table.factored
        tail = genseries._sum_with_tail([float(k) for k, _ in poly.factors],
                                        [s * xi for _, xi in poly.factors], tolerance,
                                        -s * math.log(float(poly.c)))
        return replace(tail, value=1.0 + tail.value, terms_used=tail.terms_used + 1)
    return _growing_box(table, s, tolerance, max_box)


def zeta_type_I(space_id: str, s: float, tolerance: float = 1e-8,
                max_box: int | None = None) -> EvalResult:
    """sum over class-one dominant weights of dim^(-s)."""
    _check_s(s, max_box)
    return _zeta(dims.compile_space(space_id), s, tolerance, max_box)


def zeta_type_II(group_id: str, s: float, tolerance: float = 1e-8,
                 max_box: int | None = None) -> EvalResult:
    """sum over dominant weights of the Weyl dimension to the power -s.

    Like ``zeta_type_I``, a sum that misses the tolerance comes back with
    ``converged=False`` and its last tail estimate.
    """
    _check_s(s, max_box)
    return _zeta(dims.compile_group(group_id), s, tolerance, max_box)


def hurwitz_relation_check(m: int, s: float) -> dict:
    """Compare zeta_I of the 2-sphere against the scaled half-shift Hurwitz value."""
    if m != 2:
        raise DomainError("only the 2-sphere relation is implemented")
    left = zeta_type_I("S:2", s, tolerance=1e-12)
    scaled = 2.0 ** (-s) * hurwitz_zeta(s, 0.5)
    riemann_form = (2.0 ** s - 1.0) * riemann_zeta(s)
    return {
        "s": s,
        "zeta_I_S2": left.value,
        "scaled_hurwitz": scaled,
        "difference": left.value - scaled,
        "hurwitz_half": hurwitz_zeta(s, 0.5),
        "hurwitz_vs_riemann": hurwitz_zeta(s, 0.5) - riemann_form,
    }
