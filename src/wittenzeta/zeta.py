"""Witten zeta functions of both types.

Both types sum d(n)^(-s) over the weight cone, with d read off the compiled
table of the space or group (``dims.compile_space``, ``dims.compile_group``),
and both go through ``_zeta``.  Rank-one tables get a certified evaluation
of their factored form (``genseries._sum_with_tail``): a head of explicit
terms, its length fixed from the bound before it is summed, plus a tail
that is pinned to a Hurwitz zeta with a rigorous correction bound.  Higher
ranks sum a box [0, B]^rank once, B the least side whose tail outside the
box is certified by one-coordinate series of the same pinned form
(``_box_bound``), under the weighted AM-GM of the heat majorant
(``partition._majorant_logs``); the box is summed by the loop that sums a
heat region, at q = 1 (``genseries.sum_region``).  The side comes from a
few bounds, by a search that interpolates and falls back to halving
(``_least_side``).  The box comes from ``weights.ball``: a box of at most
``weights.CHUNK_ROWS`` weights is a prefix of the table's box head, which
holds log d in sup-norm order and grows on demand (``weights.Head``).
Every bound is rigorous.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import sys

from . import dims, genseries, weights
from .errors import DivergenceError, DomainError, shown
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
    at s, and s' <= 1e300 keeps the power sums finite.  Where the certified
    tail of a series from m = start is not a positive normal float (its
    Euler-Maclaurin value at a total power P in the hundreds underflows),
    it is taken in logs as the first term plus the integral of the rest,
    f(start) (1 + (start + kappa_max) / (P - 1)), f(m) = prod_j (m +
    kappa_j)^(-p_j): f decreases, and f(m) / f(start) <= ((m + kappa_max) /
    (start + kappa_max))^(-P) for m >= start.
    """
    s = min(s, 1e300)
    matrix, shifts = table.pairing, table._arrays[1].tolist()
    base = [[v / n for v, n in zip(row, map(sum, zip(*matrix)))] for row in matrix]

    def series(row, shares):    # g = exp(scale) prod_j (m + kappa_j)^(-p_j)
        kappas = [c * w / v for c, w, v in zip(shifts, shares, row) if w > 0]
        powers = [s * w for w in shares if w > 0]
        total = sum(powers)
        if total > 1.0:     # its log tail function and scale; None when g diverges
            tail = genseries.certified_tail(kappas, powers)

            def log_tail(start):
                bound = sum(tail(start))
                if bound >= sys.float_info.min:
                    return math.log(bound)
                return (math.log1p((start + max(kappas)) / (total - 1.0))
                        - sum(p * math.log(start + k) for p, k in zip(powers, kappas)))

            return log_tail, sum(p * math.log(k) for p, k in zip(powers, kappas))

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
        log_rest = sum(math.log1p(genseries._exp(scale + log_tail(1)))
                       for k, (log_tail, scale) in enumerate(coords) if k != i)
        regions.append((coords[i][0], coords[i][1] + log_rest))

    return lambda box: sum(genseries._exp(scale + log_tail(box + 1))
                           for log_tail, scale in regions)


def _least_side(bound, top: int, goal: float) -> int:
    """The least side B in [0, top] with bound(B) <= goal, given that
    bound(top) meets it: the side a bisection finds wherever bound does not
    grow with B, from fewer evaluations.

    The bracket (lo, hi] holds it, bound(lo) > goal >= bound(hi), and each
    probe moves one of its ends.  The first probe is B = 0 when the bracket
    holds more than 9 sides.  A later one goes where the line through two
    points (log(B + 2), log bound(B)) meets log goal, as a power law in
    B + 2 would, rounded up: through hi and lo after a probe that missed the
    goal, through hi and the hi before it after one that met it.  As in
    Brent's zero finder (1973, ch. 4), that guess is only taken when it
    moves less than half as far as the probe before last did; otherwise, or
    when a bound on the line is 0 or inf, the bracket is halved.
    """
    lo, hi, other, last, steps = -1, top, top, top, []
    while hi - lo > 1:
        probe = min((lo + hi) // 2 + 1, hi - 1)
        ends = bound(other), bound(hi)
        if lo < 0 and hi > 8:
            probe = 0
        elif lo >= 0 and 0.0 < min(ends) and max(ends) < math.inf and ends[0] != ends[1]:
            y_1, y_2 = map(math.log, ends)
            x_1, x_2 = math.log(other + 2), math.log(hi + 2)
            x = x_1 + (math.log(goal) - y_1) / (y_2 - y_1) * (x_2 - x_1)
            guess = min(max(math.ceil(math.exp(min(x, x_2))) - 2, lo + 1), hi - 1)
            if len(steps) < 2 or 2 * abs(guess - last) < steps[-2]:
                probe = guess
        if bound(probe) <= goal:
            hi, other = probe, hi
        else:
            lo = other = probe
        steps.append(abs(probe - last))
        last = probe
    return hi


def _growing_box(table: dims.LinearFactors, s: float, tolerance: float,
                 max_box: int | None) -> EvalResult:
    """sum of d(n)^(-s) over the least box [0, B]^rank whose ``_box_bound``
    meets the tolerance.

    The side is capped by ``max_box`` and by the term cap, and found by
    ``_least_side`` from a few bounds.  When no box within the caps meets the
    tolerance, the least one whose bound is within twice that of the largest
    is summed, and the result is not converged.  The box is summed once by
    ``genseries.sum_region``, from ``weights.ball``.
    """
    genseries._check_tolerance(tolerance)
    cap = genseries.term_cap()
    rank = len(table.pairing)
    top = min(weights.radius(rank, cap, simplex=False), cap if max_box is None else max_box)
    bound = functools.cache(_box_bound(table, s))
    box = _least_side(bound, top, genseries._goal(bound(top), tolerance))
    value = genseries.sum_region(weights.ball(table, box, simplex=False), s, 0.0)
    return EvalResult(value=value, tail_bound=bound(box),
                      terms_used=weights.ball_size(rank, box, simplex=False),
                      converged=bound(box) <= tolerance)


def _check_s(s: float, max_box: int | None = None) -> tuple[float, int | None]:
    """s as a float and ``max_box`` as an int or None, once both are checked."""
    if not genseries._finite(s):
        raise DomainError(f"s must be finite, got {shown(s)}")
    if max_box is not None and not (isinstance(max_box, numbers.Integral) and max_box >= 0):
        raise DomainError(f"max_box must be None or an integer >= 0, got {shown(max_box, repr)}")
    return float(s), None if max_box is None else operator.index(max_box)


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
        return tail._replace(value=1.0 + tail.value, terms_used=tail.terms_used + 1)
    return _growing_box(table, s, tolerance, max_box)


def zeta_type_I(space_id: str, s: float, tolerance: float = 1e-8,
                max_box: int | None = None) -> EvalResult:
    """sum over class-one dominant weights of dim^(-s)."""
    s, max_box = _check_s(s, max_box)
    return _zeta(dims.compile_space(space_id), s, tolerance, max_box)


def zeta_type_II(group_id: str, s: float, tolerance: float = 1e-8,
                 max_box: int | None = None) -> EvalResult:
    """sum over dominant weights of the Weyl dimension to the power -s.

    Like ``zeta_type_I``, a sum that misses the tolerance comes back with
    ``converged=False`` and its last tail estimate.
    """
    s, max_box = _check_s(s, max_box)
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
