"""Witten zeta functions of both types.

Both types sum d(n)^(-s) over the weight cone, with d read off the compiled
table of the space or group (``dims.compile_space``, ``dims.compile_group``),
and both go through ``_zeta``.  Rank-one tables get a certified evaluation
of their factored form (``genseries._sum_with_tail``) on the s-free parts
each table keeps (``_series``, ``genseries.Series``): a head of explicit
terms, its length fixed from the bound before it is summed, plus a tail
that is pinned to a Hurwitz zeta with a rigorous correction bound; the
bound covers the float returned.  Higher
ranks sum the least box [0, B]^rank whose tail outside it is certified
(``_growing_box``, from the lattice module ``weights``).
"""
from __future__ import annotations

import functools
import math
import numbers
import operator

from . import dims, genseries
from .errors import DivergenceError, DomainError, shown
from .result import EvalResult


def _growing_box(table: dims.LinearFactors, s: float, tolerance: float,
                 max_box: int | None) -> EvalResult:
    """sum of d(n)^(-s) over the least box [0, B]^rank whose
    ``weights._box_bound`` meets the tolerance.

    The side is capped by ``max_box`` and by the term cap, and found by
    ``weights._least_side`` from a few bounds.  When no box within the caps
    meets the tolerance, the least one whose bound is within twice that of
    the largest is summed, and the result is not converged.  The box is
    summed once by ``weights.sum_region``, from ``weights.ball``.
    """
    from . import weights
    genseries._check_tolerance(tolerance)
    cap = genseries.term_cap()
    rank = len(table.pairing)
    top = min(weights.radius(rank, cap, simplex=False), cap if max_box is None else max_box)
    bound = functools.cache(weights._box_bound(table, s))
    box = weights._least_side(bound, top, genseries._goal(bound(top), tolerance))
    value = weights.sum_region(weights.ball(table, box, simplex=False), s, 0.0)
    return EvalResult(value=value, tail_bound=bound(box),
                      terms_used=weights.ball_size(rank, box, simplex=False),
                      converged=bound(box) <= tolerance)


def _series(table: dims.LinearFactors) -> genseries.Series:
    """The s-free parts of a rank-one table's series (``table.part``): the
    kappa_k and the integers xi_k of d(n) = c prod_k (n + kappa_k)^xi_k, as
    floats (a float product is much faster than an int one), and log c."""
    poly = table.factored
    return genseries.Series([float(k) for k, _ in poly.factors],
                            [float(xi) for _, xi in poly.factors], math.log(float(poly.c)))


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
        tail = genseries._sum_with_tail(table.part(_series), s, tolerance)
        value = 1.0 + tail.value
        bound = tail.tail_bound + genseries._addition_error(1.0, tail.value)
        return EvalResult(value, bound, tail.terms_used + 1, bound <= tolerance)
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
