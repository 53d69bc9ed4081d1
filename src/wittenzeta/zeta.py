"""Witten zeta functions of both types.

Both types sum d(n)^(-s) over the weight cone, with d read off the compiled
table of the space or group (``dims.compile_space``, ``dims.compile_group``),
and both go through ``_zeta``.  Rank-one tables get a certified evaluation
of their factored form: explicit terms plus a tail that is pinned to a
Hurwitz zeta with a rigorous correction bound.  Higher ranks use
growing-box summation: each pass adds the shell between the last box and a
box of twice its side, and the size of that shell stands in for the tail
beyond it.  The result is flagged as non-rigorous because no analytic
convergence region is available there.  Both run through
``genseries.drive``.
"""
from __future__ import annotations

import math
from dataclasses import replace
from itertools import chain

from . import dims, genseries, weights
from .errors import DivergenceError, DomainError
from .result import EvalResult
from .specfun import hurwitz_zeta, riemann_zeta


def _growing_box(batch_term, rank: int, tolerance: float, max_box: int) -> EvalResult:
    """Box-doubling summation over the dominant cone.

    ``batch_term`` maps an integer array of coordinate rows to the array of
    their terms.  Each pass sums only the shell [0, box]^rank minus the
    previous box, chunk by chunk, in one exactly rounded fsum; the shell sum
    is the heuristic tail bound, held to half the tolerance.  The second
    time a shell sum exceeds both the one before it and the tolerance, the
    series is taken for divergent.
    """
    cap = genseries.term_cap()
    while (max_box + 1) ** rank > cap and max_box > 2:
        max_box //= 2

    def shells():
        inner, box = -1, min(8, max_box)
        prev, increases = None, 0
        while True:
            shell = math.fsum(chain.from_iterable(
                batch_term(chunk).tolist()
                for chunk in weights.box_chunks(rank, box, inner)
            ))
            if prev is not None and shell > prev and shell > tolerance:
                increases += 1
                if increases >= 2:
                    raise DivergenceError(
                        "partial sums accelerate: series looks divergent"
                    )
            count = (box + 1) ** rank - (inner + 1) ** rank
            yield shell, count, 0.0, abs(shell) if inner >= 0 else math.inf
            if box >= max_box:
                return
            prev = shell if inner >= 0 else None
            inner, box = box, min(2 * box, max_box)

    return genseries.drive(shells(), tolerance / 2.0, cap, rigorous=False)


def _check_s(s: float) -> None:
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")


def _zeta(table: dims.LinearFactors, s: float, tolerance: float,
          max_box: int | None) -> EvalResult:
    """sum over the weight cone of d(n)^(-s), d given by a compiled table.

    A proven divergence: d is a product of J linear factors, so on the shell
    of sup-norm t, which holds at least t^(rank-1) points, d <= C t^J, and
    the sum diverges when s J <= rank.  Rank one sums the certified series
    of the factored form (``max_box`` is not used); higher ranks, the
    growing box.
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
    import numpy as np
    if max_box is None:
        max_box = {2: 2048, 3: 128}.get(rank, 24)

    def terms(n):
        with np.errstate(over="ignore"):     # -s log d past -inf: the term is 0
            return np.exp(-s * table.log_dims(n))

    return _growing_box(terms, rank, tolerance, max_box)


def zeta_type_I(space_id: str, s: float, tolerance: float = 1e-8,
                max_box: int | None = None) -> EvalResult:
    """sum over class-one dominant weights of dim^(-s)."""
    _check_s(s)
    return _zeta(dims.compile_space(space_id), s, tolerance, max_box)


def zeta_type_II(group_id: str, s: float, tolerance: float = 1e-8,
                 max_box: int | None = None) -> EvalResult:
    """sum over dominant weights of the Weyl dimension to the power -s.

    Like ``zeta_type_I``, a sum that misses the tolerance comes back with
    ``converged=False`` and its last tail estimate.
    """
    _check_s(s)
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
