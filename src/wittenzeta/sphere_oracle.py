"""Independent checks of the spherical-function algebra on the 2-sphere.

Zonal spherical functions on S^2 are Legendre polynomials in cos(theta);
the bi-invariant measure on the double coset space is sin(theta)/2 dtheta,
so orthogonality and the delta-kernel expansion reduce to Gauss-Legendre
quadrature after x = cos(theta).  The 1/d weights come from the dims
module, not from a hardcoded 2n+1.
"""
from __future__ import annotations

import math
from typing import Callable

from . import dims
from .errors import DomainError
from .specfun import gauss_legendre_nodes, legendre_p, legendre_table


def zsf_s2(n: int, theta: float) -> float:
    """Zonal spherical function of the 2-sphere: P_n(cos theta)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if not 0.0 <= theta <= math.pi:
        raise DomainError("theta must lie in [0, pi]")
    return legendre_p(n, math.cos(theta))


def orthogonality_residual(n: int, m: int, quad_order: int = 128) -> float:
    """|integral of phi_n phi_m over the normalized measure - delta_nm / d_n|."""
    if min(n, m) < 0:
        raise DomainError("n and m must be >= 0")
    if quad_order < n + m + 1:
        raise DomainError("quadrature order too small for exactness")
    x, w = gauss_legendre_nodes(quad_order)
    table = legendre_table(max(n, m), x)
    integral = 0.5 * math.fsum(wi * a * b for wi, a, b in zip(w, table[n], table[m]))
    expected = 0.0
    if n == m:
        expected = 1.0 / float(dims.dim_class_one("S:2", (n,)))
    return abs(integral - expected)


def delta_kernel_error(trunc: int, f: Callable[[float], float],
                       quad_order: int = 512) -> float:
    """|quadrature of the truncated reproducing kernel against f - f(0)|."""
    if not 0 <= trunc < quad_order:
        raise DomainError("truncation order must be >= 0 and below the quadrature order")
    x, w = gauss_legendre_nodes(quad_order)
    kernel = [0.0] * len(x)
    for n, row in enumerate(legendre_table(trunc, x)):
        d = float(dims.dim_class_one("S:2", (n,)))
        kernel = [k + d * p for k, p in zip(kernel, row)]
    return abs(0.5 * math.fsum(wi * k * f(math.acos(t)) for wi, k, t in zip(w, kernel, x))
               - f(0.0))


def kernel_at_identity(trunc: int) -> int:
    """Truncated delta kernel evaluated at theta = 0; equals (N+1)^2."""
    return sum(int(dims.dim_class_one("S:2", (n,))) for n in range(trunc + 1))
