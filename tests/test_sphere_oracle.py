import math

import pytest

from wittenzeta import dims, sphere_oracle
from wittenzeta.errors import DomainError
from wittenzeta.sphere_oracle import (delta_kernel_error, kernel_at_identity,
                                      orthogonality_residual, zsf_s2)


def test_zsf_normalization_at_identity():
    for n in (0, 1, 5, 17):
        assert zsf_s2(n, 0.0) == 1.0


def test_zsf_values():
    assert zsf_s2(1, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert zsf_s2(2, math.pi / 3) == pytest.approx(-0.125, abs=1e-14)


def test_zsf_domain():
    with pytest.raises(DomainError):
        zsf_s2(-1, 0.5)
    with pytest.raises(DomainError):
        zsf_s2(2, 4.0)


def test_orthogonality_diagonal():
    assert orthogonality_residual(0, 0) < 1e-14
    assert orthogonality_residual(4, 4) < 1e-13
    # the diagonal value itself is 1/(2n+1)
    from numpy.polynomial.legendre import leggauss
    import numpy as np
    x, w = leggauss(64)
    p4 = np.array([sphere_oracle.legendre_p(4, t) for t in x])
    integral = 0.5 * float(np.sum(w * p4 * p4))
    assert integral == pytest.approx(1.0 / 9.0, abs=1e-13)


def test_orthogonality_off_diagonal():
    assert orthogonality_residual(3, 5) < 1e-13
    assert orthogonality_residual(0, 7) < 1e-13


def test_orthogonality_full_grid():
    worst = max(orthogonality_residual(n, m)
                for n in range(21) for m in range(21))
    assert worst < 1e-12


def test_orthogonality_requires_enough_nodes():
    with pytest.raises(DomainError):
        orthogonality_residual(80, 80, quad_order=100)


@pytest.mark.parametrize("trunc, order", [(2000, 512), (40, 8), (8, 8), (-1, 8)])
def test_delta_kernel_requires_enough_nodes(trunc, order):
    # the quadrature integrates a kernel of degree trunc only with more than
    # trunc nodes
    with pytest.raises(DomainError):
        delta_kernel_error(trunc, math.cos, quad_order=order)


def test_delta_kernel_at_the_least_order():
    assert delta_kernel_error(7, lambda t: 1.0, quad_order=8) < 1e-13


def test_delta_kernel_constant_function():
    assert delta_kernel_error(0, lambda t: 1.0) < 1e-13
    assert delta_kernel_error(12, lambda t: 1.0) < 1e-12


def test_delta_kernel_cosine_improves():
    e0 = delta_kernel_error(0, math.cos)
    e1 = delta_kernel_error(1, math.cos)
    assert e1 < e0


def test_delta_kernel_gaussian_decreasing():
    f = lambda t: math.exp(-t * t)
    errors = [delta_kernel_error(n, f) for n in (8, 32, 128)]
    assert errors[0] > errors[1] > errors[2]


def test_kernel_positivity_at_identity():
    for trunc in (0, 3, 10, 50):
        assert kernel_at_identity(trunc) == (trunc + 1) ** 2


def test_kernel_weights_come_from_dims():
    # the oracle reuses the catalog dimensions, so any change there must
    # propagate; check the numbers agree term by term
    for n in range(12):
        assert float(dims.dim_class_one("S:2", (n,))) == 2 * n + 1
