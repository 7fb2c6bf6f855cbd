import numpy as np
import pytest

from spheroid import Grid


def test_grid_basics():
    g = Grid(101)
    assert g.n == 101
    assert g.r[0] == 0.0 and g.r[-1] == 1.0
    assert np.allclose(np.diff(g.r), g.h)
    for n in (2, 3):
        with pytest.raises(ValueError, match="at least 4 nodes"):
            Grid(n)


def test_cumulative_integral_exact_for_constant():
    # integral_0^r g0 rho^2 d rho = g0 r^3 / 3, exactly
    g = Grid(64)
    g0 = 0.37
    out = g.cumulative_radial_integral(np.full(g.n, g0))
    assert np.allclose(out, g0 * g.r**3 / 3.0, rtol=0, atol=5e-17)


def test_cumulative_integral_exact_for_linear():
    g = Grid(81)
    out = g.cumulative_radial_integral(g.r)
    assert np.allclose(out, g.r**4 / 4.0, rtol=0, atol=5e-17)


def test_cumulative_integral_second_order_for_smooth():
    # quadrature error for a smooth integrand shrinks like h^2
    errs = []
    for n in (51, 101, 201):
        g = Grid(n)
        out = g.cumulative_radial_integral(np.cos(g.r))[-1]
        exact = (1.0**2 - 2.0) * np.sin(1.0) + 2 * 1.0 * np.cos(1.0)  # int cos(r) r^2
        errs.append(abs(out - exact))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)
    assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.2)


def test_derivative_exact_for_quadratic():
    g = Grid(41)
    y = 3.0 - 0.5 * g.r**2
    d = g.derivative(y, symmetric_origin=True)
    assert d[0] == 0.0
    assert np.allclose(d, -g.r, atol=1e-12)
    d2 = g.derivative(y)
    assert np.allclose(d2, -g.r, atol=1e-12)
    # np.gradient's rule, bit for bit, on one profile and on each row of a
    # batch
    rows = np.stack((y, np.sin(7.0 * g.r), np.exp(g.r)))
    assert np.array_equal(d2, np.gradient(y, g.h, edge_order=2))
    assert np.array_equal(g.derivative(rows),
                          np.gradient(rows, g.h, edge_order=2, axis=-1))


def test_grid_equality():
    assert Grid(11) == Grid(11)
    assert Grid(11) != Grid(21)
