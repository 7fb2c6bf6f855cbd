"""Uniform radial grid on [0, 1] and the quadrature/differencing helpers
shared by the solvers.

The cumulative integral uses a product-trapezoid rule: the integrand is
interpolated linearly on each cell while the rho^2 weight is integrated
exactly.  That keeps v(r) = r^-2 * integral accurate down to r = h, where
plain trapezoid on the weighted integrand would lose an order to the
division by r^2 (and makes the rule exact for constant and linear
integrands, so v = g0*r/3 holds exactly for constant g0).
"""

import numpy as np

# the smallest grid: the r = 1 stencil of Grid.derivative spans four nodes
MIN_NODES = 4


class Grid:
    """Nodes r_i = i*h, h = 1/(n-1), spanning the rescaled tumor [0, 1]."""

    def __init__(self, n):
        n = int(n)
        if n < MIN_NODES:
            raise ValueError(
                f"grid needs at least {MIN_NODES} nodes, got n={n}")
        self.n = n
        self.r = np.linspace(0.0, 1.0, n)
        self.h = 1.0 / (n - 1)
        # product-trapezoid weights for cumulative integral of f(rho)*rho^2
        rl, rr = self.r[:-1], self.r[1:]
        m0 = (rr**3 - rl**3) / 3.0
        m1 = (rr**4 - rl**4) / 4.0 - rl * m0
        self._w_right = m1 / (rr - rl)
        self._w_left = m0 - self._w_right
        self.r2 = self.r[1:] ** 2   # divides the radial integral into v
        self._offsets = {}

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    def __repr__(self):
        return f"Grid(n={self.n})"

    def row_offsets(self, size):
        """Flat offsets (size, 1) of a batch's rows laid end to end."""
        if size not in self._offsets:
            self._offsets[size] = np.arange(0, self.n * size, self.n)[:, None]
        return self._offsets[size]

    def cumulative_radial_integral(self, f):
        """Return I_i = integral_0^{r_i} f(rho) rho^2 d rho for nodal f, along
        the last axis (each row of a batch on its own)."""
        f = np.asarray(f, dtype=float)
        out = np.zeros(f.shape)
        np.cumsum(self._w_left * f[..., :-1] + self._w_right * f[..., 1:],
                  axis=-1, out=out[..., 1:])
        return out

    def derivative(self, y, symmetric_origin=False):
        """Second-order nodal derivative: central inside, one-sided at ends,
        along the last axis.  This is ``np.gradient`` with ``edge_order=2``
        on a uniform grid, written out with its operations in its order.

        With ``symmetric_origin`` the derivative at r=0 is pinned to zero
        (even profile), and the r=1 end uses a third-order one-sided stencil
        so boundary noise does not dominate flux diagnostics.
        """
        y = np.asarray(y, dtype=float)
        h = self.h
        d = np.empty_like(y)
        d[..., 1:-1] = (y[..., 2:] - y[..., :-2]) / (2.0 * h)
        d[..., 0] = ((-1.5 / h) * y[..., 0] + (2.0 / h) * y[..., 1]
                     + (-0.5 / h) * y[..., 2])
        d[..., -1] = ((0.5 / h) * y[..., -3] + (-2.0 / h) * y[..., -2]
                      + (1.5 / h) * y[..., -1])
        if symmetric_origin:
            d[..., 0] = 0.0
            d[..., -1] = (11.0 * y[..., -1] - 18.0 * y[..., -2]
                          + 9.0 * y[..., -3] - 2.0 * y[..., -4]) / (6.0 * h)
        return d
