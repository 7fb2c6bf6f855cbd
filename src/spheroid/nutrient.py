"""Quasi-static nutrient profile on the rescaled unit ball.

At frozen log-radius z the nutrient concentration solves the two-point
boundary value problem

    c''(r) + (2/r) c'(r) = e^{2z} F(c(r)),   c'(0) = 0,  c(1) = 1,

discretized with second-order central differences.  At r = 0 the operator
is replaced by its symmetric limit 3 c''(0) (ghost-node symmetry), which
the uniform grid resolves to 6 (c_1 - c_0) / h^2.  A damped Newton
iteration with the analytic Jacobian solves the nonlinear system;
:func:`nutrient_sensitivity` gets dc/dz from one linear solve with the
converged Jacobian, since it satisfies the linearized problem

    u'' + (2/r) u' = e^{2z} F'(c) u + 2 e^{2z} F(c),  u'(0) = 0, u(1) = 0.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, lapack

from .errors import ConvergenceError
from .grid import Grid
from .rates import C_HI, DOMAIN, check_domain, outside_domain

_MACHEPS = np.finfo(float).eps
# relative bound on the max-norm Newton residual of every nutrient solve
RESIDUAL_TOL = 1e-10
NEWTON_MAXITER = 60   # Newton iterations before ConvergenceError
# largest log-radius solved for: e^{2z} stays below 1e154, so its products
# with the rates and the stencil cannot overflow
Z_MAX = 0.25 * np.log(np.finfo(float).max)


@lru_cache(maxsize=8)
def _diffusion_rows(grid):
    """Tridiagonal rows of L[c] = c_rr + (2/r) c_r, built once per grid and
    shared read-only.

    Row 0 encodes the symmetric-limit stencil 6(c_1 - c_0)/h^2; the last
    row is an identity row for a strongly imposed Dirichlet value.  Returns
    full-length rows (lower, diag, upper) as :func:`tri_solve` takes them;
    lo[0] and up[-1] unused.
    """
    r, h, n = grid.r, grid.h, grid.n
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    di[0] = -6.0 / h**2
    up[0] = 6.0 / h**2
    a = 2.0 / r[1:-1]
    lo[1:-1] = 1.0 / h**2 - a / (2.0 * h)
    di[1:-1] = -2.0 / h**2
    up[1:-1] = 1.0 / h**2 + a / (2.0 * h)
    di[-1] = 1.0
    for row in (lo, di, up):
        row.flags.writeable = False
    return lo, di, up


@lru_cache(maxsize=8)
def _block_rows(grid, size):
    """:func:`_diffusion_rows` repeated for ``size`` blocks laid end to end,
    read-only; each block's zero lo[0] and up[-1] keep it apart."""
    rows = tuple(np.tile(row, size) for row in _diffusion_rows(grid))
    for row in rows:
        row.flags.writeable = False
    return rows


def tri_solve(lo, di, up, rhs):
    """Direct solve of the tridiagonal system given by row arrays (dgtsv);
    lo[0] and up[-1] are unused.

    The systems of a batch, laid end to end, solve as one when each block's
    own lo[0] and up[-1] are zero: elimination then passes nothing between
    the blocks, and each block's solution is that of its system alone, bit
    for bit.
    """
    *_, x, info = lapack.dgtsv(lo[1:], di, up[:-1], rhs)
    if info > 0:
        raise LinAlgError(f"singular tridiagonal system (pivot {info})")
    return x


@dataclass
class NutrientProfile:
    """Converged profile c(.; z); its radial slope ``c_r`` is derived.

    A batch holds ``z`` of shape (B,) and ``c`` of shape (B, n), the
    largest residual of its rows and the iterations of the row that took
    the most."""

    z: float
    c: np.ndarray
    grid: Grid
    residual: float
    iterations: int

    @property
    def c_r(self):
        return self.grid.derivative(self.c, symmetric_origin=True)


def solve_nutrient(model, z, grid, guess=None):
    """Solve the nutrient BVP at log-radius ``z``.

    Newton stops once the max-norm nonlinear residual is at most
    ``RESIDUAL_TOL * max(1, e^{2z} F(C_HI))``, floored at the rounding
    level of the h^-2 stencil.

    The solve always runs a batch, ``z`` of shape (B,) and ``guess`` of
    shape (B, n), and a scalar ``z`` is the batch of one.  It solves the B
    problems in one damped Newton iteration: the rows still iterating
    share one tridiagonal solve, a converged row freezes, and each row's
    line search halves its own step and rejects its own trials.  Every
    row's profile is the one its own solve gives, bit for bit.

    Parameters
    ----------
    model : RateModel
    z : float or array (B,)
        Log-radius; the consumption term scales with e^{2z}.
    grid : Grid
    guess : array (n,) or (B, n), optional
        Warm-start iterate (e.g. the profile at a nearby z); defaults to
        the constant boundary value 1.

    Returns
    -------
    NutrientProfile
        ``c`` of shape ``np.shape(z) + (n,)``: (n,) for a scalar ``z``.

    Raises
    ------
    DomainError
        If ``guess`` leaves the rates' validity interval (extended by
        ``rates.MARGIN``).
    ConvergenceError
        If damped Newton cannot reach the tolerance within
        ``NEWTON_MAXITER`` iterations, or the residual is not finite (NaN in
        ``z`` or ``guess``), in any row; or if any z exceeds ``Z_MAX``.
    """
    zb = np.asarray(z, dtype=float).reshape(-1)
    if (zb > Z_MAX).any():
        raise ConvergenceError(
            f"nutrient BVP at z={zb[np.argmax(zb > Z_MAX)]:g}: the log-radius "
            f"ran away past {Z_MAX:.0f}, where e^(2z) nears overflow")
    n = grid.n
    e2z = np.exp(2.0 * zb)
    load = e2z * abs(float(model.F.value(C_HI)))
    # a max-norm residual below rounding: 50 machine epsilons of the scale
    rounding = 50.0 * _MACHEPS * np.maximum(max(1.0, 1.0 / grid.h**2), load)
    tol_eff = np.maximum(RESIDUAL_TOL * np.maximum(1.0, load), rounding)
    # the rows laid end to end: one vector of length B*n, whose blocks the
    # zero couplings of the diffusion rows keep apart
    e2z = np.repeat(e2z, n)
    lo, di, up = _block_rows(grid, zb.size)
    c = (np.ones(zb.size * n) if guess is None
         else np.array(guess, dtype=float).reshape(-1))
    c[n - 1::n] = 1.0

    def residual(c):
        fv, dfv = model.F(c)
        R = di * c
        R[:-1] += up[:-1] * c[1:]
        R[1:] += lo[1:] * c[:-1]
        R -= e2z * fv
        R[n - 1::n] = c[n - 1::n] - 1.0
        return R, dfv

    def row_max(x):
        return np.abs(x).reshape(-1, n).max(axis=1)

    R, dfv = residual(check_domain(c, "nutrient solve"))
    lo_c, hi_c = DOMAIN
    rnorm = row_max(R)
    it = 0
    # a NaN residual iterates, and is reported, not accepted
    active = ~(rnorm <= tol_eff)
    while active.any():
        # the rows still iterating have all iterated ``it`` times
        if it >= NEWTON_MAXITER or not rnorm.max() < np.inf:
            # the first row whose residual is not finite, else the first
            # row still iterating
            rows = np.flatnonzero(active)
            b = rows[np.argmin(rnorm[rows] < np.inf)]
            raise ConvergenceError(
                f"nutrient BVP Newton stalled at z={zb[b]:g}: residual "
                f"{rnorm[b]:.3e} (target {tol_eff[b]:.3e})",
                residual=float(rnorm[b]))
        # every row is solved; only the rows still iterating take a step
        j_di = di - e2z * dfv
        j_di[n - 1::n] = 1.0
        delta = tri_solve(lo, j_di, up, -R)
        alpha = 1.0
        todo = active   # rows whose trial is not yet accepted
        while True:
            trial = c + alpha * delta
            if lo_c <= trial.min() and trial.max() <= hi_c:
                R_new, dfv_new = residual(trial)
                new_norm = row_max(R_new)
            else:
                # a row whose trial leaves the rates' validity margin
                # rejects it; its residual is taken at its current iterate
                bad = outside_domain(trial).reshape(-1, n).any(axis=1)
                R_new, dfv_new = residual(np.where(np.repeat(bad, n), c, trial))
                new_norm = np.where(bad, np.inf, row_max(R_new))
            ok = todo & (new_norm <= np.maximum((1.0 - 0.5 * alpha) * rnorm,
                                                tol_eff))
            if ok.all():
                c, R, dfv, rnorm = trial, R_new, dfv_new, new_norm
                break
            take = np.repeat(ok, n)
            c, R, dfv = (np.where(take, trial, c), np.where(take, R_new, R),
                         np.where(take, dfv_new, dfv))
            rnorm = np.where(ok, new_norm, rnorm)
            todo = todo & ~ok
            if not todo.any():
                break
            alpha *= 0.5
            if alpha < 1e-8:
                b = np.flatnonzero(todo)[0]
                raise ConvergenceError(
                    f"nutrient BVP line search stalled at z={zb[b]:g}: "
                    f"residual {rnorm[b]:.3e}", residual=float(rnorm[b]))
        it += 1
        active = ~(rnorm <= tol_eff)

    return NutrientProfile(z=z, c=c.reshape(np.shape(z) + (n,)), grid=grid,
                           residual=float(rnorm.max()), iterations=it)


def nutrient_sensitivity(model, profile):
    """dc/dz of a converged profile: the linearized problem of the module
    docstring, solved with the converged Newton Jacobian."""
    e2z = np.exp(2.0 * profile.z)
    lo, di, up = _diffusion_rows(profile.grid)
    fv, dfv = model.F(profile.c)
    j_di = di.copy()
    j_di[:-1] -= e2z * dfv[:-1]
    rhs = np.zeros_like(profile.c)
    rhs[:-1] = 2.0 * e2z * fv[:-1]
    return tri_solve(lo, j_di, up, rhs)


def flux_residual(profile, model):
    """Max-norm defect of the integrated flux identity.

    Integrating the BVP once gives c'(r) = e^{2z} r^-2 * int_0^r F(c) rho^2
    d rho; the returned residual compares the differentiated profile
    against the quadrature of the right-hand side and is O(h^2) for a
    converged profile.
    """
    grid = profile.grid
    e2z = np.exp(2.0 * profile.z)
    fv, _ = model.F(profile.c)
    integral = grid.cumulative_radial_integral(fv)
    rhs = np.zeros(grid.n)
    rhs[1:] = e2z * integral[1:] / grid.r[1:] ** 2
    return float(np.max(np.abs(profile.c_r - rhs)))


# The seven proven envelope bounds on the profile and its derivatives.
# Bounds 5 and 7 state the same inequality; both are checked as listed.
BOUND_NAMES = (
    "B1: 0 < c <= 1",
    "B2: c_r >= 0",
    "B3: c_z <= 0",
    "B4: c_r <= r F(1) e^{2z} / 3",
    "B5: c_z >= -(1 - r^2) F(1) e^{2z} / 3",
    "B6: -2 F(1) e^{2z} / 3 <= c_rr <= F(1) e^{2z}",
    "B7: c_z >= -(1 - r^2) F(1) e^{2z} / 3",
)


@dataclass
class BoundsEntry:
    z: float
    name: str
    margin: float  # worst signed relative margin over the grid
    passed: bool


@dataclass
class BoundsReport:
    entries: list

    @property
    def all_passed(self):
        return all(e.passed for e in self.entries)

    def lines(self):
        out = []
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            out.append(f"z={e.z:+.3f}  {e.name}: {status}  margin {e.margin:+.3e}")
        return out


def bounds_report(model, z_values, grid, rel_tol=1e-8):
    """Check the seven envelope bounds at each requested z.

    Margins are normalized by F(1) e^{2z} (or 1 where that scale
    degenerates) so a bound passes when its worst node sits no more than
    ``rel_tol`` below the proven envelope.  c_rr is recovered from the
    differential equation itself, c_rr = e^{2z} F(c) - (2/r) c_r, which at
    the discrete solution equals the second difference of the profile.
    """
    entries = []
    for z in z_values:
        prof = solve_nutrient(model, z, grid)
        e2z = np.exp(2.0 * float(z))
        f1 = float(model.F(np.array(1.0))[0])
        scale = f1 * e2z if f1 * e2z > 0 else 1.0
        r, c, c_r = grid.r, prof.c, prof.c_r
        c_z = nutrient_sensitivity(model, prof)

        c_rr = np.empty(grid.n)
        fv, _ = model.F(c)
        c_rr[1:] = e2z * fv[1:] - 2.0 / r[1:] * c_r[1:]
        c_rr[0] = e2z * fv[0] / 3.0

        lower_z = -(1.0 - r**2) * f1 * e2z / 3.0
        margins = (
            min(c.min(), (1.0 - c).min()),  # B1, scale 1
            c_r.min() / scale,
            (-c_z).min() / scale,
            (r * f1 * e2z / 3.0 - c_r).min() / scale,
            (c_z - lower_z).min() / scale,
            min((c_rr + 2.0 * f1 * e2z / 3.0).min(),
                (f1 * e2z - c_rr).min()) / scale,
            (c_z - lower_z).min() / scale,
        )
        for name, m in zip(BOUND_NAMES, margins):
            entries.append(BoundsEntry(z=float(z), name=name, margin=float(m),
                                       passed=bool(m >= -rel_tol)))
    return BoundsReport(entries=entries)
