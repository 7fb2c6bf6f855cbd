"""The nutrient operator: the quasi-static profile and the implicit step.

At frozen log-radius z the nutrient concentration solves the two-point
boundary value problem

    c''(r) + (2/r) c'(r) = e^{2z} F(c(r)),   c'(0) = 0,  c(1) = 1,

discretized with second-order central differences.  At r = 0 the operator
is replaced by its symmetric limit 3 c''(0) (ghost-node symmetry), which
the uniform grid resolves to 6 (c_1 - c_0) / h^2.  A damped Newton
iteration with the analytic Jacobian J = L - e^{2z} F'(c) solves the
nonlinear system; :func:`nutrient_sensitivity` gets dc/dz from one linear
solve with the profile's Jacobian, since it satisfies the linearized
problem

    u'' + (2/r) u' = e^{2z} F'(c) u + 2 e^{2z} F(c),  u'(0) = 0, u(1) = 0.

For eps > 0, :func:`nutrient_step` takes an implicit step whose matrix is
beta I - J plus advection, beta = eps e^{2z} / dt.  All three take a batch
of (B, n) rows and assemble J in one helper; only :func:`tri_solve` and
the product it inverts lay a batch's rows end to end.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, lapack

from .errors import ConvergenceError, NumericsError
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
def _diffusion_rows(grid, size):
    """Tridiagonal rows of L[c] = c_rr + (2/r) c_r for a batch of ``size``
    rows, built once per grid and batch size and shared read-only.

    Row 0 encodes the symmetric-limit stencil 6(c_1 - c_0)/h^2; the last
    row is an identity row for a strongly imposed Dirichlet value.  Returns
    the rows (lower, diag, upper), each (size, n), as :func:`tri_solve`
    takes them; lo[0] and up[-1] are zero.
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
    rows = tuple(np.tile(row, (size, 1)) for row in (lo, di, up))
    for row in rows:
        row.flags.writeable = False
    return rows


def _jacobian_diagonal(di, e2z, dfv):
    """Diagonal of the Newton Jacobian J = L - e^{2z} F'(c) from the
    diffusion diagonal ``di`` and ``dfv`` = F'(c), (B, n) or (n,) rows, and
    ``e2z`` per row; the Dirichlet row is an identity row."""
    j_di = di - e2z * dfv
    j_di[..., -1] = 1.0
    return j_di


def tri_solve(lo, di, up, rhs):
    """Direct solve (dgtsv) of the tridiagonal systems in the rows (..., n)
    of ``lo``, ``di``, ``up`` and ``rhs``; returns x shaped like ``rhs``.

    The rows are laid end to end and solve as one system.  A row's lo[0]
    and up[-1] (unused for a lone row) must be zero: elimination then
    passes nothing between rows, and each row's solution is its own
    system's, bit for bit.
    """
    *_, x, info = lapack.dgtsv(lo.ravel()[1:], di.ravel(), up.ravel()[:-1],
                               rhs.ravel())
    if info > 0:
        raise LinAlgError(f"singular tridiagonal system (pivot {info})")
    return x.reshape(rhs.shape)


def _tri_apply(lo, di, up, x):
    """The product that :func:`tri_solve` inverts: the tridiagonal rows
    applied to the rows of ``x``, all (B, n), laid end to end alike."""
    y = di * x
    flat, x = y.ravel(), x.ravel()
    flat[:-1] += up.ravel()[:-1] * x[1:]
    flat[1:] += lo.ravel()[1:] * x[:-1]
    return y


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
    # e^{2z} at every node: cheaper in the products than a column
    e2z = np.full((zb.size, n), e2z[:, None])
    lo, di, up = _diffusion_rows(grid, zb.size)
    c = (np.ones((zb.size, n)) if guess is None
         else np.array(guess, dtype=float).reshape(zb.size, n))
    c[:, -1] = 1.0

    def residual(c):
        fv, dfv = model.F(c)
        R = _tri_apply(lo, di, up, c)
        R -= e2z * fv
        R[:, -1] = c[:, -1] - 1.0
        return R, dfv

    R, dfv = residual(check_domain(c, "nutrient solve"))
    lo_c, hi_c = DOMAIN
    rnorm = np.abs(R).max(axis=1)
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
        delta = tri_solve(lo, _jacobian_diagonal(di, e2z, dfv), up, -R)
        alpha = 1.0
        todo = active   # rows whose trial is not yet accepted
        while True:
            trial = c + alpha * delta
            if lo_c <= trial.min() and trial.max() <= hi_c:
                R_new, dfv_new = residual(trial)
                new_norm = np.abs(R_new).max(axis=1)
            else:
                # a row whose trial leaves the rates' validity margin
                # rejects it; its residual is taken at its current iterate
                bad = outside_domain(trial).any(axis=1)
                R_new, dfv_new = residual(np.where(bad[:, None], c, trial))
                new_norm = np.where(bad, np.inf, np.abs(R_new).max(axis=1))
            ok = todo & (new_norm <= np.maximum((1.0 - 0.5 * alpha) * rnorm,
                                                tol_eff))
            if ok.all():
                c, R, dfv, rnorm = trial, R_new, dfv_new, new_norm
                break
            take = ok[:, None]
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


def nutrient_sensitivity(model, z, c, grid):
    """dc/dz of the profile ``c`` at ``z``, or of each row of a batch: the
    module docstring's linearized problem, with the Jacobian at ``c``."""
    e2z = np.asarray(np.exp(2.0 * z))[..., None]
    fv, dfv = model.F(c)
    rhs = 2.0 * e2z * fv
    rhs[..., -1] = 0.0
    lo, di, up = _diffusion_rows(grid, e2z.size)
    return tri_solve(lo, _jacobian_diagonal(di, e2z, dfv), up, rhs)


def nutrient_step(model, c, z, v1, dt, eps, grid):
    """One fully implicit step of the nutrient profile ``c`` (eps > 0).

    eps e^{2z} c_t = c_rr + [2/r + eps e^{2z} r v(1)] c_r - e^{2z} F(c),
    with the consumption linearized about the current profile, the
    log-radius ``z`` and boundary velocity ``v1`` frozen over the step
    (their step-start values, or time-centered ones for a composite),
    the r = 0 row using the symmetric-limit stencil, and c(1) = 1 imposed
    strongly.  The matrix is beta I - J, J the Newton Jacobian, plus the
    advection term eps e^{2z} v(1) r c_r.  A batch takes ``eps``, like
    ``z`` and ``v1``, as one scalar or as a (B,) array of per-row values.

    Raises ValueError unless every eps > 0, NumericsError if the system is
    singular, and DomainError if the new profile leaves the rates'
    validity interval (extended by ``rates.MARGIN``).
    """
    if not np.greater(eps, 0.0).all():
        raise ValueError("nutrient_step requires eps > 0; use solve_nutrient")
    e2z, v1, eps = (np.asarray(x)[..., None]
                    for x in (np.exp(2.0 * z), v1, eps))
    beta = eps * e2z / dt
    adv = eps * e2z * v1 * grid.r / (2.0 * grid.h)
    lo, di, up = _diffusion_rows(grid, e2z.size)
    fv, dfv = model.F(c)

    a_lo = adv - lo
    a_di = beta - _jacobian_diagonal(di, e2z, dfv)
    a_up = -(up + adv)
    rhs = beta * c + e2z * (dfv * c - fv)
    # the r = 0 row has no lower neighbour and the Dirichlet row is an
    # identity row, as tri_solve needs of the rows of a batch
    a_lo[..., 0] = 0.0
    a_lo[..., -1] = 0.0
    a_di[..., -1] = 1.0
    a_up[..., -1] = 0.0
    rhs[..., -1] = 1.0
    try:
        c_new = tri_solve(a_lo, a_di, a_up, rhs)
    except LinAlgError as exc:
        raise NumericsError("singular nutrient system") from exc
    return check_domain(c_new, "nutrient_step")


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
        c_z = nutrient_sensitivity(model, z, c, grid)

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
