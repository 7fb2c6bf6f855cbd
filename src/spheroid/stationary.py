"""Stationary solution of the rescaled free-boundary system.

Primary method: the fixed point x = (z, p) of one eps = 0 evolution step,
with c slaved to z by the quasi-static solve, so simulations measure
deviations against a state the scheme keeps.  ``evolution.StepMap`` lays
out x and projects c; this module only moves x.  Pseudo-time relaxation
in steps of max(dt, RELAX_DT) brings F(x) = (step(x) - x)/dt to |F|_inf
<= RELAX_LEVEL: far from the root the step only has to point the right
way (pseudo-transient continuation; Kelley & Keyes 1998).  Newton on F
for the caller's own dt (a timestepper's Newton; Tuckerman & Barkley
2000) then certifies |F|_inf <= tol/10.  Its Jacobian is the dense
forward-difference one, whose 1 + n columns are stepped as the rows of
batches of at most JACOBIAN_ROWS states; the linear system is solved
directly.  The Jacobian is kept while its full step contracts |F|_2 by
CHORD_CONTRACTION (the chord method; Kelley, "Solving Nonlinear
Equations with Newton's Method", 2003); otherwise it is rebuilt and the
step backtracks on |F|_2.  The transport step is a
smooth map (its cubic has unlimited slopes), so Newton converges fast;
where it still stalls, the relaxation resumes with the caller's dt to
the same level.  Both relaxation phases share T_RELAX units of
pseudo-time.  At |F|_inf = tol, p is still ~1.6e-6 from the fixed point
(N=201, tol=1e-6), which perturbed runs' deviation norms reach while
their rates are fitted.

Cross-check: Newton on the steady eps = 0 equations themselves,

    G(z, p) = (v(1), -w p' + f(c, p)) = 0,     w = v - r v(1),

with c = m(.; z) by the step map's projection and p' by
``Grid.derivative``, from the certified (z*, p*) and by the primary
solve's own Newton, until |G|_inf <= tol.  It shares the nutrient solve,
the velocity quadrature and ``Grid.derivative`` with the scheme, but
neither the Hermite kernel, the transport step, its splitting nor dt.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .evolution import SolverConfig, StepMap, velocity_from_state
from .grid import Grid
from .nutrient import solve_nutrient
from .rates import equilibrium_fraction, f_reaction

log = logging.getLogger("spheroid")

Z_INIT = 0.5          # log-radius the relaxation starts from
T_RELAX = 2000.0      # pseudo-time horizon shared by both relaxation phases
RELAX_LEVEL = 1e-2    # |F|_inf at which relaxation hands over to Newton
RELAX_DT = 0.25       # least pseudo-time step of the relaxation to RELAX_LEVEL
NEWTON_MAXITER = 20   # Newton iterations before a stall
CHORD_CONTRACTION = 0.5   # least |F|_2 contraction of a kept-Jacobian step
MIN_DAMPING = 2.0**-10    # shortest Newton step tried before a stall
JACOBIAN_ROWS = 32    # most Jacobian columns stepped in one batch


@dataclass
class StationarySolution:
    """Stationary quadruple with residual diagnostics."""

    z: float
    c: np.ndarray
    p: np.ndarray
    v: np.ndarray
    grid: Grid
    v1_residual: float          # |v(1)| of the returned fields
    transport_residual: float   # max interior |-v p' + f(c, p)|
    step_calls: int             # step calls of the solve, batched or not
    states_stepped: int         # states those calls stepped
    jacobians: int              # dense Jacobians Newton built
    z_direct: float = None      # cross-check value, if computed

    @property
    def radius(self):
        return float(np.exp(self.z))


def _steady_residual(step_map, x, guess):
    """G at x = (z, p), and c = m(.; z) projected from ``guess``, a warm
    start near x: the boundary velocity v(1), then the steady transport
    residual -w p' + f(c, p) at each node (w vanishes at both ends)."""
    state = step_map.unpack(x, guess)
    vel = velocity_from_state(step_map.model, state.c, state.p, step_map.grid)
    transport = (-vel.w * step_map.grid.derivative(state.p)
                 + f_reaction(step_map.model, state.c, state.p))
    return step_map.pack(vel.v1, transport), state.c


def _jacobian(F, x, f, c):
    """Forward-difference Jacobian of ``F`` at x, where F(x) = f: column j
    is (F(x + h_j e_j) - f)/h_j with h_j = sqrt(machine eps) max(1, |x_j|),
    and the columns are stepped as the rows of batches of at most
    JACOBIAN_ROWS, each warm-started from the nutrient c."""
    size = x.size
    h = (x + np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))) - x
    jac = np.empty((size, size))
    for cols in np.array_split(np.arange(size),
                               -(-size // JACOBIAN_ROWS)):
        rows = np.tile(x, (cols.size, 1))
        rows[np.arange(cols.size), cols] += h[cols]
        f_cols, _ = F(rows, np.tile(c, (cols.size, 1)))
        jac[:, cols] = ((f_cols - f) / h[cols, None]).T
    return jac


def _newton(F, x, c, f_tol):
    """Newton on ``F`` from x, warm-started from the nutrient c, until
    |F|_inf <= f_tol.  Each iteration first takes the full step of the
    kept Jacobian and accepts it if F is finite and |F|_2 falls by the
    factor CHORD_CONTRACTION.  Otherwise (and at the first iteration) it
    rebuilds the dense Jacobian at x and halves that step until |F|_2
    falls by the Armijo fraction; a trial with a non-finite F is
    rejected.  Returns (x, c, |F(x)|_inf, Jacobians built) at the last
    accepted iterate, which a stall leaves above f_tol."""
    f, c = F(x, c)
    norm = float(np.max(np.abs(f)))
    jac, built = None, 0
    for _ in range(NEWTON_MAXITER):
        if norm <= f_tol:
            break
        norm2 = np.linalg.norm(f)
        if jac is not None:
            trial = x + np.linalg.solve(jac, -f)
            f_trial, c_trial = F(trial, c)
        if jac is None or not _below(f_trial, CHORD_CONTRACTION * norm2):
            jac = _jacobian(F, x, f, c)
            built += 1
            dx = np.linalg.solve(jac, -f)
            damping = 1.0
            while True:
                trial = x + damping * dx
                f_trial, c_trial = F(trial, c)
                if _below(f_trial, (1.0 - 1e-4 * damping) * norm2):
                    break
                damping *= 0.5
                if damping < MIN_DAMPING:
                    return x, c, norm, built
        x, f, c = trial, f_trial, c_trial
        norm = float(np.max(np.abs(f)))
    return x, c, norm, built


def _below(f, bound):
    """Whether f is finite with |f|_2 <= bound."""
    return bool(np.isfinite(f).all() and np.linalg.norm(f) <= bound)


def solve_stationary(model, grid, tol=1e-6, config=None, *, cross_check):
    """Compute the stationary solution with residual diagnostics.

    Parameters
    ----------
    model : RateModel
        Should satisfy the (A1)-(A5) checks; the relaxation leans on the
        asymptotic stability they provide.
    grid : Grid
    tol : float
        The x = (z, p) whose ``StepMap.unpack`` is returned has
        |step(x) - x|_inf/dt <= tol/10; finite and > 0, else ValueError.
    config : SolverConfig, optional
        Scheme whose fixed point is sought (eps is forced to 0); runs that
        measure deviations against the result should use the same dt.
    cross_check : bool, keyword-only and required
        Also record in ``z_direct`` the log-radius of Newton on the steady
        equations, stopped at |G|_inf <= tol.  The two discretize steady
        transport differently, so only a gap beyond max(10*tol,
        (h e^{z*})^2), an O(h^2) floor in the nutrient boundary layer, logs
        a warning.

    Raises
    ------
    ConvergenceError
        No certificate within T_RELAX units of pseudo-time, or a failure
        inside the solve (a singular Newton system, or a log-radius that
        runs away past ``nutrient.Z_MAX``, whose message names z);
        ``residual`` holds the last |F|_inf.  The cross-check's stall
        (|G|_inf above tol, or not finite) or failure names it; a stall's
        ``residual`` holds the last accepted |G|_inf.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    config = replace(config or SolverConfig(), eps=0.0)
    fine = StepMap(model, grid, config)
    coarse_dt = max(config.dt, RELAX_DT)
    coarse = StepMap(model, grid, replace(
        config, dt=coarse_dt,
        output_interval=max(config.output_interval, coarse_dt)))
    c = solve_nutrient(model, Z_INIT, grid).c
    x = fine.pack(Z_INIT, equilibrium_fraction(model, c))
    norm = np.inf    # last |F|_inf
    t_left = T_RELAX   # pseudo-time left to both relaxation phases

    def relax(x, level, F):
        # pseudo-time steps x <- x + dt F(x) until |F|_inf <= level; c is
        # re-solved, warm-started, at each step
        nonlocal c, norm, t_left
        dt = F.config.dt
        steps_per_check = max(1, round(1.0 / dt))
        for k in range(round(t_left / dt)):
            f, c = F(x, c)
            norm = float(np.max(np.abs(f)))
            if k % steps_per_check == 0 and norm <= level:
                t_left -= k * dt
                return x
            x = x + dt * f
        raise ConvergenceError(f"relaxation not at |F| <= {level:g} by "
                               f"t={T_RELAX:g}", residual=norm)

    try:
        # far from the root the step only has to point the right way
        x = relax(x, RELAX_LEVEL, coarse)
        x, c, norm, jacobians = _newton(fine, x, c, 0.1 * tol)
        if norm > 0.1 * tol:
            # a stall; relaxation still converges
            x = relax(x, 0.1 * tol, fine)
    except (ConvergenceError, ValueError, FloatingPointError) as exc:
        raise ConvergenceError(
            f"stationary solve failed at |F|_inf = {norm:.3e}: {exc}",
            residual=norm) from exc
    state = fine.unpack(x, c)
    vel = velocity_from_state(model, state.c, state.p, grid)
    p_r = grid.derivative(state.p)
    transport = -vel.v * p_r + f_reaction(model, state.c, state.p)
    solution = StationarySolution(
        z=float(state.z), c=state.c, p=state.p, v=vel.v, grid=grid,
        v1_residual=abs(float(vel.v1)),
        transport_residual=float(np.max(np.abs(transport[1:-1]))),
        step_calls=coarse.calls + fine.calls,
        states_stepped=coarse.states + fine.states, jacobians=jacobians,
    )

    if cross_check:
        # Newton on the steady equations from the certified state
        try:
            x, _, norm, _ = _newton(
                lambda x, guess: _steady_residual(fine, x, guess),
                x, state.c, tol)
        except (ConvergenceError, ValueError, FloatingPointError) as exc:
            raise ConvergenceError(
                f"stationary cross-check failed: {exc}",
                residual=getattr(exc, "residual", None)) from exc
        if not norm <= tol:
            raise ConvergenceError("stationary cross-check stalled at "
                                   f"|G|_inf = {norm:.3e}", residual=norm)
        solution.z_direct = float(x[0])
        gap = abs(solution.z_direct - solution.z)
        threshold = max(10.0 * tol, (grid.h * np.exp(solution.z))**2)
        if gap > threshold:
            log.warning("stationary methods disagree: |dz| = %.3e "
                        "(threshold %.1e)", gap, threshold)
    return solution
