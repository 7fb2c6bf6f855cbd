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

Cross-check method: direct construction.  For a trial log-radius z the
nutrient is the quasi-static profile, and the steady transport equation

    w(r) p'(r) = f(c(r), p(r)),     w = v - r v(1),

is solved self-consistently with the velocity quadrature by a Picard
iteration that marches the characteristic ODE inward from the rim by the
Hermite-Simpson rule (Lobatto IIIA: fourth order, A-stable).  Both
endpoints are rest points of w, so regularity pins p at the reaction's
equilibrium there, which attracts inward.  (Outward integration
amplifies seed errors by exp(int f_p / v dr), up to 1e10 for realistic
parameters.)  It shares only the cubic Hermite kernel with the primary
method.  The boundary velocity v(1; z) of the self-consistent solution
changes sign across the stationary log-radius, which brentq then
refines.  Behind ``solve_stationary`` the bracket starts at the
primary z* +- CHECK_HALF_WIDTH and doubles while v(1; z) keeps one sign;
each z is solved once.  Only the cross-check uses scipy's optimize,
which it imports when it runs.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketError, ConvergenceError
from .evolution import (SolverConfig, StepMap, hermite_eval,
                        velocity_from_state)
from .grid import Grid
from .nutrient import solve_nutrient
from .rates import (equilibrium_fraction, f_reaction, f_reaction_partials,
                    g_source, reaction_coefficients)

log = logging.getLogger("spheroid")

Z_INIT = 0.5          # log-radius the relaxation starts from
T_RELAX = 2000.0      # pseudo-time horizon shared by both relaxation phases
RELAX_LEVEL = 1e-2    # |F|_inf at which relaxation hands over to Newton
RELAX_DT = 0.25       # least pseudo-time step of the relaxation to RELAX_LEVEL
NEWTON_MAXITER = 20   # Newton iterations before a stall
CHORD_CONTRACTION = 0.5   # least |F|_2 contraction of a kept-Jacobian step
MIN_DAMPING = 2.0**-10    # shortest Newton step tried before a stall
JACOBIAN_ROWS = 32    # most Jacobian columns stepped in one batch
CHECK_HALF_WIDTH = 0.01      # first half-width of the cross-check's bracket
CHECK_MAX_HALF_WIDTH = 1.28  # its last: 0.01 doubled seven times
PICARD_SWEEPS = 80    # most sweeps of the cross-check's Picard loop
MARCH_NEWTON_MAXITER = 20   # Newton iterations of one cell of the march


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


def _steady_transport(model, c, grid):
    """Self-consistent steady transport profile for frozen nutrient ``c``.

    Picard iteration: rebuild the advection w from the current p and march
    p' = F(p) = f(c, p)/w inward from a one-term series start at r = 1 - 2h
    to r = 2h, until a sweep moves p by less than 1e-12.  Each cell solves
    q = y - h/6 (F_y + 4 F_m + F_q), y_m = (y + q)/2 - h/8 (F_y - F_q) by
    scalar Newton.  Returns (p, v1, iterations); ConvergenceError if a
    cell's Newton does not settle in MARCH_NEWTON_MAXITER iterations
    (naming r), or the loop in PICARD_SWEEPS sweeps.
    """
    h = grid.h
    p = equilibrium_fraction(model, c)
    c1 = float(c[-1])
    p1 = float(equilibrium_fraction(model, c1))
    f_c1, f_p1 = map(float, f_reaction_partials(model, c1, p1))
    c_r1 = float(grid.derivative(c, symmetric_origin=True)[-1])

    inner = np.arange(grid.n - 3, 1, -1)   # r = 1 - 2h inward to 2h
    # r at the march's nodes and cell midpoints, in turn
    x = (grid.n - 3 - 0.5 * np.arange(2 * inner.size - 1)) * h
    abd = np.array(reaction_coefficients(model, hermite_eval(c, x, grid))[:3])

    for it in range(1, PICARD_SWEEPS + 1):
        vel = velocity_from_state(model, c, p, grid)
        if np.max(np.abs(vel.w)) < 1e-12:
            # degenerate advection: steady state is the pointwise equilibrium
            p_new = equilibrium_fraction(model, c)
        else:
            w_r1 = float(g_source(model, c1, p1)) - 3.0 * float(vel.v1)
            denom = f_p1 - w_r1
            sigma = f_c1 * c_r1 / denom if abs(denom) > 1e-12 else 0.0
            w = hermite_eval(vel.w, x, grid)
            # F = a + b p - d p^2 at each point, 0 where w vanishes
            coef = (abd / np.where(np.abs(w) < 1e-14, np.inf, w)).T.tolist()
            p_new = p.copy()
            p_new[-1] = p1
            p_new[-2] = p1 + sigma * h
            y = p_new[-3] = p1 + sigma * 2.0 * h
            for i, j in zip(inner[1:], range(0, len(coef) - 1, 2)):
                (a0, b0, d0), (am, bm, dm), (a1, b1, d1) = coef[j:j + 3]
                f_y = a0 + (b0 - d0 * y) * y
                q = y
                for _ in range(MARCH_NEWTON_MAXITER):
                    f_q = a1 + (b1 - d1 * q) * q
                    m = 0.5 * (y + q) - h / 8.0 * (f_y - f_q)
                    f_m = am + (bm - dm * m) * m
                    fp_q = b1 - 2.0 * d1 * q
                    dq = (q - y + h / 6.0 * (f_y + 4.0 * f_m + f_q)) / (
                        1.0 + h / 6.0 * (fp_q + 4.0 * (bm - 2.0 * dm * m)
                                         * (0.5 + h / 8.0 * fp_q)))
                    q -= dq
                    if abs(dq) <= 1e-14:
                        break
                else:
                    raise ConvergenceError("steady transport march did not "
                                           f"settle at r={i * h:.6g}",
                                           residual=abs(dq))
                p_new[i] = y = q
            p_new[:2] = equilibrium_fraction(model, c[:2])
        move = float(np.max(np.abs(p_new - p)))
        p = np.clip(p_new, 0.0, 1.0)
        if move < 1e-12:
            break
    else:
        raise ConvergenceError(
            f"steady transport Picard did not settle (last move {move:.2e})",
            residual=move)
    return p, float(velocity_from_state(model, c, p, grid).v1), it


def stationary_by_bisection(model, grid, z_bracket):
    """Direct construction of the stationary log-radius.

    brentq (xtol 1e-10) on the self-consistent boundary velocity v(1; z)
    over ``z_bracket``; :class:`BracketError` if it keeps one sign there.
    Each z is solved once.
    """
    from scipy.optimize import brentq

    values = {}    # brentq evaluates the ends of the bracket again

    def v1_of_z(z):
        if z not in values:
            prof = solve_nutrient(model, z, grid)
            values[z] = _steady_transport(model, prof.c, grid)[1]
        return values[z]

    lo, hi = z_bracket
    v_lo, v_hi = v1_of_z(lo), v1_of_z(hi)
    if np.sign(v_lo) == np.sign(v_hi):
        raise BracketError(
            f"v(1; z) keeps sign over [{lo:g}, {hi:g}]: "
            f"v1({lo:g})={v_lo:.3e}, v1({hi:g})={v_hi:.3e}")
    return float(brentq(v1_of_z, lo, hi, xtol=1e-10))


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
        Also record the direct construction's log-radius, bracketed
        around z*, in ``z_direct``.  The two discretize steady transport
        differently, so only a gap beyond max(10*tol, (h e^{z*})^2), an
        O(h^2) floor in the nutrient boundary layer, logs a warning.

    Raises
    ------
    ConvergenceError
        No certificate within T_RELAX units of pseudo-time, or a failure
        inside the solve (a singular Newton system, or a log-radius that
        runs away past ``nutrient.Z_MAX``, whose message names z);
        ``residual`` holds the last |F|_inf.
    BracketError
        Cross-check enabled and v(1; z) keeps one sign over z* +- w for
        every w = CHECK_HALF_WIDTH * 2^k up to CHECK_MAX_HALF_WIDTH; the
        message names the last bracket.
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
        # bracket around z*, the half-width doubling while v(1; z) keeps
        # one sign
        width = CHECK_HALF_WIDTH
        while solution.z_direct is None:
            try:
                solution.z_direct = stationary_by_bisection(
                    model, grid, (solution.z - width, solution.z + width))
            except BracketError:
                if width >= CHECK_MAX_HALF_WIDTH:
                    raise
                width *= 2.0
        gap = abs(solution.z_direct - solution.z)
        threshold = max(10.0 * tol, (grid.h * np.exp(solution.z))**2)
        if gap > threshold:
            log.warning("stationary methods disagree: |dz| = %.3e "
                        "(threshold %.1e)", gap, threshold)
    return solution
