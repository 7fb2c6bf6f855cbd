"""Stationary solution of the rescaled free-boundary system.

Primary method: pseudo-time relaxation.  The quasi-static evolution is
integrated from smooth admissible data until all per-unit-time increments
fall below tolerance; asymptotic stability of the stationary state makes
this converge, and the frozen fields inherit the scheme's own fixed point
(so later simulations measure deviations against a reference they actually
decay to).

Cross-check method: direct construction.  For a trial log-radius z the
nutrient is the quasi-static profile, and the steady transport equation

    w(r) p'(r) = f(c(r), p(r)),     w = v - r v(1),

is solved self-consistently with the velocity quadrature by a Picard
iteration whose inner step integrates the characteristic ODE *inward* from
the rim.  Both endpoints are rest points of w, so regularity pins p at the
reaction's equilibrium fraction there; inward integration follows the
direction in which that equilibrium attracts.  (Outward integration is the
mirror image and amplifies seed errors by exp(int f_p / v dr), which
reaches 1e10 for realistic parameters, so it cannot serve as an oracle;
the inward sweep is the numerically sound orientation.)  The boundary
velocity v(1; z) of the self-consistent solution changes sign across the
stationary log-radius, which brentq then refines.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import BracketError, ConvergenceError
from .evolution import SolverConfig, State, step, velocity_from_state
from .grid import Grid
from .nutrient import solve_nutrient
from .rates import _kinetics, f_reaction, f_reaction_partials, g_source

log = logging.getLogger("spheroid")


def equilibrium_fraction(model, c):
    """Root in [0, 1] of the reaction f(c, .).

    Closed form of the concave quadratic: p = [(K_M - K_N) +
    sqrt((K_M - K_N)^2 + 4 K_M K_P)] / (2 K_M), which lies in [0, 1]
    because f(c, 0) >= 0 >= f(c, 1).  Degenerate K_M -> 0 reduces f to an
    affine function with root K_P / K_N (0 if both vanish).
    """
    km, kn, kp = _kinetics(model, np.asarray(c, dtype=float))
    disc = (km - kn) ** 2 + 4.0 * km * kp
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = ((km - kn) + np.sqrt(disc)) / (2.0 * km)
        lin = np.where(kn > 0.0, kp / np.where(kn > 0.0, kn, 1.0), 0.0)
    out = np.where(km > 1e-12, quad, lin)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


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
    nutrient_gap: float         # sup |c - m(.; z)|
    z_direct: float = None      # cross-check value, if computed
    method: str = "relaxation"

    @property
    def radius(self):
        return float(np.exp(self.z))


def _steady_transport(model, c, grid, tol=1e-12, max_iter=80):
    """Self-consistent steady transport profile for frozen nutrient ``c``.

    Picard iteration: from the current p, rebuild the velocity quadrature
    and advection w; re-integrate w p' = f(c, p) inward from the rim with
    a one-term series start at r = 1 - 2h; repeat until the profile stops
    moving.  Returns (p, v1, iterations).
    """
    r, h = grid.r, grid.h
    c_sp = CubicSpline(r, c)
    p = equilibrium_fraction(model, c)
    c1 = float(c[-1])
    p1 = float(equilibrium_fraction(model, c1))
    _, f_c1, f_p1 = f_reaction_partials(model, c1, p1)
    c_r1 = float((11.0 * c[-1] - 18.0 * c[-2] + 9.0 * c[-3] - 2.0 * c[-4]) / (6.0 * h))

    r_start = 1.0 - 2.0 * h
    r_end = 2.0 * h
    inner = np.where((r <= r_start + 1e-13) & (r >= r_end - 1e-13))[0][::-1]
    core = r < r_end - 1e-13

    for it in range(1, max_iter + 1):
        vel = velocity_from_state(model, State(0.0, 0.0, c, p), grid)
        if np.max(np.abs(vel.w)) < 1e-12:
            # degenerate advection: steady state is the pointwise equilibrium
            p_new = equilibrium_fraction(model, c)
        else:
            w_sp = CubicSpline(r, vel.w)
            w_r1 = float(g_source(model, c1, p1)) - 3.0 * vel.v1
            denom = f_p1 - w_r1
            sigma = f_c1 * c_r1 / denom if abs(denom) > 1e-12 else 0.0

            def rhs(rr, y):
                wv = float(w_sp(rr))
                if abs(wv) < 1e-14:
                    return [0.0]
                return [f_reaction(model, float(c_sp(rr)), y[0]) / wv]

            sol = solve_ivp(rhs, (r_start, r_end), [p1 + sigma * 2.0 * h],
                            method="RK45", rtol=1e-11, atol=1e-14,
                            t_eval=r[inner])
            if not sol.success:
                raise ConvergenceError(
                    f"steady transport integration failed: {sol.message}")
            p_new = p.copy()
            p_new[inner] = sol.y[0]
            p_new[core] = equilibrium_fraction(model, c[core])
            p_new[-1] = p1
            p_new[-2] = p1 + sigma * h
        move = float(np.max(np.abs(p_new - p)))
        p = np.clip(p_new, 0.0, 1.0)
        if move < tol:
            break
    else:
        raise ConvergenceError(
            f"steady transport Picard did not settle (last move {move:.2e})",
            residual=move)
    vel = velocity_from_state(model, State(0.0, 0.0, c, p), grid)
    return p, vel.v1, it


def stationary_by_bisection(model, grid, z_bracket=(-1.0, 2.5), xtol=1e-10,
                            bvp_tol=1e-10):
    """Direct construction of the stationary log-radius.

    Brackets the root of the self-consistent boundary velocity v(1; z)
    over ``z_bracket`` and refines with brentq.  Raises
    :class:`BracketError` when v(1; z) does not change sign there.
    """
    def v1_of_z(z):
        prof = solve_nutrient(model, z, grid, tol=bvp_tol)
        _, v1, _ = _steady_transport(model, prof.c, grid)
        return v1

    lo, hi = z_bracket
    v_lo, v_hi = v1_of_z(lo), v1_of_z(hi)
    if np.sign(v_lo) == np.sign(v_hi):
        raise BracketError(
            f"v(1; z) keeps sign over [{lo:g}, {hi:g}]: "
            f"v1({lo:g})={v_lo:.3e}, v1({hi:g})={v_hi:.3e}")
    return float(brentq(v1_of_z, lo, hi, xtol=xtol))


def _relax(model, grid, config, tol, z_init, t_max, quiet_intervals=10):
    """Integrate the quasi-static system until increments stall."""
    prof = solve_nutrient(model, z_init, grid, tol=config.bvp_tol)
    state = State(t=0.0, z=z_init, c=prof.c,
                  p=equilibrium_fraction(model, prof.c))
    steps_per_check = max(1, round(1.0 / config.dt))
    n_steps = round(t_max / config.dt)
    quiet = 0
    threshold = 0.5 * tol
    move = np.inf
    for k in range(1, n_steps + 1):
        prev = state
        state = step(model, state, grid, config)
        if k % steps_per_check == 0:
            move = max(abs(state.z - prev.z),
                       float(np.max(np.abs(state.c - prev.c))),
                       float(np.max(np.abs(state.p - prev.p)))) / config.dt
            quiet = quiet + 1 if move < threshold else 0
            if quiet >= quiet_intervals:
                return state
    raise ConvergenceError(
        f"relaxation not stationary by t={t_max:g} "
        f"(last increment rate {move:.3e}, target {threshold:.3e})",
        residual=move)


def solve_stationary(model, grid, tol=1e-6, config=None, cross_check=True,
                     z_bracket=(-1.0, 2.5), z_init=0.5, t_max=2000.0):
    """Compute the stationary solution with residual diagnostics.

    Parameters
    ----------
    model : RateModel
        Should satisfy the (A1)-(A5) checks; the relaxation leans on the
        asymptotic stability they provide.
    grid : Grid
    tol : float
        Stationarity tolerance: the relaxation stops once all per-unit-
        time increments stay below tol/2 for ten consecutive unit
        intervals, which puts |v(1)| below tol with room to spare.
    config : SolverConfig, optional
        Scheme used for the relaxation (eps is forced to 0).  Defaults to
        the standard solver settings; simulations that measure deviations
        against the result should use the same dt and grid.
    cross_check : bool
        Also compute the stationary log-radius by the direct construction
        and record it in ``z_direct``.  The two methods discretize the
        steady transport differently, so their gap carries an O(h^2)
        floor on top of the solver tolerance; disagreement beyond
        max(10*tol, h^2) logs a warning.
    z_bracket, z_init, t_max :
        Search interval for the direct method, relaxation start, and
        relaxation horizon.

    Raises
    ------
    ConvergenceError
        Relaxation not settled by ``t_max``.
    BracketError
        Cross-check enabled and v(1; z) keeps one sign over the bracket.
    """
    if config is None:
        config = SolverConfig()
    if config.eps != 0.0:
        config = SolverConfig(**{**config.__dict__, "eps": 0.0})

    state = _relax(model, grid, config, tol, z_init, t_max)
    vel = velocity_from_state(model, state, grid)
    prof = solve_nutrient(model, state.z, grid, tol=config.bvp_tol,
                          guess=state.c)
    p_r = np.gradient(state.p, grid.h, edge_order=2)
    residual = -vel.v * p_r + f_reaction(model, state.c, state.p)
    solution = StationarySolution(
        z=float(state.z), c=state.c, p=state.p, v=vel.v, grid=grid,
        v1_residual=abs(vel.v1),
        transport_residual=float(np.max(np.abs(residual[1:-1]))),
        nutrient_gap=float(np.max(np.abs(state.c - prof.c))),
    )

    if cross_check:
        solution.z_direct = stationary_by_bisection(
            model, grid, z_bracket=z_bracket, bvp_tol=config.bvp_tol)
        solution.method = "relaxation+direct"
        gap = abs(solution.z_direct - solution.z)
        if gap > max(10.0 * tol, grid.h**2):
            log.warning("stationary methods disagree: |dz| = %.3e "
                        "(threshold %.1e)", gap, max(10.0 * tol, grid.h**2))
    return solution
