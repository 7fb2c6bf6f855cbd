"""Time integration of the rescaled two-species free-boundary system.

State lives on the fixed unit interval after the log-radius rescaling
R(t) = e^{z(t)}.  One splitting step computes the velocity field from the
current state, advances the proliferating fraction along characteristics
(semi-Lagrangian) and the log-radius (Heun, with the boundary velocity
re-evaluated at the predictor state), then updates the nutrient: an
implicit tridiagonal solve for eps > 0, or the quasi-static profile
c = m(.; z) for eps = 0.

The nutrient step reuses the same spatial stencil as the quasi-static
solver, so the scheme's stationary point is independent of eps and dt up
to interpolation effects: trajectories for every eps decay to the same
discrete stationary state.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from .errors import ConvergenceError, NumericsError
from .nutrient import _diffusion_rows, solve_nutrient, tri_solve
from .rates import check_domain, f_reaction, g_source
from .records import admissibility_report, deviation_norms

log = logging.getLogger("spheroid")

SPLITTINGS = ("lie", "heun")


@dataclass
class State:
    """Rescaled fields at one instant: time, log-radius, nutrient c,
    proliferating fraction p.  The quiescent fraction is implicit, q = 1 - p
    (the two species fill the tumor at constant total density)."""

    t: float
    z: float
    c: np.ndarray
    p: np.ndarray

    @property
    def radius(self):
        return float(np.exp(self.z))

    def copy(self):
        return State(t=self.t, z=self.z, c=self.c.copy(), p=self.p.copy())


@dataclass
class VelocityField:
    v: np.ndarray   # radial velocity, v(0) = 0
    w: np.ndarray   # effective advection w = v - r v(1); w(0) = w(1) = 0
    v1: float       # boundary velocity v(1)


@dataclass
class SolverConfig:
    """Scheme parameters; eps = 0 selects the quasi-static nutrient mode."""

    eps: float = 0.0
    dt: float = 0.02
    t_end: float = 80.0
    output_interval: float = 0.2
    splitting: str = "lie"       # "heun" enables the second-order composite
    clip_tol: float = 1e-10
    early_stop_floor: float = 0.0   # stop once all deviation norms drop below; 0 disables

    def __post_init__(self):
        for name in ("eps", "dt", "t_end", "output_interval"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.splitting not in SPLITTINGS:
            raise ValueError(f"splitting must be one of {SPLITTINGS}")
        if self.output_interval < self.dt:
            raise ValueError("output_interval must be >= dt")

    @property
    def steps_per_output(self):
        return max(1, round(self.output_interval / self.dt))


@dataclass
class ClipStats:
    """Range-enforcement bookkeeping: how often and how far fields left [0, 1]."""

    events: int = 0
    max_excess: float = 0.0

    def clip(self, arr, tol):
        excess = max(float(-arr.min()), float(arr.max() - 1.0), 0.0)
        if excess > tol:
            self.events += 1
            self.max_excess = max(self.max_excess, excess)
        if excess > 0.0:
            return np.clip(arr, 0.0, 1.0)
        return arr


def velocity_from_state(model, state, grid):
    """Velocity field induced by the volume source g(c, p).

    v(r) = r^-2 * int_0^r g(c, p) rho^2 d rho via the exact-weight
    product-trapezoid rule; v(0) = 0 and w = v - r v(1) vanish exactly at
    both endpoints.
    """
    g = g_source(model, state.c, state.p)
    integral = grid.cumulative_radial_integral(g)
    v = np.zeros(grid.n)
    v[1:] = integral[1:] / grid.r[1:] ** 2
    v1 = float(v[-1])
    w = v - grid.r * v1
    w[-1] = 0.0
    return VelocityField(v=v, w=w, v1=v1)


def pchip_slopes(y, h):
    """Fritsch-Carlson slopes of each row of ``y`` (k, n) on a uniform grid.

    Inside: the harmonic mean of the adjacent secants, or 0 where they
    differ in sign or either vanishes.  Ends: the shape-preserving
    three-point rule.  This is scipy's PchipInterpolator specialised to a
    uniform grid.
    """
    m = (y[:, 1:] - y[:, :-1]) / h
    sm = np.sign(m)
    same = sm[:, :-1] * sm[:, 1:] > 0.0
    m0 = np.where(same, m[:, :-1], 1.0)
    m1 = np.where(same, m[:, 1:], 1.0)
    d = np.empty_like(y)
    d[:, 1:-1] = np.where(same, 2.0 / (1.0 / m0 + 1.0 / m1), 0.0)
    # end secant and its neighbour, at r = 0 and r = 1
    e0 = m[:, [0, -1]]
    e1 = m[:, [1, -2]]
    de = 0.5 * (3.0 * e0 - e1)
    overshoot = (np.sign(e0) != np.sign(e1)) & (np.abs(de) > 3.0 * np.abs(e0))
    de = np.where(overshoot, 3.0 * e0, de)
    d[:, [0, -1]] = np.where(np.sign(de) != np.sign(e0), 0.0, de)
    return d


def hermite_eval(y, d, x, h):
    """Cubic Hermite interpolant of ``y`` (n,) or of each row of ``y`` (k, n)
    with nodal slopes ``d`` on the uniform grid r_i = i h, evaluated at
    ``x`` in [0, 1]: returns (len(x),) or (k, len(x)).  Cell i = floor(x/h),
    clamped to n - 2 so x = 1 falls in the last cell."""
    i = np.minimum((x / h).astype(np.intp), y.shape[-1] - 2)
    s = x - i * h
    y0, y1 = y.take(i, axis=-1), y.take(i + 1, axis=-1)
    d0, d1 = d.take(i, axis=-1), d.take(i + 1, axis=-1)
    m = (y1 - y0) / h
    t = (d0 + d1 - 2.0 * m) / h
    return y0 + s * (d0 + s * ((m - d0) / h - t + s * (t / h)))


def transport_step(model, state, vel, dt, grid, c_head=None, w_override=None):
    """Semi-Lagrangian update of the proliferating fraction over one step.

    Feet of the backward characteristics of dr/ds = w(r) are traced with
    midpoint RK2 (w frozen over the step, interpolated at the midpoints by
    the cubic Hermite interpolant with the slopes of
    :meth:`Grid.derivative`, which are linear in w), clamped to [0, 1]
    (they cannot leave, since w vanishes at both endpoints; clamping only
    absorbs rounding).  p and c are interpolated at the feet with the
    monotonicity-preserving Fritsch-Carlson cubic (PCHIP); both
    interpolants are the uniform-grid Hermite kernel :func:`hermite_eval`,
    and p and c share one pass of it.  Then p is integrated along the
    characteristic with Heun's method, evaluating the reaction at the foot
    (nutrient at the step start) and at the head (``c_head``, defaulting to
    the step-start nutrient at the node).

    Raises ValueError if the advection velocity or the feet are not finite.
    """
    r, h = grid.r, grid.h
    w = vel.w if w_override is None else w_override
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite advection velocity in transport")
    r_mid = np.clip(r - 0.5 * dt * w, 0.0, 1.0)
    w_mid = hermite_eval(w, grid.derivative(w), r_mid, h)
    feet = np.clip(r - dt * w_mid, 0.0, 1.0)
    if not np.all(np.isfinite(feet)):
        raise ValueError("non-finite characteristic feet in transport")
    # w(0) = w(1) = 0 by construction: the endpoint feet are exact
    feet[0] = r[0]
    feet[-1] = r[-1]

    pc = np.stack((state.p, state.c))
    # rest points (w = 0, notably both endpoints) stay on their node and
    # evolve by the local reaction ODE alone; bypass interpolation noise
    p_foot, c_foot = np.where(feet == r, pc,
                              hermite_eval(pc, pchip_slopes(pc, h), feet, h))
    head = state.c if c_head is None else c_head

    k1 = f_reaction(model, c_foot, p_foot)
    p_pred = p_foot + dt * k1
    k2 = f_reaction(model, head, p_pred)
    return p_foot + 0.5 * dt * (k1 + k2)


def boundary_radius_step(state, vel, dt, vel_pred=None):
    """Heun update of the log-radius, dz/dt = v(1).

    ``vel_pred`` is the velocity re-evaluated at the predictor state; when
    omitted the step reduces to Euler, exact for v(1) constant in time.
    """
    v1_pred = vel.v1 if vel_pred is None else vel_pred.v1
    return state.z + 0.5 * dt * (vel.v1 + v1_pred)


def nutrient_step(model, state, vel, dt, eps, grid, z=None, v1=None):
    """One fully implicit step of the nutrient equation (eps > 0).

    eps e^{2z} c_t = c_rr + [2/r + eps e^{2z} r v(1)] c_r - e^{2z} F(c),
    with the consumption linearized about the current profile, z and v(1)
    frozen at the step start (overridable for time-centered composites),
    the r = 0 row using the symmetric-limit stencil, and c(1) = 1 imposed
    strongly.  The advection term eps e^{2z} v(1) r c_r is added to the
    grid's shared diffusion rows.

    Raises DomainError if the new profile leaves the rates' validity
    interval (extended by the model's margin).
    """
    if eps <= 0:
        raise ValueError("nutrient_step requires eps > 0; use solve_nutrient")
    z = state.z if z is None else z
    v1 = vel.v1 if v1 is None else v1
    e2z = np.exp(2.0 * z)
    beta = eps * e2z / dt
    lo, di, up = _diffusion_rows(grid)
    adv = eps * e2z * v1 * grid.r / (2.0 * grid.h)
    c = state.c
    fv, dfv = model.F(c)

    a_lo = adv - lo
    a_di = beta - (di - e2z * dfv)
    a_up = -(up + adv)
    rhs = beta * c + e2z * (dfv * c - fv)
    a_lo[-1] = 0.0
    a_di[-1] = 1.0
    rhs[-1] = 1.0
    try:
        c_new = tri_solve(a_lo, a_di, a_up, rhs)
    except LinAlgError as exc:
        raise NumericsError(f"singular nutrient system at t={state.t:g}") from exc
    return check_domain(model, c_new, "nutrient_step")


def step(model, state, grid, config, clip=None):
    """Advance the state by one splitting step of config.dt.

    Predictor: transport, Euler log-radius and nutrient update with the
    velocity of the current state.  The velocity re-evaluated at the
    predictor gives the Heun log-radius (eps = 0 re-solves the nutrient
    there); ``splitting="heun"`` also redoes transport and, for eps > 0,
    the nutrient step time-centered.  Fields are clipped to [0, 1]
    afterwards and clip events beyond config.clip_tol recorded.

    The nutrient is checked against the rates' validity interval where it
    enters: ``state.c`` here, every new profile in :func:`solve_nutrient`
    or :func:`nutrient_step`.  The feet values are PCHIP interpolants of
    ``state.c`` and stay within its range, so the rate formulas run
    unchecked.  Raises DomainError on a violation.
    """
    check_domain(model, state.c, "step")
    clip = ClipStats() if clip is None else clip
    dt, eps = config.dt, config.eps
    heun = config.splitting == "heun"
    vel = velocity_from_state(model, state, grid)

    p_new = transport_step(model, state, vel, dt, grid)
    z_pred = state.z + dt * vel.v1
    if eps == 0.0:
        c_pred = solve_nutrient(model, z_pred, grid, guess=state.c).c
    else:
        c_pred = nutrient_step(model, state, vel, dt, eps, grid)
    pred = State(t=state.t + dt, z=z_pred, c=c_pred, p=p_new)
    vel_pred = velocity_from_state(model, pred, grid)
    z_new = boundary_radius_step(state, vel, dt, vel_pred)

    if heun:
        p_new = transport_step(model, state, vel, dt, grid, c_head=c_pred,
                               w_override=0.5 * (vel.w + vel_pred.w))
    if eps == 0.0:
        c_new = solve_nutrient(model, z_new, grid, guess=c_pred).c
    elif heun:
        c_new = nutrient_step(model, state, vel, dt, eps, grid,
                              z=0.5 * (state.z + z_pred),
                              v1=0.5 * (vel.v1 + vel_pred.v1))
    else:
        c_new = c_pred

    c_new = clip.clip(c_new, config.clip_tol)
    p_new = clip.clip(np.asarray(p_new), config.clip_tol)
    return State(t=state.t + dt, z=z_new, c=c_new, p=p_new)


@dataclass
class SimResult:
    records: list          # DeviationRecord per output time
    aux: list              # (t, R, z, v1) per output time
    final_state: State
    clip: ClipStats
    warnings: list         # admissibility issues found at start
    stopped_early: bool


def simulate(model, init, grid, config, stationary, on_output=None,
             prev_output=None):
    """Integrate from ``init`` to config.t_end, recording deviation norms.

    Parameters
    ----------
    model : RateModel
    init : State
        Initial data; checked against the admissibility conditions
        (violations are logged and returned, not raised).  In quasi-static
        mode the initial nutrient profile is projected onto c = m(.; z0)
        first, since eps = 0 slaves c to z.
    grid : Grid
    config : SolverConfig
    stationary : StationarySolution
        Reference for deviation norms (same grid).
    on_output : callable, optional
        ``on_output(state, step_index, output_index, record)`` called at
        every output time (snapshot/persistence hook).
    prev_output : State, optional
        The output state a resumed run continues from, for the
        time-difference norms.  Without it the run is a fresh one and
        records ``init`` at init.t before stepping; with it the first
        record is the output after ``init``.

    Returns
    -------
    SimResult
        records/aux in output order; a failed step or a non-finite field
        raises :class:`NumericsError` carrying the last healthy output state.
    """
    if not (np.isfinite(init.z) and np.all(np.isfinite(init.c))
            and np.all(np.isfinite(init.p))):
        raise NumericsError("non-finite initial data")
    report = admissibility_report(init, stationary, grid)
    for issue in report.issues:
        log.warning("initial data: %s", issue)

    state = init.copy()
    if config.eps == 0.0:
        state.c = solve_nutrient(model, state.z, grid, guess=state.c).c

    records = []
    aux = []
    clip = ClipStats()
    prev = prev_output
    stopped_early = False
    k_out = config.steps_per_output
    n_steps = max(0, round((config.t_end - state.t) / config.dt))
    out_idx = 0

    def emit(step_index):
        profile = solve_nutrient(model, state.z, grid, guess=state.c)
        rec = deviation_norms(state, prev, stationary, profile)
        vel = velocity_from_state(model, state, grid)
        records.append(rec)
        aux.append((state.t, state.radius, state.z, vel.v1))
        if on_output is not None:
            on_output(state, step_index, out_idx, rec)
        return rec

    if prev_output is None:
        emit(0)
        out_idx += 1
        prev = state.copy()

    for k in range(1, n_steps + 1):
        try:
            state = step(model, state, grid, config, clip=clip)
        except (ValueError, FloatingPointError, ConvergenceError) as exc:
            raise NumericsError(f"step failed at t={state.t:g}: {exc}",
                                last_state=prev) from exc
        if not (np.isfinite(state.z) and np.all(np.isfinite(state.c))
                and np.all(np.isfinite(state.p))):
            raise NumericsError(
                f"non-finite state at t={state.t:g}",
                last_state=prev)
        if k % k_out == 0:
            rec = emit(k)
            out_idx += 1
            prev = state.copy()
            if (config.early_stop_floor > 0.0
                    and rec.max_norm() < config.early_stop_floor):
                stopped_early = True
                break

    if clip.events:
        log.warning("clipped fields beyond tolerance %d times (max excess %.3e)",
                    clip.events, clip.max_excess)
    return SimResult(records=records, aux=aux, final_state=state, clip=clip,
                     warnings=report.issues, stopped_early=stopped_early)
