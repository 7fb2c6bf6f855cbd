"""Time integration of the rescaled two-species free-boundary system.

State lives on the fixed unit interval after the log-radius rescaling
R(t) = e^{z(t)}.  One splitting step computes the velocity field from the
current state, advances the proliferating fraction along characteristics
(semi-Lagrangian) and the log-radius (Heun, with the boundary velocity
re-evaluated at the predictor state), then updates the nutrient by the
``nutrient`` module, which alone knows its operator: the implicit step
for eps > 0, or the quasi-static profile c = m(.; z) for eps = 0, one
Newton solve per step at the new log-radius after a tangent predictor.  The
implicit step's matrix is beta I - J plus advection, J the quasi-static
Newton Jacobian, so the scheme's stationary point is independent of eps
and dt up to interpolation effects: trajectories for every eps decay to
the same discrete stationary state.

The loop always steps a batch; a lone run is the batch of one.  A batch
shares t, dt and the grid: z of shape (B,), c and p of shape (B, n).  The
stepping functions act along the last axis, per-row scalars as columns
``x[..., None]``, so each row of a batched step is, bit for bit, the step
of that state alone.  A batch holds one kind of eps, so each step runs
one nutrient solver: every row has eps = 0, or every row has eps > 0, its
own value in the implicit step.  :class:`StepMap` is the eps = 0 step as
a map on x = (z, p).
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, NumericsError
from .grid import Grid
from .nutrient import nutrient_sensitivity, nutrient_step, solve_nutrient
from .rates import RateModel, check_domain, f_reaction, g_source
from .records import admissibility_report, deviation_norms

log = logging.getLogger("spheroid")

SPLITTINGS = ("lie", "heun")
# a field's excess beyond [0, 1] above this is a clip event
CLIP_TOL = 1e-10


@dataclass
class State:
    """Rescaled fields at one instant: time, log-radius, nutrient c,
    proliferating fraction p.  The quiescent fraction is implicit, q = 1 - p
    (the two species fill the tumor at constant total density).

    The loop always steps a batch, z of shape (B,) and c, p of shape
    (B, n), and a lone run is the batch of one; :meth:`row` takes a lone
    state (z a float, c and p of shape (n,)) out of a batch."""

    t: float
    z: float
    c: np.ndarray
    p: np.ndarray

    @property
    def radius(self):
        return float(np.exp(self.z))

    def row(self, b):
        """Row ``b`` of a batch, as a lone state of its own."""
        return State(t=self.t, z=float(self.z[b]), c=self.c[b].copy(),
                     p=self.p[b].copy())


def _stack(states):
    """The batch of the lone ``states``, which share their time."""
    return State(t=states[0].t, z=np.array([s.z for s in states], dtype=float),
                 c=np.stack([s.c for s in states]),
                 p=np.stack([s.p for s in states]))


@dataclass
class VelocityField:
    v: np.ndarray   # radial velocity, v(0) = 0
    w: np.ndarray   # effective advection w = v - r v(1); w(0) = w(1) = 0
    v1: np.ndarray  # boundary velocity v(1), one per row; 0-d when lone


@dataclass
class SolverConfig:
    """Scheme parameters; eps = 0 selects the quasi-static nutrient mode.
    A (B,) array eps gives each row of a batch its own value, all 0 or
    all > 0: one batch runs one nutrient solver."""

    eps: float = 0.0             # or a (B,) array, one per row of a batch
    dt: float = 0.02
    t_end: float = 80.0
    output_interval: float = 0.2
    # "heun" is the time-centred composite: second order at eps = 0 only,
    # since at eps > 0 its nutrient corrector is backward Euler
    splitting: str = "lie"

    def __post_init__(self):
        for name in ("eps", "dt", "t_end", "output_interval"):
            if not np.isfinite(value := getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if np.any(np.less(self.eps, 0.0)):
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if 0 < np.count_nonzero(self.eps) < np.size(self.eps):
            raise ValueError(f"eps must be all 0 or all > 0, got {self.eps}")
        for name in ("dt", "t_end"):
            if (value := getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.splitting not in SPLITTINGS:
            raise ValueError(f"splitting must be one of {SPLITTINGS}")
        if self.output_interval < self.dt:
            raise ValueError("output_interval must be >= dt")


@dataclass
class ClipStats:
    """Range-enforcement bookkeeping: how often and how far fields left [0, 1]."""

    events: int = 0
    max_excess: float = 0.0


def _clip_rows(arr, clips):
    """Clip each row of ``arr`` to [0, 1]; a row's excess beyond
    :data:`CLIP_TOL` is an event in its own ClipStats, one of ``clips``."""
    if arr.min() >= 0.0 and arr.max() <= 1.0:
        return arr
    rows = arr.reshape(len(clips), -1)
    excess = np.maximum(np.maximum(-rows.min(axis=1), rows.max(axis=1) - 1.0),
                        0.0)
    for b in np.flatnonzero(excess > CLIP_TOL):
        clips[b].events += 1
        clips[b].max_excess = max(clips[b].max_excess, float(excess[b]))
    over = excess > 0.0
    rows = rows.copy()
    rows[over] = np.clip(rows[over], 0.0, 1.0)
    return rows.reshape(arr.shape)


def velocity_from_state(model, c, p, grid):
    """Velocity field induced by the volume source g(c, p).

    v(r) = r^-2 * int_0^r g(c, p) rho^2 d rho via the exact-weight
    product-trapezoid rule; v(0) = 0 and w = v - r v(1) vanish exactly at
    both endpoints.
    """
    v = grid.cumulative_radial_integral(g_source(model, c, p))
    v[..., 1:] /= grid.r2
    w = v - grid.r * v[..., -1:]
    w[..., -1] = 0.0
    return VelocityField(v=v, w=w, v1=v[..., -1])


def hermite_eval(y, x, grid):
    """Cubic Hermite interpolant of each row of ``y`` on ``grid``, with the
    nodal slopes of :meth:`Grid.derivative`, at its own points in [0, 1]:
    row b of ``y`` (..., B, n) at ``x[b]``, ``x`` of shape (B, m) or (m,)
    for a lone row; returns (..., B, m).  Cell i = floor(x/h), clamped to
    n - 2 so x = 1 falls in the last cell; the nodes are gathered by flat
    index into the rows laid end to end."""
    h, n = grid.h, y.shape[-1]
    shape = y.shape[:-1] + x.shape[-1:]
    x = x.reshape(-1, x.shape[-1])
    i = np.minimum((x / h).astype(np.intp), n - 2)
    s = x - i * h
    i += grid.row_offsets(len(x))
    # slopes over the rows as one 2-D array, cheaper than over (..., B, n)
    d = grid.derivative(y.reshape(-1, n)).reshape(-1, n * len(x))
    y = y.reshape(d.shape)
    y0, d0 = y.take(i, axis=-1), d.take(i, axis=-1)
    i += 1
    y1, d1 = y.take(i, axis=-1), d.take(i, axis=-1)
    m = (y1 - y0) / h
    t = (d0 + d1 - 2.0 * m) / h
    y = y0 + s * (d0 + s * ((m - d0) / h - t + s * (t / h)))
    return y.reshape(shape)


def transport_step(model, state, w, c_head, dt, grid):
    """Semi-Lagrangian update of the proliferating fraction over one step.

    Feet of the backward characteristics of dr/ds = w(r), with the
    advection ``w`` frozen over the step, are traced with midpoint RK2 (w
    interpolated at the midpoints), clamped to [0, 1] (they cannot leave,
    since w vanishes at both endpoints; clamping only absorbs rounding),
    and p and c are interpolated at the feet.  All three interpolants are
    the cubic Hermite kernel :func:`hermite_eval`, whose slopes are linear
    in the field, so the step is a smooth map of the state; p and c share
    one pass of the kernel.
    Unlike a limited (monotone) cubic, it may overshoot the nodes that
    bracket a foot; :func:`step` clips p to [0, 1] and counts the events.
    Then p is integrated along the characteristic with Heun's method,
    evaluating the reaction at the foot (nutrient at the step start) and at
    the head (``c_head``, the nutrient at the node).

    Raises ValueError if the advection velocity or the feet are not finite.
    """
    r = grid.r
    if not np.isfinite(w).all():
        raise ValueError("non-finite advection velocity in transport")
    r_mid = (r - 0.5 * dt * w).clip(0.0, 1.0)
    w_mid = hermite_eval(w, r_mid, grid)
    feet = (r - dt * w_mid).clip(0.0, 1.0)
    if not np.isfinite(feet).all():
        raise ValueError("non-finite characteristic feet in transport")
    # w(0) = w(1) = 0 by construction: the endpoint feet are exact
    feet[..., 0] = r[0]
    feet[..., -1] = r[-1]

    pc = np.array((state.p, state.c))
    # rest points (w = 0, notably both endpoints) stay on their node and
    # evolve by the local reaction ODE alone; bypass interpolation noise
    p_foot, c_foot = np.where(feet == r, pc, hermite_eval(pc, feet, grid))

    k1 = f_reaction(model, c_foot, p_foot)
    p_pred = p_foot + dt * k1
    k2 = f_reaction(model, c_head, p_pred)
    return p_foot + 0.5 * dt * (k1 + k2)


def boundary_radius_step(state, vel, dt, vel_pred):
    """Heun update of the log-radius, dz/dt = v(1), with ``vel_pred`` the
    velocity re-evaluated at the predictor state."""
    return state.z + 0.5 * dt * (vel.v1 + vel_pred.v1)


def _quasi_static(model, state, grid):
    """``state`` with its nutrient projected onto c = m(.; z)."""
    return replace(state, c=solve_nutrient(model, state.z, grid,
                                           guess=state.c).c)


def step(model, state, grid, config, clip=None):
    """Advance the state by one splitting step of config.dt.

    Predictor: transport, Euler log-radius and nutrient update with the
    velocity of the current state; at eps = 0 the nutrient is the tangent
    c + (z_pred - z) dc/dz, dc/dz by :func:`nutrient_sensitivity` at the
    step's own (z, c).  The velocity re-evaluated at the predictor gives
    the Heun log-radius z_new, and at eps = 0 the step's one Newton solve,
    c = m(.; z_new) from the tangent there; ``splitting="heun"`` also
    redoes transport with the averaged velocity and, for eps > 0, the
    nutrient step at the averaged z and v(1).  That composite is second
    order in time at eps = 0 only: at eps > 0 its nutrient corrector is a
    backward Euler step, so the step is first order.  Fields are clipped
    to [0, 1] afterwards and clip events beyond :data:`CLIP_TOL` recorded.

    The nutrient is checked against the rates' validity interval where it
    enters: ``state.c`` here, the tangent, every new profile in
    :func:`solve_nutrient` or :func:`nutrient_step`.  The feet values are
    cubic interpolants of ``state.c``, which may leave its range by
    O(h^3), far inside the margin ``rates.MARGIN`` = 0.5 beyond the
    validity interval, so the rate formulas run unchecked.  Raises
    DomainError on a violation.

    A lone ``state`` steps as the batch of one and stays lone.  ``clip``
    is None or one ClipStats per row for the clip events.  One test of
    ``config.eps`` picks the nutrient solver for the whole batch, which
    holds one kind of eps (see :class:`SolverConfig`).
    """
    check_domain(state.c, "step")
    if clip is None:
        clip = [ClipStats() for _ in range(np.size(state.z))]
    dt, eps = config.dt, config.eps
    heun = config.splitting == "heun"
    vel = velocity_from_state(model, state.c, state.p, grid)

    p_new = transport_step(model, state, vel.w, state.c, dt, grid)
    z_pred = state.z + dt * vel.v1
    implicit = np.count_nonzero(eps)   # eps >= 0, one kind per batch
    if implicit:
        c_pred = nutrient_step(model, state.c, state.z, vel.v1, dt, eps, grid)
    else:
        c_z = nutrient_sensitivity(model, state.z, state.c, grid)
        tangent = state.c + np.expand_dims(dt * vel.v1, -1) * c_z
        c_pred = check_domain(tangent, "tangent predictor")
    vel_pred = velocity_from_state(model, c_pred, p_new, grid)
    z_new = boundary_radius_step(state, vel, dt, vel_pred)

    if heun:
        p_new = transport_step(model, state, 0.5 * (vel.w + vel_pred.w),
                               c_pred, dt, grid)
    if not implicit:
        guess = state.c + np.expand_dims(z_new - state.z, -1) * c_z
        c_new = solve_nutrient(model, z_new, grid, guess=guess).c
    elif heun:
        c_new = nutrient_step(model, state.c, 0.5 * (state.z + z_pred),
                              0.5 * (vel.v1 + vel_pred.v1), dt, eps, grid)
    else:
        c_new = c_pred

    c_new = _clip_rows(c_new, clip)
    p_new = _clip_rows(np.asarray(p_new), clip)
    return State(t=state.t + dt, z=z_new, c=c_new, p=p_new)


@dataclass
class StepMap:
    """Fixed-point residual F(x) = (step(x) - x)/dt of the eps = 0 step.

    x = (z, p) has shape (1 + n,), or (B, 1 + n) for a batch; only
    :meth:`pack` and :meth:`unpack` know this layout.  Each row of a batch
    is, bit for bit, F of that row alone.  ``calls`` and ``states`` count
    the step calls and the states stepped."""

    model: RateModel
    grid: Grid
    config: SolverConfig
    calls: int = field(default=0, init=False)
    states: int = field(default=0, init=False)

    @staticmethod
    def pack(z, p):
        """x of the log-radius ``z`` and the fraction ``p``."""
        return np.concatenate((np.expand_dims(z, -1), p), axis=-1)

    def unpack(self, x, guess):
        """State at x, c = m(.; z) by the loop's projection from ``guess``."""
        state = State(t=0.0, z=x[..., 0], c=guess, p=x[..., 1:])
        return _quasi_static(self.model, state, self.grid)

    def __call__(self, x, guess):
        """F(x) and the stepped nutrient, a warm start near x."""
        new = step(self.model, self.unpack(x, guess), self.grid, self.config)
        self.calls += 1
        self.states += np.size(new.z)
        return (self.pack(new.z, new.p) - x) / self.config.dt, new.c


@dataclass
class SimResult:
    records: list          # DeviationRecord per output time
    final_state: State
    clip: ClipStats
    warnings: list         # admissibility issues found at start


def simulate(model, init, grid, config, stationary, on_output=None):
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
    stationary : StationarySolution or None
        Reference for deviation norms (same grid).  None keeps no records
        and makes no ``on_output`` call: the run only steps to t_end.
    on_output : callable, optional
        ``on_output(state, step_index, output_index, record)`` called at
        every output time (snapshot/persistence hook), the first at
        init.t with ``init`` itself.

    Returns
    -------
    SimResult
        records in output order, none when ``stationary`` is None.
        Non-finite initial data, an initial nutrient outside the rates'
        validity interval, a failed initial projection, step or output
        nutrient solve, or a non-finite state after a step all raise one
        :class:`NumericsError`, "step failed at t=<step start>: <cause>",
        chained to its cause and carrying the last healthy output state
        (None if the run has no output before it fails).  A config.t_end
        that is not after init.t, or that rounds to no step of config.dt
        after it, raises ValueError.
    """
    result, = _simulate_batch(model, [init], grid, config, stationary,
                             on_output)
    if isinstance(result, NumericsError):
        raise result
    return result


def horizon_steps(config, t, start):
    """The number of steps of config.dt from ``t`` to config.t_end, where
    ``start`` names ``t`` ("the initial time", "the snapshot's").  Raises
    ValueError when config.t_end is not after ``t`` or rounds to no step
    after it."""
    if not config.t_end > t:
        raise ValueError(f"t_end = {config.t_end!r} is not after {start} "
                         f"t = {t!r}")
    n_steps = round((config.t_end - t) / config.dt)
    if n_steps < 1:
        raise ValueError(f"t_end = {config.t_end!r} rounds to no step of "
                         f"dt = {config.dt!r} after {start} t = {t!r}")
    return n_steps


# what a failed initial projection, step or output nutrient solve raises
_STEP_ERRORS = (ValueError, FloatingPointError, ConvergenceError,
                NumericsError)


def _attempt(call, *args):
    """``call(*args)``, or the error in :data:`_STEP_ERRORS` it raises."""
    try:
        return call(*args)
    except _STEP_ERRORS as exc:
        return exc


def _finite(state):
    """Whether every field of ``state`` is finite."""
    return (np.isfinite(state.z).all() and np.isfinite(state.c).all()
            and np.isfinite(state.p).all())


def _simulate_batch(model, inits, grid, config, stationary, on_output=None):
    """:func:`simulate` of each of ``inits``, which share their start time,
    stepped together as one batch; a lone run is the batch of one.
    ``config.eps`` is one float for all cells or one value per cell, all
    0 or all > 0.

    Returns one :class:`SimResult` per cell, or the :class:`NumericsError`
    that cell's own run raises, so a failing cell ends alone.  A cell
    leaves the batch one way, whatever the cause: the initial projection
    (which first rejects non-finite initial data and a nutrient outside
    the rates' interval), a step (which rejects a non-finite result) or
    an output's nutrient solve raises for the batch, the call runs again
    for each row as a batch of one, and the rows that still raise leave
    the batch there.  Every other cell's records, final state and clip
    counts are those of its solo run, bit for bit.  ``on_output`` gets
    each cell's state at every output.
    """
    results = [None] * len(inits)
    cells = list(range(len(inits)))   # index into inits of each row
    state = _stack(inits)
    n_steps = horizon_steps(config, state.t, "the initial time")
    # one eps per row from here on, narrowed with the batch by each_row
    config = replace(config, eps=np.broadcast_to(config.eps, len(inits)))
    records = {i: [] for i in cells}
    clips = {i: ClipStats() for i in cells}
    prev = None
    k_out = max(1, round(config.output_interval / config.dt))
    out_idx = 0   # the index of emit's next output

    def each_row(call):
        # call(state, config, cells) -> State on the batch; where it raises,
        # on each row as a batch of one (one row is not re-run), where a
        # raise ends its cell; the batch narrows to the rows left
        nonlocal state, prev, cells, config
        try:
            return call(state, config, cells)
        except _STEP_ERRORS as exc:
            outs = [exc] if len(cells) == 1 else [
                _attempt(call, _stack([state.row(b)]),
                         replace(config, eps=config.eps[[b]]), [i])
                for b, i in enumerate(cells)]
        for b, out in enumerate(outs):
            if isinstance(out, Exception):
                last = None if prev is None else prev.row(b)
                err = NumericsError(f"step failed at t={state.t:g}: {out}",
                                    last_state=last)
                err.__cause__ = out
                results[cells[b]] = err
        kept = [b for b, out in enumerate(outs)
                if not isinstance(out, Exception)]
        cells = [cells[b] for b in kept]
        if not cells:
            return None
        state = _stack([state.row(b) for b in kept])
        if prev is not None:
            prev = _stack([prev.row(b) for b in kept])
        config = replace(config, eps=config.eps[kept])
        return _stack([outs[b].row(0) for b in kept])

    def project(s, cfg, _):
        if not _finite(s):
            raise ValueError("non-finite initial data")
        check_domain(s.c, "initial data")
        return (s if np.count_nonzero(cfg.eps)
                else _quasi_static(model, s, grid))

    def advance(s, cfg, rows):
        # the rows' clip counts change only when the step succeeds, so a
        # row re-run alone counts its clips once
        counts = [ClipStats(clips[i].events, clips[i].max_excess)
                  for i in rows]
        new = step(model, s, grid, cfg, clip=counts)
        if not _finite(new):
            raise FloatingPointError(f"non-finite state at t={new.t:g}")
        clips.update(zip(rows, counts))
        return new

    def emit(step_index):
        # records the state's output; it is the next output's prev
        nonlocal prev, out_idx
        if stationary is None:
            return
        # m(.; z) for eta_dev; at eps = 0 it is the state's own c
        profile = (each_row(lambda s, cfg, _: _quasi_static(model, s, grid))
                   if np.count_nonzero(config.eps) else state)
        if not cells:
            return
        v1 = velocity_from_state(model, state.c, state.p, grid).v1
        recs = deviation_norms(state, prev, stationary, profile, v1)
        for b, i in enumerate(cells):
            records[i].append(recs[b])
            if on_output is not None:
                on_output(state.row(b), step_index, out_idx, recs[b])
        out_idx += 1
        # no step changes a state in place, so prev may share its arrays
        prev = state

    state = each_row(project)
    issues = {i: admissibility_report(inits[i], grid) for i in cells}
    for i in cells:
        for issue in issues[i]:
            log.warning("initial data: %s", issue)
    if cells:
        emit(0)

    for k in range(1, n_steps + 1):
        if not cells:
            break
        state = each_row(advance)
        if cells and k % k_out == 0:
            emit(k)

    for b, i in enumerate(cells):
        if clips[i].events:
            log.warning("clipped fields beyond tolerance %d times "
                        "(max excess %.3e)", clips[i].events,
                        clips[i].max_excess)
        results[i] = SimResult(records=records[i], final_state=state.row(b),
                               clip=clips[i], warnings=issues[i])
    return results
