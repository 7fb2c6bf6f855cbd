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

The stepping functions take a batch of states that share t, dt and the
grid: z of shape (B,), and c and p of shape (B, n).  Every operation acts
along the last axis or elementwise, and the tridiagonal systems of the
rows are one LAPACK call, so each row of a batched step is, bit for bit,
the step of that state alone.  A single :class:`State` (z a float, c and
p of shape (n,)) is the batch of one.  The rows of a batch may differ in
eps: those with eps = 0 solve the quasi-static nutrient and the others
take the implicit step, while everything else runs once over all rows.
"""

import copy
import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError

from .errors import ConvergenceError, DomainError, NumericsError
from .nutrient import _diffusion_rows, solve_nutrient, tri_solve
from .rates import check_domain, f_reaction, g_source
from .records import admissibility_report, deviation_norms

log = logging.getLogger("spheroid")

SPLITTINGS = ("lie", "heun")


@dataclass
class State:
    """Rescaled fields at one instant: time, log-radius, nutrient c,
    proliferating fraction p.  The quiescent fraction is implicit, q = 1 - p
    (the two species fill the tumor at constant total density).

    A batch of B states at one time holds z of shape (B,) and c, p of shape
    (B, n); :meth:`row` takes one of them out, and a single state is the
    batch of one."""

    t: float
    z: float
    c: np.ndarray
    p: np.ndarray

    @property
    def radius(self):
        return float(np.exp(self.z))

    def copy(self):
        return State(t=self.t, z=np.copy(self.z) if np.ndim(self.z) else self.z,
                     c=self.c.copy(), p=self.p.copy())

    def row(self, b):
        """Row ``b`` of a batch, as a single state of its own."""
        if np.ndim(self.z) == 0:
            return self.copy()
        return State(t=self.t, z=float(self.z[b]), c=self.c[b].copy(),
                     p=self.p[b].copy())

    def take(self, rows):
        """The batch of the rows selected by ``rows`` (indices or a mask)."""
        return State(t=self.t, z=self.z[rows], c=self.c[rows], p=self.p[rows])


def _stack(states):
    """The batch of ``states``, which share their time (a copy of the one
    state when there is one)."""
    if len(states) == 1:
        return states[0].copy()
    return State(t=states[0].t, z=np.array([s.z for s in states], dtype=float),
                 c=np.stack([s.c for s in states]),
                 p=np.stack([s.p for s in states]))


@dataclass
class VelocityField:
    v: np.ndarray   # radial velocity, v(0) = 0
    w: np.ndarray   # effective advection w = v - r v(1); w(0) = w(1) = 0
    v1: float       # boundary velocity v(1); (B,) for a batch


@dataclass
class SolverConfig:
    """Scheme parameters; eps = 0 selects the quasi-static nutrient mode."""

    eps: float = 0.0
    dt: float = 0.02
    t_end: float = 80.0
    output_interval: float = 0.2
    splitting: str = "lie"       # "heun" enables the second-order composite
    clip_tol: float = 1e-10

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


def _clip_rows(arr, tol, clips):
    """Clip each row of ``arr`` to [0, 1]; a row's excess beyond ``tol`` is
    an event in its own ClipStats, one of ``clips``."""
    if arr.min() >= 0.0 and arr.max() <= 1.0:
        return arr
    rows = arr.reshape(len(clips), -1)
    excess = np.maximum(np.maximum(-rows.min(axis=1), rows.max(axis=1) - 1.0),
                        0.0)
    for b in np.flatnonzero(excess > tol):
        clips[b].events += 1
        clips[b].max_excess = max(clips[b].max_excess, float(excess[b]))
    over = excess > 0.0
    rows = rows.copy()
    rows[over] = np.clip(rows[over], 0.0, 1.0)
    return rows.reshape(arr.shape)


def velocity_from_state(model, state, grid):
    """Velocity field induced by the volume source g(c, p).

    v(r) = r^-2 * int_0^r g(c, p) rho^2 d rho via the exact-weight
    product-trapezoid rule; v(0) = 0 and w = v - r v(1) vanish exactly at
    both endpoints.
    """
    g = g_source(model, state.c, state.p)
    integral = grid.cumulative_radial_integral(g)
    v = np.zeros(integral.shape)
    v[..., 1:] = integral[..., 1:] / grid.r[1:] ** 2
    v1 = float(v[-1]) if v.ndim == 1 else v[:, -1].copy()
    w = v - grid.r * _col(v1)
    w[..., -1] = 0.0
    return VelocityField(v=v, w=w, v1=v1)


def _col(x):
    """Per-row scalars of a batch as a column against its (B, n) rows; a
    single state's scalar as it is."""
    return x[:, None] if np.ndim(x) else x


def hermite_eval(y, d, x, h):
    """Cubic Hermite interpolant of ``y`` (n,) or of each row of ``y`` (k, n)
    with nodal slopes ``d`` on the uniform grid r_i = i h, evaluated at
    ``x`` in [0, 1]: returns (len(x),) or (k, len(x)).  Cell i = floor(x/h),
    clamped to n - 2 so x = 1 falls in the last cell.

    Per-row points ``x`` of shape (B, m) evaluate row b of ``y`` (..., B, n)
    at ``x[b]``, returning (..., B, m); the nodes are gathered by flat
    index into the rows laid end to end."""
    n = y.shape[-1]
    i = np.minimum((x / h).astype(np.intp), n - 2)
    s = x - i * h
    if x.ndim > 1:
        lead = y.shape[:-2] + (-1,)
        y, d = y.reshape(lead), d.reshape(lead)
        i = i + n * np.arange(len(x))[:, None]
    y0, d0 = y.take(i, axis=-1), d.take(i, axis=-1)
    i = i + 1
    y1, d1 = y.take(i, axis=-1), d.take(i, axis=-1)
    m = (y1 - y0) / h
    t = (d0 + d1 - 2.0 * m) / h
    return y0 + s * (d0 + s * ((m - d0) / h - t + s * (t / h)))


def transport_step(model, state, vel, dt, grid, c_head=None, w_override=None):
    """Semi-Lagrangian update of the proliferating fraction over one step.

    Feet of the backward characteristics of dr/ds = w(r) are traced with
    midpoint RK2 (w frozen over the step, interpolated at the midpoints),
    clamped to [0, 1] (they cannot leave, since w vanishes at both
    endpoints; clamping only absorbs rounding), and p and c are
    interpolated at the feet.  All three interpolants are the cubic
    Hermite kernel :func:`hermite_eval` with the slopes of
    :meth:`Grid.derivative`, which are linear in the field, so the step is
    a smooth map of the state; p and c share one pass of the kernel.
    Unlike a limited (monotone) cubic, it may overshoot the nodes that
    bracket a foot; :func:`step` clips p to [0, 1] and counts the events.
    Then p is integrated along the characteristic with Heun's method,
    evaluating the reaction at the foot (nutrient at the step start) and at
    the head (``c_head``, defaulting to the step-start nutrient at the
    node).

    Raises ValueError if the advection velocity or the feet are not finite.
    """
    r, h = grid.r, grid.h
    w = vel.w if w_override is None else w_override
    if not np.isfinite(w).all():
        raise ValueError("non-finite advection velocity in transport")
    r_mid = (r - 0.5 * dt * w).clip(0.0, 1.0)
    w_mid = hermite_eval(w, grid.derivative(w), r_mid, h)
    feet = (r - dt * w_mid).clip(0.0, 1.0)
    if not np.isfinite(feet).all():
        raise ValueError("non-finite characteristic feet in transport")
    # w(0) = w(1) = 0 by construction: the endpoint feet are exact
    feet[..., 0] = r[0]
    feet[..., -1] = r[-1]

    pc = np.stack((state.p, state.c))
    # rest points (w = 0, notably both endpoints) stay on their node and
    # evolve by the local reaction ODE alone; bypass interpolation noise
    p_foot, c_foot = np.where(feet == r, pc,
                              hermite_eval(pc, grid.derivative(pc), feet, h))
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
    grid's shared diffusion rows.  A batch takes ``eps``, like ``z`` and
    ``v1``, as one scalar or as a (B,) array of per-row values.

    Raises ValueError unless every eps > 0, and DomainError if the new
    profile leaves the rates' validity interval (extended by the model's
    margin).
    """
    per_row = isinstance(eps, np.ndarray)
    if not ((eps > 0.0).all() if per_row else eps > 0.0):
        raise ValueError("nutrient_step requires eps > 0; use solve_nutrient")
    z = state.z if z is None else z
    v1 = vel.v1 if v1 is None else v1
    e2z = _col(np.exp(2.0 * z))
    v1 = _col(v1)
    eps = eps[:, None] if per_row else eps
    beta = eps * e2z / dt
    lo, di, up = _diffusion_rows(grid)
    adv = eps * e2z * v1 * grid.r / (2.0 * grid.h)
    c = state.c
    fv, dfv = model.F(c)

    a_lo = adv - lo
    a_di = beta - (di - e2z * dfv)
    a_up = -(up + adv)
    rhs = beta * c + e2z * (dfv * c - fv)
    # the r = 0 row has no lower neighbour and the Dirichlet row is an
    # identity row, so the rows of a batch laid end to end solve as one
    a_lo[..., 0] = 0.0
    a_lo[..., -1] = 0.0
    a_di[..., -1] = 1.0
    a_up[..., -1] = 0.0
    rhs[..., -1] = 1.0
    try:
        c_new = tri_solve(a_lo.ravel(), a_di.ravel(), a_up.ravel(),
                          rhs.ravel()).reshape(c.shape)
    except LinAlgError as exc:
        raise NumericsError(f"singular nutrient system at t={state.t:g}") from exc
    return check_domain(model, c_new, "nutrient_step")


def _rows(x, rows):
    """Rows ``rows`` of a batch's field, per-row scalars or :class:`State`;
    all of ``x`` for rows None."""
    if rows is None:
        return x
    return x.take(rows) if isinstance(x, State) else x[rows]


def _by_eps(eps, c, quasi, implicit):
    """The new nutrient of each row of a batch: ``quasi(rows)`` gives it
    for the rows with eps = 0, ``implicit(rows)`` for those with eps > 0.

    When every row is of one kind (always so for a scalar eps) only that
    call runs, with rows None for the whole batch; else each gets its row
    indices, and their profiles fill an array shaped like ``c``.
    """
    if not isinstance(eps, np.ndarray):
        return quasi(None) if eps == 0.0 else implicit(None)
    zero = eps == 0.0
    if zero.all():
        return quasi(None)
    if not zero.any():
        return implicit(None)
    new = np.empty_like(c)
    for fill, rows in ((quasi, np.flatnonzero(zero)),
                       (implicit, np.flatnonzero(~zero))):
        new[rows] = fill(rows)
    return new


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
    or :func:`nutrient_step`.  The feet values are cubic interpolants of
    ``state.c``, which may leave its range by O(h^3), far inside the
    rates' margin (0.5 by default) beyond the validity interval, so the
    rate formulas run unchecked.  Raises DomainError on a violation.

    A batched ``state`` takes ``clip`` as a list of one ClipStats per row,
    and ``config.eps`` may then be a (B,) array of per-row values (the
    private batched loop sets one): the nutrient of the rows with eps = 0
    and of the others is updated by their own solver, on their rows only.
    """
    check_domain(model, state.c, "step")
    if clip is None:
        clip = [ClipStats() for _ in np.atleast_1d(state.z)]
    clips = clip if isinstance(clip, list) else [clip]
    dt, eps = config.dt, config.eps
    heun = config.splitting == "heun"
    vel = velocity_from_state(model, state, grid)

    p_new = transport_step(model, state, vel, dt, grid)
    z_pred = state.z + dt * vel.v1
    c_pred = _by_eps(
        eps, state.c,
        lambda rows: solve_nutrient(model, _rows(z_pred, rows), grid,
                                    guess=_rows(state.c, rows)).c,
        lambda rows: nutrient_step(model, _rows(state, rows), vel, dt,
                                   _rows(eps, rows), grid,
                                   v1=_rows(vel.v1, rows)))
    pred = State(t=state.t + dt, z=z_pred, c=c_pred, p=p_new)
    vel_pred = velocity_from_state(model, pred, grid)
    z_new = boundary_radius_step(state, vel, dt, vel_pred)

    if heun:
        p_new = transport_step(model, state, vel, dt, grid, c_head=c_pred,
                               w_override=0.5 * (vel.w + vel_pred.w))

    def corrector(rows):
        if not heun:
            return _rows(c_pred, rows)
        return nutrient_step(model, _rows(state, rows), vel, dt,
                             _rows(eps, rows), grid,
                             z=_rows(0.5 * (state.z + z_pred), rows),
                             v1=_rows(0.5 * (vel.v1 + vel_pred.v1), rows))

    c_new = _by_eps(
        eps, state.c,
        lambda rows: solve_nutrient(model, _rows(z_new, rows), grid,
                                    guess=_rows(c_pred, rows)).c,
        corrector)

    c_new = _clip_rows(c_new, config.clip_tol, clips)
    p_new = _clip_rows(np.asarray(p_new), config.clip_tol, clips)
    return State(t=state.t + dt, z=z_new, c=c_new, p=p_new)


@dataclass
class SimResult:
    records: list          # DeviationRecord per output time
    aux: list              # (t, R, z, v1) per output time
    final_state: State
    clip: ClipStats
    warnings: list         # admissibility issues found at start


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
        records/aux in output order; non-finite initial data, an initial
        nutrient outside the rates' validity interval, a failed step or
        nutrient solve, or a non-finite field raises
        :class:`NumericsError`, carrying the last healthy output state
        once there is one.
    """
    result, = _simulate_batch(model, [init], grid, config, stationary,
                             on_output, prev_output)
    if isinstance(result, NumericsError):
        raise result
    return result


def _check_init(model, init):
    if not (np.isfinite(init.z) and np.all(np.isfinite(init.c))
            and np.all(np.isfinite(init.p))):
        raise NumericsError("non-finite initial data")
    try:
        check_domain(model, init.c, "initial data")
    except DomainError as exc:
        raise NumericsError(str(exc)) from exc


def _config_of_rows(config, eps):
    """``config`` for a batch whose rows have the eps of the (B,) ``eps``:
    their one value when they agree, so that such a batch steps as a lone
    run does, else the array itself, which :func:`step` reads per row."""
    if (eps == eps[0]).all():
        return replace(config, eps=float(eps[0]))
    rows = copy.copy(config)
    rows.eps = eps
    return rows


# what a failed initial projection, step or output nutrient solve raises
_STEP_ERRORS = (ValueError, FloatingPointError, ConvergenceError,
                NumericsError)


def _attempt(call, *args):
    """``call(*args)``, or the error in :data:`_STEP_ERRORS` it raises."""
    try:
        return call(*args)
    except _STEP_ERRORS as exc:
        return exc


def _simulate_batch(model, inits, grid, config, stationary, on_output=None,
                   prev_output=None, eps=None):
    """:func:`simulate` of each of ``inits``, which share their start time,
    stepped together as one batch.  ``eps``, one per cell, replaces
    ``config.eps``, so cells of several eps share the batch.

    Returns one :class:`SimResult` per cell, or the :class:`NumericsError`
    that cell's own run raises, so a failing cell ends alone: rejected
    initial data, a non-finite row, or a row whose initial projection,
    step or output nutrient solve raises when run alone.  A call that
    raises for the batch runs again for each row alone; the rows that
    still raise leave the batch there.  Every other cell's records, final
    state and clip counts are those of its solo run, bit for bit.
    ``on_output`` gets each cell's state at every output and
    ``prev_output`` needs a single cell.
    """
    results = [None] * len(inits)
    issues = {}
    cells = []   # index into inits of each row of the batch
    for i, init in enumerate(inits):
        try:
            _check_init(model, init)
        except NumericsError as exc:
            results[i] = exc
            continue
        issues[i] = admissibility_report(init, grid).issues
        for issue in issues[i]:
            log.warning("initial data: %s", issue)
        cells.append(i)
    if not cells:
        return results

    state = _stack([inits[i] for i in cells])
    eps = np.asarray([config.eps] * len(inits) if eps is None else eps,
                     dtype=float)[cells]
    config = _config_of_rows(config, eps)
    records = {i: [] for i in cells}
    aux = {i: [] for i in cells}
    clips = {i: ClipStats() for i in cells}
    prev = None if prev_output is None else prev_output.copy()
    k_out = config.steps_per_output
    n_steps = max(0, round((config.t_end - state.t) / config.dt))
    out_idx = 0

    def keep(rows):
        # a batch narrowed to one row is a lone state, as in its solo run
        nonlocal state, prev, cells, eps, config
        if rows.all():
            return
        kept = np.flatnonzero(rows)
        cells = [cells[b] for b in kept]
        if cells:
            state = _stack([state.row(b) for b in kept])
            if prev is not None:
                prev = _stack([prev.row(b) for b in kept])
            eps = eps[kept]
            config = _config_of_rows(config, eps)

    def each_row(call):
        # call(state, config, cells) -> State on the batch; where it raises,
        # on each row alone (a lone row is not re-run), and a row that
        # raises alone ends its cell; the rows left return stacked
        try:
            return call(state, config, cells)
        except _STEP_ERRORS as exc:
            outs = [exc] if len(cells) == 1 else [
                _attempt(call, state.row(b), _config_of_rows(config, eps[[b]]),
                         [i]) for b, i in enumerate(cells)]
        failed = np.array([isinstance(out, Exception) for out in outs])
        for b in np.flatnonzero(failed):
            last = None if prev is None else prev.row(b)
            err = NumericsError(f"step failed at t={state.t:g}: {outs[b]}",
                                last_state=last)
            err.__cause__ = outs[b]
            results[cells[b]] = err
        keep(~failed)
        if cells:
            return _stack([out for out, bad in zip(outs, failed) if not bad])

    def project(s, cfg, _):
        # eps = 0 slaves c to z: c = m(.; z)
        return replace(s, c=_by_eps(
            cfg.eps, s.c,
            lambda rows: solve_nutrient(model, _rows(s.z, rows), grid,
                                        guess=_rows(s.c, rows)).c,
            lambda rows: _rows(s.c, rows)))

    def advance(s, cfg, rows):
        return step(model, s, grid, cfg, clip=[clips[i] for i in rows])

    def emit(step_index):
        # the state's own quasi-static profile m(.; z), for eta_dev
        profile = each_row(lambda s, cfg, _: replace(
            s, c=solve_nutrient(model, s.z, grid, guess=s.c).c))
        if not cells:
            return
        recs = deviation_norms(state, prev, stationary, profile)
        recs = recs if isinstance(recs, list) else [recs]
        v1 = np.atleast_1d(velocity_from_state(model, state, grid).v1)
        z = np.atleast_1d(state.z)
        radius = np.exp(z)
        for b, i in enumerate(cells):
            records[i].append(recs[b])
            aux[i].append((state.t, float(radius[b]), float(z[b]),
                           float(v1[b])))
            if on_output is not None:
                on_output(state.row(b), step_index, out_idx, recs[b])

    state = each_row(project)
    if cells and prev_output is None:
        emit(0)
        out_idx += 1
        prev = state.copy()

    for k in range(1, n_steps + 1):
        if not cells:
            break
        state = each_row(advance)
        if cells:
            finite = np.atleast_1d(np.isfinite(state.z)
                                   & np.isfinite(state.c).all(axis=-1)
                                   & np.isfinite(state.p).all(axis=-1))
            for b in np.flatnonzero(~finite):
                results[cells[b]] = NumericsError(
                    f"non-finite state at t={state.t:g}",
                    last_state=prev.row(b))
            keep(finite)
        if cells and k % k_out == 0:
            emit(k)
            out_idx += 1
            prev = state.copy()

    for b, i in enumerate(cells):
        if clips[i].events:
            log.warning("clipped fields beyond tolerance %d times "
                        "(max excess %.3e)", clips[i].events,
                        clips[i].max_excess)
        results[i] = SimResult(records=records[i], aux=aux[i],
                               final_state=state.row(b), clip=clips[i],
                               warnings=issues[i])
    return results
