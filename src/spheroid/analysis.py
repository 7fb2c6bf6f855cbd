"""Perturbation studies: admissible initial data, decay-rate fits,
stability experiment matrices, and self-convergence orders.
"""

import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, NumericsError
from .evolution import (SolverConfig, State, _quasi_static, _simulate_batch,
                        _stack, horizon_steps, step)
from .grid import Grid
from .rates import Rate
from .records import DeviationRecord
from .stationary import solve_stationary

log = logging.getLogger("spheroid")

PERTURBATION_SHAPES = ("poly", "cosine", "random")
# fraction of a norm series' usable samples, counted from the end, that
# fit_decay fits; the discarded head absorbs the nonmodal transient
FIT_WINDOW = 0.5


def _shape_profiles(shape, r, rng):
    """Return (phi_c, psi, xi): c-shape, p-shape, z-offset factor.

    All shapes satisfy phi(1) = 0 and phi'(0) = 0 so the perturbed data
    keep c(1) = 1 and the symmetry condition; sup|phi| = 1 and |xi| <= 1.
    """
    if shape == "poly":
        phi = 1.0 - r**2
        return phi, phi, 1.0
    if shape == "cosine":
        phi = np.cos(np.pi * r / 2.0)
        return phi, phi, -1.0
    if shape == "random":
        def modes():
            # smooth random combination of even cosine modes vanishing at r=1
            mix = np.zeros_like(r)
            for k, a in enumerate(rng.standard_normal(4)):
                mix += a * np.cos((2 * k + 1) * np.pi * r / 2.0)
            return mix / np.max(np.abs(mix))
        phi = modes()
        return phi, modes(), float(rng.uniform(-1.0, 1.0))
    raise ValueError(f"unknown perturbation shape {shape!r}; "
                     f"choose from {PERTURBATION_SHAPES}")


def admissible_init(stationary, delta, shape="poly", seed=0):
    """Perturbed admissible initial data around the stationary solution.

    c0 = clamp(c* + delta*phi, 0, 1) with phi(1) = 0 and phi'(0) = 0,
    p0 = clamp(p* + delta*psi, 0, 1), z0 = z* + delta*xi with |xi| <= 1.
    ``seed`` only matters for the "random" shape.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    grid = stationary.grid
    r = grid.r
    rng = np.random.default_rng(seed)
    phi, psi, xi = _shape_profiles(shape, r, rng)

    c0 = np.clip(stationary.c + delta * phi, 0.0, 1.0)
    c0[-1] = 1.0
    p0 = np.clip(stationary.p + delta * psi, 0.0, 1.0)
    z0 = stationary.z + delta * xi

    clipped = (np.sum(stationary.c + delta * phi != c0)
               + np.sum(stationary.p + delta * psi != p0))
    if clipped > 0.01 * 2 * grid.n:
        log.warning("perturbation clamped at %d of %d nodes", clipped, 2 * grid.n)
    return State(t=0.0, z=float(z0), c=c0, p=p0)


@dataclass
class DecayFit:
    mu: float        # fitted exponential rate (positive = decay)
    prefactor: float
    t_start: float
    t_end: float
    r_squared: float
    n_points: int


def fit_decay(series, floor=1e-13):
    """Least-squares exponential fit on the tail of a norm time series:
    the last :data:`FIT_WINDOW` of its usable samples (those above
    ``floor``).

    Parameters
    ----------
    series : sequence of (t, value)
    floor : float
        Values at or below this are treated as numerical noise and
        excluded.

    Returns
    -------
    DecayFit
        mu is minus the slope of log(value) against t; the prefactor is
        exp(intercept).  The line is the least-squares one in closed form
        on the centred times.  Scaling the series by k > 0 scales the
        prefactor by k and leaves mu unchanged.

    Raises
    ------
    InsufficientDataError
        Fewer than 5 usable points in the window, or the window's times
        do not vary.
    """
    pts = [(float(t), float(y)) for t, y in series if y > floor]
    if len(pts) >= 1:
        start = int(np.floor(len(pts) * (1.0 - FIT_WINDOW)))
        pts = pts[start:]
    if len(pts) < 5:
        raise InsufficientDataError(
            f"need >= 5 usable points above floor {floor:g}, have {len(pts)}")
    t = np.array([p[0] for p in pts])
    y = np.log(np.array([p[1] for p in pts]))
    t_mean, y_mean = t.mean(), y.mean()
    tc, yc = t - t_mean, y - y_mean
    stt = float(tc @ tc)
    if not stt > 0:
        raise InsufficientDataError(
            f"the {len(pts)} times in the window do not vary (t = {t[0]:g})")
    slope = float(tc @ yc) / stt
    intercept = y_mean - slope * t_mean
    ss_res = float(np.sum((yc - slope * tc) ** 2))
    ss_tot = float(yc @ yc)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(mu=float(-slope), prefactor=float(np.exp(intercept)),
                    t_start=float(t[0]), t_end=float(t[-1]),
                    r_squared=r2, n_points=len(pts))


@dataclass
class StabilityCell:
    eps: float
    delta: float
    shape: str
    seed: int
    status: str              # "ok", "skipped", or "error: ..."
    converged: bool          # all norms fell below delta/10
    crossing_time: float     # first time all norms are below delta/10 (nan if never)
    fits: dict               # norm name -> DecayFit or None (at floor / no data)
    clip_events: int = 0     # range clips beyond tolerance during the run
    clip_excess: float = 0.0


@dataclass
class StabilityReport:
    cells: list

    @property
    def all_ran(self):
        return all(not c.status.startswith("error") for c in self.cells)


def stability_experiment(model, grid, config, eps_list, delta_list, shapes,
                         seeds, stationary=None):
    """Run the perturbation-decay matrix and fit rates per norm.

    For each cell (eps, delta, shape, seed): perturb the stationary
    solution, simulate to config.t_end, fit an exponential to every
    deviation norm with :func:`fit_decay`'s default floor, and
    record whether all norms fell below delta/10 and when.  delta = 0 cells
    are recorded with the fits skipped.  A failing cell is reported in its
    status, not raised.  Cells are listed in (eps, delta, shape, seed)
    order.

    All cells share dt, the grid and the start time, so they are stepped
    as one batch, whose config carries one eps per row; every cell gives
    the records of its solo :func:`simulate` run, bit for bit, also when
    its eps > 0 cells step apart in a forked child (:func:`_beside`).  A cell
    listed twice is run once.  A cell that fails leaves the batch where it
    fails, and the others run on.  An empty list raises ValueError.
    """
    for name, entries in zip(("eps_list", "delta_list", "shapes", "seeds"),
                             (eps_list, delta_list, shapes, seeds)):
        if not len(entries):
            raise ValueError(f"{name}: needs at least one entry")
    if stationary is None:
        stationary = solve_stationary(model, grid, config=config,
                                      cross_check=False)
    keys = [(float(eps), float(delta), shape, int(seed)) for eps in eps_list
            for delta in delta_list for shape in shapes for seed in seeds]
    runs = {}   # key -> initial data, then the run's result or error
    for key in keys:
        try:
            replace(config, eps=key[0])   # rejects a bad eps here
            if key[1] != 0.0:
                runs[key] = admissible_init(stationary, *key[1:])
        except Exception as exc:  # failed cell is reported, not fatal
            runs[key] = exc
    batch = [key for key, init in runs.items()
             if not isinstance(init, Exception)]

    def run(cells):
        return _simulate_batch(
            model, [runs[k] for k in cells], grid,
            replace(config, eps=np.array([k[0] for k in cells])), stationary)

    # one nutrient solver per half; never split on one core: it costs more
    quasi = [key for key in batch if key[0] == 0.0]
    implicit = [key for key in batch if key[0] != 0.0]
    if quasi and implicit and _two_cores():
        runs.update(zip(quasi + implicit, _beside(run, quasi, implicit)))
    else:
        runs.update(zip(batch, run(batch)))
    return StabilityReport(cells=[_cell(key, runs.get(key)) for key in keys])


def _two_cores():
    """Whether this process may use two cores and start a child by fork."""
    import multiprocessing
    return (hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and "fork" in multiprocessing.get_all_start_methods())


def _beside(run, own, other):
    """run(own) + run(other), the latter stepped meanwhile in one forked
    child and sent back through a pipe with its "spheroid" log records,
    handled here once.  An exception the child raises is raised here;
    if it ends before it reports, each of ``other`` gets a NumericsError
    with its exit status.  If run(own) raises, the child is ended first."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    # the fork start flushes sys.stdout and sys.stderr first, or the child
    # would write what is still buffered a second time
    child = ctx.Process(target=_report, args=(run, other, send), daemon=True)
    child.start()
    send.close()
    try:
        ours = run(own)
        try:   # before join: a result the pipe cannot hold blocks the child
            theirs, records = receive.recv()
        except (EOFError, OSError):   # it ended before it reported
            child.join()
            theirs, records = [NumericsError(
                f"the process stepping this cell exited with status "
                f"{child.exitcode} before it reported")] * len(other), []
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        receive.close()
    for record in records:
        log.handle(record)
    if isinstance(theirs, Exception):
        raise theirs
    return ours + theirs


def _report(run, cells, send):
    """The child: sends run(cells), or its exception, and its log records."""
    from logging.handlers import QueueHandler
    records = []
    log.handlers = [QueueHandler(None)]
    log.handlers[0].enqueue = records.append
    log.propagate = False
    try:
        result = run(cells)
    except Exception as exc:
        result = exc
    send.send((result, records))


def _cell(key, result):
    """The :class:`StabilityCell` of ``key`` = (eps, delta, shape, seed)
    from its run's result, the exception that ended it, or None (skipped)."""
    eps, delta, shape, seed = key
    if result is None:
        return StabilityCell(eps=eps, delta=delta, shape=shape, seed=seed,
                             status="skipped", converged=True,
                             crossing_time=0.0,
                             fits={k: None for k in DeviationRecord.NORM_FIELDS})
    if isinstance(result, Exception):
        log.warning("stability cell (eps=%g, delta=%g, %s, %d) failed: %s",
                    eps, delta, shape, seed, result)
        return StabilityCell(eps=eps, delta=delta, shape=shape, seed=seed,
                             status=f"error: {result}", converged=False,
                             crossing_time=float("nan"), fits={})
    fits = {}
    for name in DeviationRecord.NORM_FIELDS:
        series = [(rec.t, getattr(rec, name)) for rec in result.records]
        try:
            fits[name] = fit_decay(series)
        except InsufficientDataError:
            fits[name] = None  # at the noise floor throughout
    crossing = float("nan")
    for rec in result.records:
        if rec.max_norm() < delta / 10.0:
            crossing = rec.t
            break
    return StabilityCell(eps=eps, delta=delta, shape=shape, seed=seed,
                         status="ok", converged=not np.isnan(crossing),
                         crossing_time=crossing, fits=fits,
                         clip_events=result.clip.events,
                         clip_excess=result.clip.max_excess)


@dataclass
class ConvergenceStudy:
    kind: str        # "diffusion-h", "transport-h", or "dt"
    levels: list     # grid sizes or dt values, coarse to fine
    diffs: list      # successive max-norm differences
    orders: list     # log2 ratios of successive differences
    conclusive: bool

    @property
    def observed_order(self):
        return min(self.orders) if self.orders else float("nan")


def _convergence_study(kind, levels, finals):
    """Compare the final states of successive refinement levels.

    ``finals`` run coarse to fine; each finer state is sampled at the
    coarser one's nodes (stride 1 when only dt is refined).  A zero
    difference gives a nan order, and a zero or non-shrinking difference
    marks the study inconclusive rather than raising.
    """
    diffs = []
    for a, b in zip(finals[:-1], finals[1:]):
        stride = (b.c.size - 1) // (a.c.size - 1)
        diffs.append(max(float(np.max(np.abs(b.c[::stride] - a.c))),
                         float(np.max(np.abs(b.p[::stride] - a.p))),
                         abs(b.z - a.z)))
    pairs = list(zip(diffs[:-1], diffs[1:]))
    orders = [float(np.log2(d0 / d1)) if d0 > 0 and d1 > 0 else float("nan")
              for d0, d1 in pairs]
    return ConvergenceStudy(kind=kind, levels=list(levels), diffs=diffs,
                            orders=orders,
                            conclusive=all(0 < d1 < d0 for d0, d1 in pairs))


def _integrate_plain(model, init, grid, config):
    """Step to t_end without recording (convergence studies only), as the
    batch of one that :func:`simulate` steps, from the same projection."""
    state = _quasi_static(model, _stack([init]), grid, config.eps)
    for _ in range(horizon_steps(config, state.t, "the initial time")):
        state = step(model, state, grid, config)
    return state.row(0)


# observed-order thresholds the standard suite is expected to meet
CONVERGENCE_THRESHOLDS = {"diffusion-h": 1.8, "transport-h": 1.5, "dt": 1.8}
# refinement levels, coarse to fine: grid sizes of the h studies, and the
# steps of the dt study on a grid of DT_GRID_N nodes
GRID_SIZES = (101, 201, 401)
DT_VALUES = (0.08, 0.04, 0.02)
DT_GRID_N = 201


def standard_convergence_suite(model):
    """The three canonical refinement studies, at the levels of
    :data:`GRID_SIZES` and :data:`DT_VALUES`.

    * diffusion-h: all cell kinetics zeroed, eps > 0, so only the nutrient
      diffuses; grid refinement at small fixed dt isolates the O(h^2)
      stencil.
    * transport-h: consumption zeroed (c = 1 throughout in quasi-static
      mode), so only advection/reaction act; grid refinement at fixed dt
      isolates the interpolation-limited semi-Lagrangian order.
    * dt: the full model in quasi-static mode with the time-centered
      splitting, refined in dt at fixed grid, from a perturbed stationary
      state solved on that grid.

    Each level's run is matched initial data stepped to its config's
    t_end.  Returns a list of :class:`ConvergenceStudy`; compare each
    study's ``observed_order`` against :data:`CONVERGENCE_THRESHOLDS`.
    """
    zero = Rate("constant", {"value": 0.0})

    def h_study(kind, study_model, config, make_init):
        finals = []
        for n in GRID_SIZES:
            grid = Grid(n)
            finals.append(_integrate_plain(study_model, make_init(grid), grid,
                                           config))
        return _convergence_study(kind, GRID_SIZES, finals)

    diffusion = h_study(
        "diffusion-h", replace(model, K_B=zero, K_P=zero, K_Q=zero, K_D=zero),
        SolverConfig(eps=0.05, dt=2e-3, t_end=1.0, output_interval=1.0),
        lambda grid: State(t=0.0, z=0.3, c=1.0 - 0.5 * (1.0 - grid.r**2),
                           p=np.full(grid.n, 0.5)))
    transport = h_study(
        "transport-h", replace(model, F=zero),
        SolverConfig(eps=0.0, dt=0.01, t_end=2.0, output_interval=1.0),
        lambda grid: State(t=0.0, z=0.3, c=np.ones(grid.n),
                           p=0.5 + 0.3 * np.cos(np.pi * grid.r / 2.0)))

    grid = Grid(DT_GRID_N)
    stationary = solve_stationary(model, grid, cross_check=False)
    init = admissible_init(stationary, 0.01, "poly")
    finals = [_integrate_plain(model, init, grid,
                               SolverConfig(eps=0.0, dt=dt, t_end=4.0,
                                            output_interval=1.0,
                                            splitting="heun"))
              for dt in DT_VALUES]
    return [diffusion, transport, _convergence_study("dt", DT_VALUES, finals)]
