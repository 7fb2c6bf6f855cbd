"""The benchmark workloads and the correctness checks on their outputs.

Every workload uses ``default_model()`` on ``Grid(201)`` and only the public
API of `spheroid`.  Both jobs need the relaxation-only stationary reference
that ``spheroid simulate`` and ``spheroid stability`` solve on every
invocation; it is built in set-up.  A job returns
``(attempted, failed, notes)``: a failed check is counted there and never
raised, so the job's timings are still reported.  Checks compare against
tolerances, never bits.
"""

import os
import tempfile
from collections import namedtuple

GRID_N = 201
TOL = 1e-6               # stationarity tolerance of `spheroid stationary`
DT = 0.02
T_END = 60.0             # 3000 steps, the horizon of acceptance criterion 5
OUTPUT_INTERVAL = 0.2
SNAPSHOT_EVERY = 50      # outputs between snapshots, as `spheroid simulate`
TRAJECTORY_DELTA = 0.01
MATRIX = dict(eps_list=(0.0, 0.01, 0.05), delta_list=(0.005, 0.01),
              shapes=("poly", "cosine"), seeds=(1,))
MU_SPREAD = 0.20         # criterion 5: rate spread across delta per (eps, shape)
ETA_MAX = 1e-8           # criterion 6: sup ||c - m(.; z)|| on eps=0 outputs
NOISE_FLOOR = 1e-13      # norms at or below are numerical noise (fit_decay's)

# seed: --seed of the run; z_star: recorded stationary log-radius;
# out_dir: directory inside the checkout for files the jobs write
Context = namedtuple("Context", "seed z_star out_dir")


def solver_config(sp):
    return sp.SolverConfig(eps=0.0, dt=DT, t_end=T_END,
                           output_interval=OUTPUT_INTERVAL)


def reference(sp, model, grid):
    """Relaxation-only stationary reference, as `spheroid simulate` builds it."""
    return sp.solve_stationary(model, grid, tol=TOL, config=solver_config(sp),
                               cross_check=False)


def reference_check(sp, ref, grid, z_star):
    """Checks of the set-up reference, counted as one operation.

    It must be stationary to the solver tolerance and lie within
    max(10*tol, h^2), the cross-check's own bound, of the recorded z*.
    """
    bound = max(10.0 * TOL, grid.h ** 2)
    notes = []
    if ref.v1_residual > TOL:
        notes.append(f"reference |v(1)| = {ref.v1_residual:.3e} > {TOL:g}")
    if ref.transport_residual > 1e-4:
        notes.append(f"reference transport residual "
                     f"{ref.transport_residual:.3e} > 1e-4")
    if abs(ref.z - z_star) > bound:
        notes.append(f"reference z* = {ref.z!r} differs from recorded "
                     f"{z_star!r} by more than {bound:.2e}")
    return 1, int(bool(notes)), notes


def trajectory_job(sp, model, grid, ref, ctx):
    """One perturbed quasi-static run with snapshots and CSV output,
    mirroring `spheroid simulate --shape random --seed <seed>`."""
    init = sp.admissible_init(ref, TRAJECTORY_DELTA, "random", ctx.seed)
    os.makedirs(ctx.out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ctx.out_dir) as tmp:
        def on_output(state, step_index, output_index, record):
            if output_index % SNAPSHOT_EVERY == 0:
                sp.save_snapshot(
                    state, os.path.join(tmp, f"snap_{output_index:06d}.snap"),
                    step=step_index, output_index=output_index)

        try:
            result = sp.simulate(model, init, grid, solver_config(sp), ref,
                                 on_output=on_output)
        except sp.SpheroidError as exc:
            return 1, 1, [f"simulate raised {exc!r}"]
        sp.output.write_timeseries_csv(os.path.join(tmp, "timeseries.csv"),
                                       result)
    notes = []
    if result.clip.events:
        notes.append(f"{result.clip.events} clip events")
    final = result.records[-1].max_norm()
    if not final < TRAJECTORY_DELTA / 10.0:
        notes.append(f"final max deviation {final:.3e} >= delta/10")
    eta = max(rec.eta_dev for rec in result.records)
    if eta > ETA_MAX:
        notes.append(f"eta_dev {eta:.3e} > {ETA_MAX:g}")
    notes += decay_notes(sp, result.records, max(10.0 * TOL, grid.h ** 2))
    return 1, int(bool(notes)), notes


def decay_notes(sp, records, accuracy):
    """Checks that every deviation norm decays at a positive rate.

    The norms are measured against the set-up reference, which is
    stationary only to ``TOL``: once the run has converged to the discrete
    stationary state, a norm levels off at that state's distance from the
    reference (about 1e-6) instead of decaying further.  So each norm's
    rate is fitted on its samples up to its minimum, and what it rises
    after the minimum must stay within ``accuracy``, the bound the
    reference check allows the reference itself.
    """
    notes = []
    for name in sp.DeviationRecord.NORM_FIELDS:
        series = [(rec.t, getattr(rec, name)) for rec in records
                  if getattr(rec, name) > NOISE_FLOOR]
        if not series:
            continue  # the norm sits at the noise floor
        low = min(range(len(series)), key=lambda i: series[i][1])
        rise = max(v for _, v in series[low:]) - series[low][1]
        if rise > accuracy:
            notes.append(f"{name} rises by {rise:.3e} after its minimum "
                         f"at t = {series[low][0]:.2f}, more than "
                         f"{accuracy:.2e}")
        # the whole run when the minimum comes too early to fit up to it
        for part in (series[:low + 1], series):
            try:
                mu = sp.fit_decay(part, floor=NOISE_FLOOR).mu
            except sp.InsufficientDataError:
                continue
            if not mu > 0:
                notes.append(f"mu({name}) = {mu:.3e} <= 0")
            break
    return notes


def matrix_job(sp, model, grid, ref, ctx):
    """The 12-cell matrix of acceptance criterion 5, without its runtime gate.

    A cell fails when it errored, never fell below delta/10 or fitted a
    rate mu <= 0; both cells of an (eps, shape) pair fail when a norm's
    rate differs by 20 % or more between the two amplitudes.
    """
    report = sp.stability_experiment(model, grid, solver_config(sp),
                                     stationary=ref, **MATRIX)
    bad = {}
    for cell in report.cells:
        key = (cell.eps, cell.delta, cell.shape, cell.seed)
        if cell.status != "ok":
            bad[key] = cell.status
        elif not cell.converged:
            bad[key] = "norms never fell below delta/10"
        else:
            low = [n for n, f in cell.fits.items()
                   if f is not None and not f.mu > 0]
            if low:
                bad[key] = f"mu <= 0 for {low}"
    for eps in MATRIX["eps_list"]:
        for shape in MATRIX["shapes"]:
            pair = [c for c in report.cells if c.eps == eps
                    and c.shape == shape and c.status == "ok"]
            if len(pair) != 2:
                continue
            for name in sp.DeviationRecord.NORM_FIELDS:
                fits = [c.fits.get(name) for c in pair]
                if any(f is None for f in fits):
                    continue
                spread = (abs(fits[0].mu - fits[1].mu)
                          / max(abs(fits[1].mu), 1e-30))
                if not spread < MU_SPREAD:
                    for c in pair:
                        bad.setdefault((c.eps, c.delta, c.shape, c.seed),
                                       f"mu({name}) spread {spread:.1%}")
    notes = [f"cell {k}: {v}" for k, v in sorted(bad.items())]
    return len(report.cells), len(bad), notes


WORKLOADS = {"trajectory": trajectory_job, "stability_matrix": matrix_job}
