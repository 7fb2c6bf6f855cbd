"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
tolerances are pinned here and nowhere else.  Criteria 4-8 share the
session stationary solutions from conftest.
"""

import math
import os
import time

import numpy as np
import pytest

from spheroid import (Grid, Rate, SolverConfig, State, admissible_init,
                      bounds_report, flux_residual, simulate, solve_nutrient)
from spheroid.analysis import (CONVERGENCE_THRESHOLDS,
                               stability_experiment,
                               standard_convergence_suite)
from spheroid.cli import cli
from spheroid.evolution import CLIP_TOL
from spheroid.records import DeviationRecord

from conftest import make_model


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_envelope_bounds(model, grid401):
    started = time.perf_counter()
    rep = bounds_report(model, [-1.0, 0.0, 1.0], grid401, rel_tol=1e-8)
    elapsed = time.perf_counter() - started
    worst = min(e.margin for e in rep.entries)
    report(1, rep.all_passed and elapsed < 5.0,
           f"7 envelope bounds at z in {{-1,0,1}}, N=401: worst relative "
           f"margin {worst:+.2e} (tol -1e-8), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_closed_form_oracle():
    m = make_model(F=Rate("linear", {"slope": 1.0}))
    errs = []
    for n in (101, 201, 401):
        grid = Grid(n)
        prof = solve_nutrient(m, 0.0, grid)
        k = 1.0
        exact = np.empty(n)
        exact[0] = k / math.sinh(k)
        exact[1:] = np.sinh(k * grid.r[1:]) / (grid.r[1:] * math.sinh(k))
        errs.append(float(np.max(np.abs(prof.c - exact))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = errs[-1] < 1e-5 and all(abs(o - 2.0) <= 0.2 for o in orders)
    report(2, ok, f"linear-consumption closed form: error {errs[-1]:.2e} at "
                  f"N=401 (< 1e-5), observed orders {orders[0]:.2f}, "
                  f"{orders[1]:.2f} (2.0 +/- 0.2)")


def test_criterion_3_flux_identity(model, grid401):
    residuals = {}
    for z in (-1.0, 0.0, 1.0):
        prof = solve_nutrient(model, z, grid401)
        residuals[z] = flux_residual(prof, model)
    worst = max(residuals.values())
    report(3, worst < 5e-5,
           f"integrated flux identity, N=401: max residual {worst:.2e} "
           f"(< 5e-5) over z in {{-1,0,1}}")


def test_criterion_4_stationarity(model, grid401, stationary401):
    s = stationary401
    gap = abs(s.z - s.z_direct)
    init = State(t=0.0, z=s.z, c=s.c.copy(), p=s.p.copy())
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=20.0, output_interval=0.2)
    result = simulate(model, init, grid401, cfg, s)
    assert round(cfg.t_end / cfg.dt) == 1000
    drift = max(rec.max_norm() for rec in result.records)
    ok = (s.v1_residual <= 1e-6 and s.transport_residual <= 1e-4
          and gap <= 1e-4 and drift < 1e-4)
    report(4, ok,
           f"stationarity, N=401: |v*(1)| = {s.v1_residual:.2e} (<= 1e-6), "
           f"max|-v p' + f| = {s.transport_residual:.2e} (<= 1e-4), "
           f"method gap |dz*| = {gap:.2e} (<= 1e-4), 1000-step drift "
           f"{drift:.2e} (< 1e-4)")


@pytest.fixture(scope="module")
def stability_report(model, grid201, stationary201):
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=60.0, output_interval=0.2)
    started = time.perf_counter()
    rep = stability_experiment(model, grid201, cfg,
                               eps_list=(0.0, 0.01, 0.05),
                               delta_list=(0.005, 0.01),
                               shapes=("poly", "cosine"), seeds=(1,),
                               stationary=stationary201)
    rep.elapsed = time.perf_counter() - started
    return rep


def test_criterion_5_exponential_return(stability_report):
    rep = stability_report
    problems = []
    for cell in rep.cells:
        tag = f"(eps={cell.eps}, delta={cell.delta}, {cell.shape})"
        if cell.status != "ok":
            problems.append(f"{tag} {cell.status}")
            continue
        if not cell.converged:
            problems.append(f"{tag} norms never fell below delta/10")
        for name, fit in cell.fits.items():
            if fit is not None and fit.mu <= 0:
                problems.append(f"{tag} mu({name}) = {fit.mu:.3e} <= 0")
    # rate stability across amplitudes at fixed (eps, shape)
    worst_spread = 0.0
    for eps in (0.0, 0.01, 0.05):
        for shape in ("poly", "cosine"):
            pair = [c for c in rep.cells if c.eps == eps and c.shape == shape]
            for name in DeviationRecord.NORM_FIELDS:
                fits = [c.fits.get(name) for c in pair]
                if any(f is None for f in fits):
                    continue
                mus = [f.mu for f in fits]
                spread = abs(mus[0] - mus[1]) / max(abs(mus[1]), 1e-30)
                worst_spread = max(worst_spread, spread)
                if spread >= 0.20:
                    problems.append(
                        f"(eps={eps}, {shape}) mu({name}) varies "
                        f"{100 * spread:.1f}% across delta")
    ok = not problems and rep.elapsed < 180.0
    detail = (f"12-cell matrix: all decayed below delta/10, all fitted rates "
              f"positive, max rate spread across delta {100 * worst_spread:.1f}% "
              f"(< 20%), runtime {rep.elapsed:.0f}s (< 180s)")
    if problems:
        detail = "; ".join(problems[:4])
    report(5, ok, detail)


def test_criterion_6_quasi_static_consistency(model, grid201, stationary201):
    init = admissible_init(stationary201, 0.01, "poly")
    cfg0 = SolverConfig(eps=0.0, dt=0.02, t_end=10.0, output_interval=0.2)
    base = simulate(model, init, grid201, cfg0, stationary201)
    eta_worst = max(rec.eta_dev for rec in base.records)

    gaps = {}
    for eps in (0.025, 0.05, 0.1):
        cfg = SolverConfig(eps=eps, dt=0.02, t_end=10.0, output_interval=0.2)
        run = simulate(model, init, grid201, cfg, stationary201)
        a, b = run.final_state, base.final_state
        gaps[eps] = max(float(np.max(np.abs(a.c - b.c))),
                        float(np.max(np.abs(a.p - b.p))), abs(a.z - b.z))
    monotone = gaps[0.025] < gaps[0.05] < gaps[0.1]
    ok = eta_worst <= 1e-8 and monotone
    report(6, ok,
           f"quasi-static consistency: sup ||c - m(.;z)|| = {eta_worst:.2e} "
           f"(<= 1e-8) on eps=0 outputs; trajectory gap at t=10 decreases "
           f"with eps: {gaps[0.1]:.2e} > {gaps[0.05]:.2e} > {gaps[0.025]:.2e}")


def test_criterion_7_range_invariance(model, grid201, stationary201,
                                      stability_report):
    clip_events = sum(c.clip_events for c in stability_report.cells)
    worst_excess = max((c.clip_excess for c in stability_report.cells),
                       default=0.0)
    # direct range check on one representative run per eps
    worst_range = 0.0
    for eps in (0.0, 0.05):
        cfg = SolverConfig(eps=eps, dt=0.02, t_end=5.0, output_interval=0.1)
        init = admissible_init(stationary201, 0.01, "cosine")
        result = simulate(model, init, grid201, cfg, stationary201)
        final = result.final_state
        worst_range = max(worst_range,
                          float(-final.c.min()), float(final.c.max() - 1.0),
                          float(-final.p.min()), float(final.p.max() - 1.0))
        clip_events += result.clip.events
    # the clip-event tolerance is a constant of the scheme, pinned here
    ok = CLIP_TOL == 1e-10 and clip_events == 0 and worst_range <= 1e-10
    report(7, ok,
           f"range invariance: clip events beyond 1e-10 across all runs = "
           f"{clip_events} (= 0), worst boundary excess {max(worst_excess, worst_range):.1e}")


def test_criterion_8_self_convergence(model):
    studies = standard_convergence_suite(model)
    details = []
    ok = True
    for study in studies:
        threshold = CONVERGENCE_THRESHOLDS[study.kind]
        good = study.conclusive and study.observed_order >= threshold
        ok = ok and good
        details.append(f"{study.kind} order {study.observed_order:.2f} "
                       f"(>= {threshold})")
    report(8, ok, "observed orders: " + ", ".join(details))


def test_criterion_9_determinism_and_resume(tmp_path):
    config = tmp_path / "run.config"
    config.write_text(
        "[grid]\nn = 101\n\n[solver]\ndt = 0.02\nt_end = 2.0\n"
        "output_interval = 0.2\nsnapshot_every = 5\n")

    def rows(out):
        with open(os.path.join(out, "timeseries.csv")) as fh:
            return fh.read().splitlines()

    out_a, out_b, out_c = (str(tmp_path / x) for x in "abc")
    for out in (out_a, out_b):
        assert cli(["simulate", "--config", str(config), "--out", out,
                    "--delta", "0.01", "--seed", "7"]) == 0
    identical = rows(out_a) == rows(out_b)

    assert cli(["simulate", "--config", str(config), "--out", out_c,
                "--delta", "0.01", "--seed", "7", "--tend", "1.0"]) == 0
    snap = os.path.join(out_c, "snap_000005.snap")
    assert cli(["simulate", "--config", str(config), "--out", out_c,
                "--resume", snap]) == 0
    with open(os.path.join(out_c, "timeseries_resumed.csv")) as fh:
        tail = fh.read().splitlines()
    stitched = rows(out_c) + tail[1:]
    resumed_ok = stitched == rows(out_a)

    report(9, identical and resumed_ok,
           f"bit-exact repeatability: identical reruns {identical}, "
           f"snapshot-resume equals uninterrupted run {resumed_ok}")
