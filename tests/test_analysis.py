import logging
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spheroid
from spheroid import (ConvergenceError, Grid, InsufficientDataError,
                      NumericsError, SolverConfig, State, admissible_init,
                      deviation_norms, fit_decay, simulate, solve_nutrient,
                      stability_experiment)
from spheroid import analysis, evolution, rates
from spheroid.analysis import PERTURBATION_SHAPES, _convergence_study
from spheroid.evolution import _simulate_batch


# ---------------- fit_decay ----------------

def test_fit_exact_exponential():
    t = np.linspace(0.0, 10.0, 50)
    fit = fit_decay(list(zip(t, 3.0 * np.exp(-0.7 * t))))
    assert fit.mu == pytest.approx(0.7, abs=1e-10)
    assert fit.prefactor == pytest.approx(3.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_series():
    t = np.linspace(0.0, 5.0, 20)
    fit = fit_decay([(ti, 2.5) for ti in t])
    assert fit.mu == pytest.approx(0.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(2.5, rel=1e-12)


def test_fit_with_multiplicative_noise():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 20.0, 200)
    y = np.exp(-0.5 * t) * (1.0 + 0.01 * rng.standard_normal(t.size))
    fit = fit_decay(list(zip(t, y)))
    assert fit.mu == pytest.approx(0.5, abs=0.05)


def test_fit_floor_excludes_noise():
    t = np.linspace(0.0, 30.0, 100)
    y = np.maximum(np.exp(-1.0 * t), 1e-14)
    fit = fit_decay(list(zip(t, y)), floor=1e-13)
    assert fit.mu == pytest.approx(1.0, abs=1e-6)
    assert fit.t_end < 30.0  # saturated tail dropped


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_decay([(0.0, 1.0), (1.0, 0.5), (2.0, 0.25)])
    with pytest.raises(InsufficientDataError):
        fit_decay([(float(i), 1e-20) for i in range(10)])
    # a line through points that share one time is not determined
    with pytest.raises(InsufficientDataError, match="do not vary"):
        fit_decay([(2.0, 0.5 ** i) for i in range(10)])


@settings(max_examples=100, deadline=None)
@given(mu=st.floats(-1.0, 1.0), prefactor=st.floats(1e-3, 1e3),
       noise=st.floats(0.0, 0.1), n=st.integers(10, 400),
       t_end=st.floats(1.0, 20.0), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_polyfit(mu, prefactor, noise, n, t_end, seed):
    # the closed-form line against np.polyfit on the same window, with the
    # tolerance fixed beforehand; every value stays above the floor
    t = np.linspace(0.0, t_end, n)
    rng = np.random.default_rng(seed)
    y = prefactor * np.exp(-mu * t) * (1.0 + noise * rng.uniform(-1, 1, n))
    fit = fit_decay(list(zip(t, y)))
    start = int(np.floor(n * (1.0 - analysis.FIT_WINDOW)))
    slope, intercept = np.polyfit(t[start:], np.log(y[start:]), 1)
    assert fit.mu == pytest.approx(-slope, rel=1e-9, abs=1e-12)
    assert fit.prefactor == pytest.approx(np.exp(intercept), rel=1e-9,
                                          abs=1e-12)
    assert (fit.t_start, fit.t_end, fit.n_points) == (t[start], t[-1],
                                                      n - start)


@settings(max_examples=25)
@given(st.floats(1e-3, 1e3))
def test_fit_scaling_invariance(k):
    t = np.linspace(0.0, 8.0, 40)
    y = 2.0 * np.exp(-0.3 * t)
    base = fit_decay(list(zip(t, y)))
    scaled = fit_decay(list(zip(t, k * y)))
    assert scaled.mu == pytest.approx(base.mu, rel=1e-9, abs=1e-12)
    assert scaled.prefactor == pytest.approx(k * base.prefactor, rel=1e-9)


# ---------------- admissible_init ----------------

def test_zero_amplitude_returns_stationary(stationary201):
    init = admissible_init(stationary201, 0.0, "poly")
    assert np.array_equal(init.c, stationary201.c)
    assert np.array_equal(init.p, stationary201.p)
    assert init.z == stationary201.z


def test_bump_scaling(stationary201):
    delta = 0.005
    init = admissible_init(stationary201, delta, "poly")
    assert np.max(np.abs(init.c - stationary201.c)) == pytest.approx(delta, rel=1e-6)
    assert abs(init.z - stationary201.z) == pytest.approx(delta, rel=1e-12)
    # boundary value and symmetry survive the perturbation
    assert init.c[-1] == 1.0
    r = stationary201.grid.r
    h = stationary201.grid.h
    slope0 = (-3 * init.c[0] + 4 * init.c[1] - init.c[2]) / (2 * h)
    assert abs(slope0) < 1e-4


def test_seeded_random_shape_reproducible(stationary201):
    a = admissible_init(stationary201, 0.01, "random", seed=99)
    b = admissible_init(stationary201, 0.01, "random", seed=99)
    assert np.array_equal(a.c, b.c) and np.array_equal(a.p, b.p) and a.z == b.z
    c = admissible_init(stationary201, 0.01, "random", seed=100)
    assert not np.array_equal(a.c, c.c)


def test_all_shapes_are_admissible(stationary201):
    for shape in PERTURBATION_SHAPES:
        init = admissible_init(stationary201, 0.01, shape, seed=5)
        assert init.c[-1] == 1.0
        assert np.all(init.c >= 0.0) and np.all(init.c <= 1.0)
        assert np.all(init.p >= 0.0) and np.all(init.p <= 1.0)
        assert abs(init.z - stationary201.z) <= 0.01 + 1e-15


def test_unknown_shape(stationary201):
    with pytest.raises(ValueError):
        admissible_init(stationary201, 0.01, "sawtooth")


def test_negative_amplitude(stationary201):
    with pytest.raises(ValueError, match="delta must be >= 0"):
        admissible_init(stationary201, -0.01, "poly")


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_non_finite_amplitude(stationary201, delta):
    with pytest.raises(ValueError, match=f"finite, got {delta}"):
        admissible_init(stationary201, delta, "poly")


def test_large_amplitude_warns_of_clamping(stationary201, caplog):
    # c* + 0.01 phi and p* + 0.01 psi stay in [0, 1]; with delta = 1 both
    # pass 1 in the interior
    with caplog.at_level(logging.WARNING, logger="spheroid"):
        admissible_init(stationary201, 0.01, "poly")
        assert not caplog.records
        init = admissible_init(stationary201, 1.0, "poly")
    message, = [r.getMessage() for r in caplog.records]
    assert message.startswith("perturbation clamped at ")
    assert message.endswith(" of 402 nodes")
    assert init.p.min() >= 0.0 and init.p.max() <= 1.0


# ---------------- deviation_norms ----------------

def test_deviation_norms_at_stationary(stationary201, model):
    state = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                  p=stationary201.p.copy())
    prof = solve_nutrient(model, state.z, stationary201.grid, guess=state.c)
    rec, = deviation_norms(state, None, stationary201, prof, 0.0)
    assert rec.max_norm() < 1e-9


def test_deviation_norms_z_shift(stationary201, model):
    state = State(t=1.0, z=stationary201.z + 0.1, c=stationary201.c.copy(),
                  p=stationary201.p.copy())
    prof = solve_nutrient(model, stationary201.z, stationary201.grid)
    rec, = deviation_norms(state, None, stationary201, prof, 0.0)
    assert rec.z_dev == pytest.approx(0.1, abs=1e-15)


def test_deviation_norms_manufactured_bump(stationary201, model):
    grid = stationary201.grid
    state = State(t=0.0, z=stationary201.z,
                  c=stationary201.c + 0.01 * (1.0 - grid.r**2),
                  p=stationary201.p.copy())
    prof = solve_nutrient(model, state.z, grid)
    rec, = deviation_norms(state, None, stationary201, prof, 0.0)
    # d/dr of the bump is -0.02 r: sup 0.01, sup-derivative 0.02 exactly
    assert rec.c_dev == pytest.approx(0.01, abs=1e-12)
    assert rec.c_r_dev == pytest.approx(0.02, abs=1e-10)


def test_deviation_norms_time_differences(stationary201, model):
    grid = stationary201.grid
    prev = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                 p=stationary201.p.copy())
    state = State(t=0.5, z=stationary201.z + 0.05,
                  c=stationary201.c + 0.01, p=stationary201.p.copy())
    prof = solve_nutrient(model, state.z, grid)
    rec, = deviation_norms(state, prev, stationary201, prof, 0.0)
    assert rec.z_dot_dev == pytest.approx(0.1, rel=1e-12)
    assert rec.c_t_dev == pytest.approx(0.02, rel=1e-10)


def test_deviation_norms_grid_mismatch(stationary201, model):
    small = Grid(51)
    state = State(t=0.0, z=0.0, c=np.ones(51), p=np.ones(51))
    prof = solve_nutrient(model, 0.0, small)
    with pytest.raises(ValueError):
        deviation_norms(state, None, stationary201, prof, 0.0)


# ---------------- stability experiment ----------------

def test_stability_delta_zero_rows_skipped(model, grid201, stationary201):
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=2.0, output_interval=0.2)
    from spheroid import stability_experiment
    rep = stability_experiment(model, grid201, cfg, eps_list=(0.0,),
                               delta_list=(0.0,), shapes=("poly",), seeds=(1,),
                               stationary=stationary201)
    cell = rep.cells[0]
    assert cell.status == "skipped"
    assert cell.converged
    assert all(fit is None for fit in cell.fits.values())


def test_stability_failed_cell_reported(model, grid201, stationary201):
    # an unknown shape fails that cell only, not the experiment
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=2.0, output_interval=0.2)
    from spheroid import stability_experiment
    rep = stability_experiment(model, grid201, cfg, eps_list=(0.0,),
                               delta_list=(0.01,), shapes=("sawtooth", "poly"),
                               seeds=(1,), stationary=stationary201)
    assert rep.cells[0].status.startswith("error")
    assert rep.cells[1].status == "ok"
    assert not rep.all_ran


def test_stability_rejects_empty_lists(model, grid201, stationary201):
    # an empty list is no experiment, not a vacuous pass
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=0.4, output_interval=0.2)
    lists = dict(eps_list=(0.0,), delta_list=(0.01,), shapes=("poly",),
                 seeds=(1,))
    for name in lists:
        with pytest.raises(ValueError,
                           match=f"^{name}: needs at least one entry$"):
            stability_experiment(model, grid201, cfg,
                                 **{**lists, name: ()},
                                 stationary=stationary201)


def test_stability_bad_eps_fails_its_cells_only(model, grid201, stationary201):
    # a negative or non-finite eps ends its own cells, the delta = 0 one
    # too, with SolverConfig's message; the cells of the other eps run on
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=0.4, output_interval=0.2)
    rep = stability_experiment(model, grid201, cfg,
                               eps_list=(-0.01, 0.0, float("nan")),
                               delta_list=(0.0, 0.01), shapes=("poly",),
                               seeds=(1,), stationary=stationary201)
    negative = "error: eps must be >= 0, got -0.01"
    nan = "error: eps must be finite, got nan"
    assert [c.status for c in rep.cells] == [
        negative, negative, "skipped", "ok", nan, nan]


# ---------------- convergence studies ----------------

def _finals(errors, sizes=(11, 21, 41)):
    """Final states on nested grids whose error against the limit profile
    sin(r) at each level is the matching entry of ``errors``."""
    out = []
    for n, err in zip(sizes, errors):
        r = Grid(n).r
        out.append(State(t=1.0, z=0.3, c=np.sin(r) + err, p=np.full(n, 0.5)))
    return out


def test_convergence_study_quartering_diffs_are_order_two():
    study = _convergence_study("transport-h", (11, 21, 41),
                               _finals((1.6e-3, 4e-4, 1e-4)))
    assert study.levels == [11, 21, 41]
    assert study.diffs == pytest.approx([1.2e-3, 3e-4], rel=1e-9)
    assert study.orders == pytest.approx([2.0], rel=1e-9)
    assert study.conclusive
    assert study.observed_order == pytest.approx(2.0, rel=1e-9)


def test_convergence_study_rising_diff_is_inconclusive():
    study = _convergence_study("diffusion-h", (11, 21, 41),
                               _finals((1e-3, 0.0, 2e-3)))
    assert study.diffs == pytest.approx([1e-3, 2e-3], rel=1e-9)
    assert study.orders == pytest.approx([-1.0], rel=1e-9)
    assert not study.conclusive


def test_convergence_study_zero_diff_is_inconclusive():
    # dt study: every level on one grid (stride 1), the last two identical
    finals = _finals((1e-3, 0.0, 0.0), sizes=(21, 21, 21))
    study = _convergence_study("dt", (0.08, 0.04, 0.02), finals)
    assert study.diffs[1] == 0.0
    assert np.isnan(study.orders[0])
    assert not study.conclusive


# ---------------- batched cells ----------------

def _same_run(a, b):
    """Bit-for-bit equality of two SimResults' records, final state and clips."""
    return (a.records == b.records
            and a.final_state.t == b.final_state.t
            and a.final_state.z == b.final_state.z
            and np.array_equal(a.final_state.c, b.final_state.c)
            and np.array_equal(a.final_state.p, b.final_state.p)
            and a.clip == b.clip)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so a matrix with cells of both kinds of eps steps
    its eps > 0 cells in a forked child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _capture_batches(monkeypatch, tmp_path):
    """Record (inits, config, per-row eps, results) of every batch
    stability_experiment runs, in this process or in its child; returns
    the function that reads the batches recorded since its last call,
    ordered by eps."""
    run = analysis._simulate_batch

    def recording(model, inits, grid, config, stationary):
        results = run(model, inits, grid, config, stationary)
        path = tmp_path / f"batch-{os.getpid()}-{time.monotonic_ns()}"
        path.write_bytes(pickle.dumps(
            (inits, config, list(config.eps), results)))
        return results

    def batches():
        paths = sorted(tmp_path.glob("batch-*"))
        found = [pickle.loads(path.read_bytes()) for path in paths]
        for path in paths:
            path.unlink()
        return sorted(found, key=lambda batch: batch[2])

    monkeypatch.setattr(analysis, "_simulate_batch", recording)
    return batches


def test_stability_batches_match_solo_runs(model, grid201, stationary201,
                                           monkeypatch, tmp_path, two_cores):
    # the cells of one kind of eps run as one batch, each row with its own
    # eps (all of them > 0 for the second list); with both kinds, the
    # eps = 0 cells are one batch and the eps > 0 cells another, stepped in
    # a child.  Each cell's records, final state and clip counts are those
    # of its solo run at its eps, bit for bit
    batches = _capture_batches(monkeypatch, tmp_path)
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=2.0, output_interval=0.2)
    for low, high, expected in ((0.0, 0.05, [[0.0] * 4, [0.05] * 4]),
                                (0.01, 0.05, [[0.01] * 4 + [0.05] * 4])):
        rep = stability_experiment(model, grid201, cfg, eps_list=(low, high),
                                   delta_list=(0.005, 0.01),
                                   shapes=("poly", "cosine"), seeds=(1,),
                                   stationary=stationary201)
        recorded = batches()
        assert [eps for _, _, eps, _ in recorded] == expected
        assert [c.status for c in rep.cells] == ["ok"] * 8
        for inits, config, eps, results in recorded:
            for init, e, result in zip(inits, eps, results):
                solo = simulate(model, init, grid201, replace(config, eps=e),
                                stationary201)
                assert _same_run(result, solo)
                assert len(result.records) == 11


def _batch_cells(stationary, cells, shape="poly"):
    """(inits, eps) of a batch from (eps, delta) pairs."""
    return ([admissible_init(stationary, delta, shape) for _, delta in cells],
            [eps for eps, _ in cells])


def test_mixed_eps_batch_matches_solo_runs_heun(model, grid201,
                                                stationary201):
    # a batch of each kind of eps under the time-centred corrector, the
    # eps > 0 rows with interleaved values of their own
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=1.0, output_interval=0.2,
                       splitting="heun")
    for cells in ([(0.0, 0.01), (0.0, 0.005)],
                  [(0.01, 0.01), (0.05, 0.01), (0.05, 0.005), (0.01, 0.005)]):
        inits, eps = _batch_cells(stationary201, cells, shape="cosine")
        results = _simulate_batch(model, inits, grid201,
                                  replace(cfg, eps=np.array(eps)),
                                  stationary201)
        for init, e, result in zip(inits, eps, results):
            assert _same_run(result, simulate(
                model, init, grid201, replace(cfg, eps=e), stationary201))


def test_repeated_matrix_entries_are_each_reported(model, grid201,
                                                   stationary201):
    # every listed cell is reported in order, a repeat with its twin's fits
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=2.0, output_interval=0.2)
    rep = stability_experiment(model, grid201, cfg, eps_list=(0.05, 0.05),
                               delta_list=(0.01,),
                               shapes=("poly", "cosine", "poly"),
                               seeds=(1,), stationary=stationary201)
    assert [(c.eps, c.shape, c.status) for c in rep.cells] == [
        (0.05, shape, "ok") for shape in ("poly", "cosine", "poly")] * 2
    poly = [c.fits for c in rep.cells if c.shape == "poly"]
    assert poly == [poly[0]] * 4 and poly[0]["p_dev"] is not None
    assert rep.cells[1].fits == rep.cells[4].fits != poly[0]


def _poison_cell(monkeypatch, model, init, grid, config, stationary):
    """Put a NaN into the row of the cell started from ``init`` when it
    steps to t = 0.5, in a batch or as a batch of one: the row is the
    one whose z at t = 0.48 is that of the cell's solo run, bit for bit.
    Every step also counts one clip event per row, so a row whose step is
    counted twice (batched, then alone) shows.  Returns the cell's solo
    final state at t = 0.4."""
    z_at = simulate(model, init, grid, replace(config, t_end=0.48),
                    stationary).final_state.z
    step = evolution.step

    def poisoning(model, state, grid, config, clip=None):
        new = step(model, state, grid, config, clip=clip)
        for stats in clip:
            stats.events += 1
        if abs(new.t - 0.5) < 1e-9:
            rows = np.atleast_1d(state.z) == z_at
            new.p.reshape(-1, grid.n)[rows, 100] = np.nan
        return new

    at_last = simulate(model, init, grid, replace(config, t_end=0.4),
                       stationary).final_state
    monkeypatch.setattr(evolution, "step", poisoning)
    return at_last


def _assert_last_state(err, at_last):
    assert isinstance(err, NumericsError)
    assert str(err) == "step failed at t=0.48: non-finite state at t=0.5"
    assert isinstance(err.__cause__, FloatingPointError)
    last = err.last_state
    assert last.t == at_last.t == pytest.approx(0.4, abs=1e-12)
    assert last.z == at_last.z
    assert np.array_equal(last.c, at_last.c)
    assert np.array_equal(last.p, at_last.p)


def test_nan_in_one_row_fails_only_that_cell(model, grid201, stationary201,
                                             monkeypatch):
    # a NaN in the cosine cell's state after its step to t = 0.5, batched
    # or alone, ends that cell; its neighbours run on, bit-identical to
    # their solo runs
    cfg = SolverConfig(eps=0.05, dt=0.02, t_end=1.0, output_interval=0.2)
    inits = [admissible_init(stationary201, 0.01, shape)
             for shape in ("poly", "cosine", "random")]
    at_last = _poison_cell(monkeypatch, model, inits[1], grid201, cfg,
                           stationary201)
    solo = [simulate(model, inits[b], grid201, cfg, stationary201)
            for b in (0, 2)]
    results = _simulate_batch(model, inits, grid201, cfg, stationary201)
    _assert_last_state(results[1], at_last)
    for b, alone in zip((0, 2), solo):
        assert _same_run(results[b], alone)
        assert alone.clip.events == 50

    rep = stability_experiment(model, grid201, cfg, eps_list=(0.05,),
                               delta_list=(0.01,),
                               shapes=("poly", "cosine", "random"),
                               seeds=(0,), stationary=stationary201)
    assert [c.status for c in rep.cells] == [
        "ok", "error: step failed at t=0.48: non-finite state at t=0.5", "ok"]


def test_nan_in_mixed_eps_batch_fails_only_that_cell(model, grid201,
                                                     stationary201,
                                                     monkeypatch, two_cores):
    # the eps = 0.01 cell fails; the eps = 0.005 and eps = 0.05 rows run on
    # without it, bit-identical to their solo runs.  In the matrix the
    # eps > 0 cells step in the child, and its error keeps its message
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=1.0, output_interval=0.2)
    inits, eps = _batch_cells(stationary201, [(0.005, 0.01), (0.01, 0.01),
                                              (0.05, 0.01)])
    at_last = _poison_cell(monkeypatch, model, inits[1], grid201,
                           replace(cfg, eps=0.01), stationary201)
    results = _simulate_batch(model, inits, grid201,
                              replace(cfg, eps=np.array(eps)), stationary201)
    _assert_last_state(results[1], at_last)
    for b in (0, 2):
        assert _same_run(results[b], simulate(
            model, inits[b], grid201, replace(cfg, eps=eps[b]), stationary201))

    rep = stability_experiment(model, grid201, cfg, eps_list=(0.0, 0.01, 0.05),
                               delta_list=(0.01,), shapes=("poly",),
                               seeds=(0,), stationary=stationary201)
    assert [c.status for c in rep.cells] == [
        "ok", "error: step failed at t=0.48: non-finite state at t=0.5", "ok"]


def test_rejected_initial_data_fails_only_that_cell(model, grid201,
                                                    stationary201):
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=0.4, output_interval=0.2)
    inits = [admissible_init(stationary201, 0.01, shape)
             for shape in ("poly", "cosine")]
    bad = replace(inits[0], c=inits[0].c.copy())
    bad.c[10] = rates.C_HI + 2.0 * rates.MARGIN
    results = _simulate_batch(model, [inits[0], bad, inits[1]], grid201, cfg,
                              stationary201)
    assert isinstance(results[1], NumericsError)
    assert str(results[1]).startswith(
        "step failed at t=0: initial data: c=2 outside")
    assert results[1].last_state is None
    for result, init in zip(results[::2], inits):
        assert _same_run(result, simulate(model, init, grid201, cfg,
                                          stationary201))


def _failing_step(monkeypatch, fails):
    """Make evolution.step raise from t = 0.5 on whenever ``fails(state,
    config)`` holds; return the number of rows of each call."""
    calls = []
    step = evolution.step

    def failing(model, state, grid, config, clip=None):
        calls.append(np.size(state.z))
        if state.t > 0.49 and fails(state, config):
            raise ConvergenceError("injected failure")
        return step(model, state, grid, config, clip=clip)

    monkeypatch.setattr(evolution, "step", failing)
    return calls


def test_failing_row_leaves_the_batch_where_it_fails(model, grid201,
                                                    stationary201,
                                                    monkeypatch):
    # a step raises whenever the eps = 0.01 row is in it: that row alone
    # ends its cell; the two eps = 0.05 rows step on as a batch of one eps,
    # each bit-identical to its solo run
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=1.0, output_interval=0.2)
    inits, eps = _batch_cells(stationary201, [(0.01, 0.01), (0.05, 0.01),
                                              (0.05, 0.005)])
    solo = [simulate(model, init, grid201, replace(cfg, eps=e), stationary201)
            for init, e in zip(inits, eps)]
    at_last = simulate(model, inits[0], grid201,
                       replace(cfg, eps=0.01, t_end=0.4),
                       stationary201).final_state
    calls = _failing_step(monkeypatch,
                          lambda state, config: np.any(config.eps == 0.01))
    results = _simulate_batch(model, inits, grid201,
                              replace(cfg, eps=np.array(eps)), stationary201)
    assert isinstance(results[0], NumericsError)
    assert str(results[0]) == "step failed at t=0.5: injected failure"
    assert isinstance(results[0].__cause__, ConvergenceError)
    last = results[0].last_state
    assert last.t == at_last.t == pytest.approx(0.4, abs=1e-12)
    assert np.array_equal(last.p, at_last.p)
    for b in (1, 2):
        assert _same_run(results[b], solo[b])
    # 50 batched steps, the one at t = 0.5 re-run for each of the 3 rows
    assert calls == [3] * 26 + [1] * 3 + [2] * 24

    rep = stability_experiment(model, grid201, cfg, eps_list=(0.01, 0.05),
                               delta_list=(0.01,), shapes=("poly", "cosine"),
                               seeds=(0,), stationary=stationary201)
    assert [c.status for c in rep.cells] == [
        "error: step failed at t=0.5: injected failure"] * 2 + ["ok"] * 2


def test_failing_output_solve_ends_only_that_cell(model, grid201,
                                                 stationary201, monkeypatch):
    # at eps > 0 only the outputs solve the quasi-static nutrient; from the
    # output at t = 0.4 on it raises for the cosine row (z below z*), and
    # the poly row runs on as a batch of one
    cfg = SolverConfig(eps=0.05, dt=0.02, t_end=1.0, output_interval=0.2)
    inits = [admissible_init(stationary201, 0.01, shape)
             for shape in ("poly", "cosine")]
    solo = [simulate(model, init, grid201, cfg, stationary201)
            for init in inits]
    calls = []
    solve = evolution.solve_nutrient

    def failing(model, z, grid, guess=None):
        calls.append(np.size(z))
        if len(calls) >= 3 and np.any(z < stationary201.z - 0.005):
            raise ConvergenceError("injected failure")
        return solve(model, z, grid, guess=guess)

    monkeypatch.setattr(evolution, "solve_nutrient", failing)
    results = _simulate_batch(model, inits, grid201, cfg, stationary201)
    assert str(results[1]) == "step failed at t=0.4: injected failure"
    assert results[1].last_state.t == pytest.approx(0.2, abs=1e-12)
    assert _same_run(results[0], solo[0])
    assert calls == [2, 2, 2, 1, 1, 1, 1, 1]


def test_output_solve_that_fails_every_cell_ends_the_batch(model, grid201,
                                                          stationary201,
                                                          monkeypatch):
    # at eps > 0 the first quasi-static solve is the initial output's: when
    # it raises for every row, each cell ends there, before any step
    cfg = SolverConfig(eps=0.05, dt=0.02, t_end=1.0, output_interval=0.2)
    inits = [admissible_init(stationary201, 0.01, shape)
             for shape in ("poly", "cosine")]
    calls = []

    def failing(model, z, grid, guess=None):
        calls.append(np.size(z))
        raise ConvergenceError("injected failure")

    monkeypatch.setattr(evolution, "solve_nutrient", failing)
    steps = _failing_step(monkeypatch, lambda state, config: False)
    outputs = []
    results = _simulate_batch(model, inits, grid201, cfg, stationary201,
                              on_output=lambda *args: outputs.append(args))
    for result in results:
        assert isinstance(result, NumericsError)
        assert str(result) == "step failed at t=0: injected failure"
        assert result.last_state is None
    assert calls == [2, 1, 1]
    assert steps == [] and outputs == []


def test_batch_that_fails_only_as_a_batch_runs_rows_alone(model, grid201,
                                                          stationary201,
                                                          monkeypatch,
                                                          two_cores):
    # every step of more than one row from t = 0.5 on raises; each row
    # steps there as a batch of one, so every cell ends ok, bit-identical
    # to its solo run
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=2.0, output_interval=0.2)
    kwargs = dict(eps_list=(0.0, 0.05), delta_list=(0.01,),
                  shapes=("poly", "cosine"), seeds=(1,),
                  stationary=stationary201)
    clean = stability_experiment(model, grid201, cfg, **kwargs)
    inits, eps = _batch_cells(stationary201, [(0.01, 0.01), (0.05, 0.01)],
                              shape="cosine")
    solo = [simulate(model, init, grid201, replace(cfg, eps=e), stationary201)
            for init, e in zip(inits, eps)]
    _failing_step(monkeypatch, lambda state, config: np.size(state.z) > 1)
    results = _simulate_batch(model, inits, grid201,
                              replace(cfg, eps=np.array(eps)), stationary201)
    for result, alone in zip(results, solo):
        assert _same_run(result, alone)
    rep = stability_experiment(model, grid201, cfg, **kwargs)
    assert [c.status for c in rep.cells] == ["ok"] * 4
    assert [c.fits for c in rep.cells] == [c.fits for c in clean.cells]
    assert clean.cells[0].fits["p_dev"] is not None


# ---------------- the matrix on two cores ----------------

MIXED = dict(eps_list=(0.0, 0.05), delta_list=(0.01,),
             shapes=("poly", "cosine"), seeds=(1,))


def test_child_that_exits_fails_only_its_cells(model, grid201, stationary201,
                                               monkeypatch, tmp_path,
                                               two_cores):
    # the child ends with status 3 in its first step: its eps > 0 cells
    # fail with that status, and the eps = 0 cells stepped here are ok,
    # bit-identical to their solo runs
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=0.4, output_interval=0.2)
    parent = os.getpid()
    step = evolution.step

    def exiting(model, state, grid, config, clip=None):
        if os.getpid() != parent and np.any(config.eps > 0):
            os._exit(3)
        return step(model, state, grid, config, clip=clip)

    batches = _capture_batches(monkeypatch, tmp_path)
    monkeypatch.setattr(evolution, "step", exiting)
    rep = stability_experiment(model, grid201, cfg, **MIXED,
                               stationary=stationary201)
    assert multiprocessing.active_children() == []
    exited = ("error: the process stepping this cell exited with status 3 "
              "before it reported")
    assert [c.status for c in rep.cells] == ["ok", "ok", exited, exited]
    monkeypatch.setattr(evolution, "step", step)
    (inits, config, eps, results), = batches()
    assert eps == [0.0, 0.0]
    for init, result in zip(inits, results):
        assert _same_run(result, simulate(model, init, grid201, cfg,
                                          stationary201))


def test_child_exception_is_raised_in_the_parent(model, grid201,
                                                 stationary201, monkeypatch,
                                                 two_cores):
    # an error no step expects, raised in the child, is raised here again
    # with its type and message
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=0.4, output_interval=0.2)
    parent = os.getpid()
    step = evolution.step

    def raising(model, state, grid, config, clip=None):
        if np.any(config.eps > 0):
            where = "parent" if os.getpid() == parent else "child"
            raise TypeError(f"injected in the {where}")
        return step(model, state, grid, config, clip=clip)

    monkeypatch.setattr(evolution, "step", raising)
    with pytest.raises(TypeError, match="^injected in the child$"):
        stability_experiment(model, grid201, cfg, **MIXED,
                             stationary=stationary201)
    assert multiprocessing.active_children() == []


def test_parent_exception_ends_the_child(model, grid201, stationary201,
                                         monkeypatch, two_cores):
    # the eps = 0 half raises in its first step while the child sleeps in
    # its only one: the child is ended and joined, and the error propagates
    # long before the child would have woken
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=0.02, output_interval=0.02)

    def slow_or_raising(model, state, grid, config, clip=None):
        if np.any(config.eps > 0):
            time.sleep(30.0)
        raise TypeError("injected in the parent")

    monkeypatch.setattr(evolution, "step", slow_or_raising)
    started = time.monotonic()
    with pytest.raises(TypeError, match="^injected in the parent$"):
        stability_experiment(model, grid201, cfg, **MIXED,
                             stationary=stationary201)
    assert time.monotonic() - started < 15.0
    assert multiprocessing.active_children() == []


def test_child_warning_is_logged_once_in_the_parent(model, grid201,
                                                    stationary201,
                                                    monkeypatch, caplog,
                                                    tmp_path, two_cores):
    # transport pushes one node of p 1e-6 above 1 in every step of the
    # child's eps > 0 cell: its clip warning, made in the child, reaches
    # this process's "spheroid" logger once: the file handlers the child
    # inherits, on that logger and on the root, each write it once
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=0.2, output_interval=0.2)
    parent = os.getpid()
    transport = evolution.transport_step

    def overshoot(*args):
        p = transport(*args)
        if os.getpid() != parent:
            p[..., 10] = 1.0 + 1e-6
        return p

    monkeypatch.setattr(evolution, "transport_step", overshoot)
    loggers = [logging.getLogger(name) for name in ("spheroid", None)]
    handlers = [logging.FileHandler(tmp_path / f"{b}.log") for b in (0, 1)]
    for logger, handler in zip(loggers, handlers):
        logger.addHandler(handler)
    try:
        with caplog.at_level(logging.WARNING, logger="spheroid"):
            rep = stability_experiment(
                model, grid201, cfg, eps_list=(0.0, 0.05),
                delta_list=(0.01,), shapes=("poly",), seeds=(1,),
                stationary=stationary201)
    finally:
        for logger, handler in zip(loggers, handlers):
            logger.removeHandler(handler)
            handler.close()
    clipped = ("clipped fields beyond tolerance 10 times "
               "(max excess 1.000e-06)")
    warnings = [(r.getMessage(), r.process == parent) for r in caplog.records
                if r.levelno >= logging.WARNING]
    assert warnings == [(clipped, False)]
    for b in (0, 1):
        assert (tmp_path / f"{b}.log").read_text().splitlines() == [clipped]
    assert [c.clip_events for c in rep.cells] == [0, 10]


def test_one_core_steps_the_matrix_here(model, grid201, stationary201,
                                        monkeypatch, tmp_path, two_cores):
    # on two cores the matrix forks once, and its eps > 0 batch steps in
    # the child; on one it starts no process, steps the two batches here
    # one after the other and reports the same cells, bit for bit
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=2.0, output_interval=0.2)
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    def stepped_by():
        # the process of each recorded batch, ordered by eps
        return [path.name.split("-")[1] for path in
                sorted(tmp_path.glob("batch-*"),
                       key=lambda path: pickle.loads(path.read_bytes())[2])]

    batches = _capture_batches(monkeypatch, tmp_path)
    monkeypatch.setattr(os, "fork", counting)
    split = stability_experiment(model, grid201, cfg, **MIXED,
                                 stationary=stationary201)
    assert forks == [os.getpid()]
    here, child = stepped_by()
    assert here == str(os.getpid()) != child
    assert [eps for _, _, eps, _ in batches()] == [[0.0] * 2, [0.05] * 2]

    def refusing():
        raise AssertionError("forked on one core")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", refusing)
    alone = stability_experiment(model, grid201, cfg, **MIXED,
                                 stationary=stationary201)
    assert stepped_by() == [str(os.getpid())] * 2
    assert [eps for _, _, eps, _ in batches()] == [[0.0] * 2, [0.05] * 2]
    assert [c.status for c in alone.cells] == ["ok"] * 4
    assert pickle.dumps(alone) == pickle.dumps(split)


def test_output_buffered_before_the_fork_is_written_once():
    # a line still in stdout's buffer when the matrix forks is written
    # once; importing the package loads no multiprocessing
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import spheroid as sp\n"
            "print('multiprocessing' in sys.modules)\n"
            "grid = sp.Grid(21)\n"
            "rep = sp.stability_experiment(sp.default_model(), grid, "
            "sp.SolverConfig(eps=0.0, dt=0.02, t_end=0.2, "
            "output_interval=0.2), eps_list=(0.0, 0.05), "
            "delta_list=(0.01,), shapes=('poly',), seeds=(1,))\n"
            "print([c.status for c in rep.cells])\n")
    src = os.path.dirname(os.path.dirname(spheroid.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines() == ["False", "['ok', 'ok']"]
