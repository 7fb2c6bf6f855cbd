import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheroid import (Grid, InsufficientDataError, SolverConfig, State,
                      admissible_init, deviation_norms, fit_decay,
                      solve_nutrient)
from spheroid.analysis import PERTURBATION_SHAPES, _convergence_study


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
    fit = fit_decay(list(zip(t, y)), window=1.0)
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


# ---------------- deviation_norms ----------------

def test_deviation_norms_at_stationary(stationary201, model):
    state = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                  p=stationary201.p.copy())
    prof = solve_nutrient(model, state.z, stationary201.grid, guess=state.c)
    rec = deviation_norms(state, None, stationary201, prof)
    assert rec.max_norm() < 1e-9


def test_deviation_norms_z_shift(stationary201, model):
    state = State(t=1.0, z=stationary201.z + 0.1, c=stationary201.c.copy(),
                  p=stationary201.p.copy())
    prof = solve_nutrient(model, stationary201.z, stationary201.grid)
    rec = deviation_norms(state, None, stationary201, prof)
    assert rec.z_dev == pytest.approx(0.1, abs=1e-15)


def test_deviation_norms_manufactured_bump(stationary201, model):
    grid = stationary201.grid
    state = State(t=0.0, z=stationary201.z,
                  c=stationary201.c + 0.01 * (1.0 - grid.r**2),
                  p=stationary201.p.copy())
    prof = solve_nutrient(model, state.z, grid)
    rec = deviation_norms(state, None, stationary201, prof)
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
    rec = deviation_norms(state, prev, stationary201, prof)
    assert rec.z_dot_dev == pytest.approx(0.1, rel=1e-12)
    assert rec.c_t_dev == pytest.approx(0.02, rel=1e-10)


def test_deviation_norms_grid_mismatch(stationary201, model):
    small = Grid(51)
    state = State(t=0.0, z=0.0, c=np.ones(51), p=np.ones(51))
    prof = solve_nutrient(model, 0.0, small)
    with pytest.raises(ValueError):
        deviation_norms(state, None, stationary201, prof)


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
