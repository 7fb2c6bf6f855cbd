import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from spheroid import (ConvergenceError, Grid, Rate, State, bounds_report,
                      default_model, flux_residual, nutrient_sensitivity,
                      nutrient_step, solve_nutrient, velocity_from_state)
from spheroid import nutrient

from conftest import all_zero_model, make_model


def closed_form(r, z=0.0, slope=1.0):
    """Exact profile for linear consumption: sinh(k r) / (r sinh k).

    Verified against the equation: (sinh(kr)/r)'' + (2/r)(sinh(kr)/r)' =
    k^2 sinh(kr)/r, with k^2 = e^{2z} * slope, value 1 at r = 1 and zero
    slope at the origin.
    """
    k = math.exp(z) * math.sqrt(slope)
    out = np.empty_like(r)
    out[0] = k / math.sinh(k)
    out[1:] = np.sinh(k * r[1:]) / (r[1:] * math.sinh(k))
    return out


def linear_model(slope=1.0):
    return make_model(F=Rate("linear", {"slope": slope}))


def test_zero_consumption_gives_flat_profile():
    m = all_zero_model()
    prof = solve_nutrient(m, 0.7, Grid(51))
    assert np.array_equal(prof.c, np.ones(51))
    assert np.allclose(nutrient_sensitivity(m, 0.7, prof.c, Grid(51)), 0.0,
                       atol=1e-15)
    assert np.allclose(prof.c_r, 0.0, atol=1e-15)


def test_boundary_value_exact():
    for z in (-1.0, 0.0, 1.3):
        prof = solve_nutrient(default_model(), z, Grid(101))
        assert prof.c[-1] == 1.0


def test_closed_form_value():
    # m(0.5; 0) = sinh(0.5) / (0.5 sinh 1) ~ 0.88682
    grid = Grid(401)
    prof = solve_nutrient(linear_model(), 0.0, grid)
    expected = math.sinh(0.5) / (0.5 * math.sinh(1.0))
    assert expected == pytest.approx(0.8868188839700739, abs=1e-15)
    i = 200
    assert grid.r[i] == 0.5
    assert prof.c[i] == pytest.approx(expected, abs=1e-7)


def test_closed_form_convergence_order():
    errs = []
    for n in (101, 201, 401):
        grid = Grid(n)
        prof = solve_nutrient(linear_model(), 0.0, grid)
        errs.append(np.max(np.abs(prof.c - closed_form(grid.r))))
    assert errs[-1] < 1e-5
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)
    assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.2)


def test_sensitivity_matches_z_difference():
    # dc/dz from the linearized problem vs centered difference in z
    grid = Grid(201)
    m = default_model()
    dz = 1e-3
    prof = solve_nutrient(m, 0.5, grid)
    hi = solve_nutrient(m, 0.5 + dz, grid)
    lo = solve_nutrient(m, 0.5 - dz, grid)
    fd = (hi.c - lo.c) / (2 * dz)
    c_z = nutrient_sensitivity(m, 0.5, prof.c, grid)
    assert np.max(np.abs(c_z - fd)) < 5e-6
    # a batch's rows are those of each profile alone, bit for bit
    batch = solve_nutrient(m, np.array([0.5 - dz, 0.5, 0.5 + dz]), grid)
    rows = nutrient_sensitivity(m, batch.z, batch.c, grid)
    for c, c_z, one in zip(batch.c, rows, (lo, prof, hi)):
        assert np.array_equal(c, one.c)
        assert np.array_equal(c_z, nutrient_sensitivity(m, one.z, one.c, grid))


def test_profile_monotone_in_r_and_z():
    grid = Grid(201)
    m = default_model()
    prev = None
    for z in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
        prof = solve_nutrient(m, z, grid)
        assert np.all(np.diff(prof.c) >= -1e-13), f"not monotone in r at z={z}"
        if prev is not None:
            # larger tumor -> less nutrient everywhere
            assert np.all(prev - prof.c >= -1e-13), f"z-ordering broken at z={z}"
        prev = prof.c


def test_warm_start_converges_fast(monkeypatch):
    grid = Grid(201)
    m = default_model()
    prof = solve_nutrient(m, 1.0, grid)
    solve = nutrient.tri_solve
    calls = []

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(nutrient, "tri_solve", counting)
    # re-solving at a converged profile, as the eps = 0 output does, costs
    # one residual evaluation and no tridiagonal solve
    again = solve_nutrient(m, 1.0, grid, guess=prof.c)
    assert again.iterations == 0 and calls == []
    assert np.max(np.abs(again.c - prof.c)) < 1e-12
    # a warm start from a nearby z, as the time step uses, lands on the
    # cold-start profile with one tridiagonal solve per Newton iteration
    near = solve_nutrient(m, 1.02, grid, guess=prof.c)
    assert len(calls) == near.iterations >= 1
    assert np.max(np.abs(near.c - solve_nutrient(m, 1.02, grid).c)) < 1e-10


def test_diffusion_rows_built_once_per_grid():
    nutrient._diffusion_rows.cache_clear()
    m = default_model()
    grid = Grid(51)
    first = solve_nutrient(m, 0.5, grid)
    nutrient_sensitivity(m, first.z, first.c, grid)
    again = solve_nutrient(m, 0.7, Grid(51), guess=first.c)
    state = State(t=0.0, z=0.7, c=again.c, p=np.full(grid.n, 0.5))
    nutrient_step(m, state.c, state.z,
                  velocity_from_state(m, state.c, state.p, grid).v1, 0.02,
                  0.05, grid)
    assert nutrient._diffusion_rows.cache_info().misses == 1
    assert np.max(np.abs(again.c - solve_nutrient(m, 0.7, grid).c)) < 1e-10
    # the shared rows are read-only and equal to a fresh build
    fresh = nutrient._diffusion_rows.__wrapped__(grid, 1)
    for shared, row in zip(nutrient._diffusion_rows(grid, 1), fresh):
        assert not shared.flags.writeable
        assert np.array_equal(shared, row)


def test_saturating_consumption_profile():
    # genuinely nonlinear BVP: several Newton iterations, bounds still hold
    m = make_model(F=Rate("michaelis", {"vmax": 2.0, "k": 0.5}))
    prof = solve_nutrient(m, 1.0, Grid(201))
    assert prof.iterations >= 2
    assert prof.c[-1] == 1.0
    assert np.all(np.diff(prof.c) >= -1e-13)
    assert bounds_report(m, [1.0], Grid(201)).all_passed


def test_newton_iteration_cap(monkeypatch):
    m = make_model(F=Rate("michaelis", {"vmax": 2.0, "k": 0.5}))
    monkeypatch.setattr(nutrient, "NEWTON_MAXITER", 1)
    with pytest.raises(ConvergenceError) as err:
        solve_nutrient(m, 1.5, Grid(101))
    assert err.value.residual is not None


def test_line_search_stall_raises(monkeypatch):
    # a Newton direction that points uphill halves the step until it gives up
    solve = nutrient.tri_solve
    monkeypatch.setattr(nutrient, "tri_solve", lambda *rows: -solve(*rows))
    with pytest.raises(ConvergenceError, match="^nutrient BVP line search "
                       r"stalled at z=1: residual 1\.108e\+01$") as err:
        solve_nutrient(default_model(), 1.0, Grid(51))
    assert np.isfinite(err.value.residual)


@pytest.mark.parametrize("z, guess_nan", [(0.5, True), (float("nan"), False)])
def test_nonfinite_residual_raises(z, guess_nan):
    grid = Grid(51)
    guess = np.ones(grid.n)
    if guess_nan:
        guess[10] = np.nan
    with pytest.raises(ConvergenceError) as err:
        solve_nutrient(default_model(), z, grid, guess=guess)
    assert np.isnan(err.value.residual)


def test_tri_solve_singular_system():
    # [[1, 1], [1, 1]] eliminates to a zero pivot in the last row
    lo, di, up = np.array([0.0, 1.0]), np.ones(2), np.array([1.0, 0.0])
    with pytest.raises(LinAlgError):
        nutrient.tri_solve(lo, di, up, np.array([1.0, 2.0]))
    assert np.array_equal(di, np.ones(2))  # row arrays are not overwritten
    x = nutrient.tri_solve(lo, np.array([2.0, 1.0]), up, np.array([3.0, 2.0]))
    assert np.array_equal(x, [1.0, 1.0])


def test_bounds_zero_consumption_all_equalities():
    report = bounds_report(all_zero_model(), [0.0], Grid(51))
    assert report.all_passed
    # with F(1) = 0 every envelope degenerates to an exact equality
    for entry in report.entries:
        if entry.name.startswith(("B2", "B3", "B4", "B5", "B7")):
            assert entry.margin == pytest.approx(0.0, abs=1e-12)


def test_bounds_hold_for_linear_and_default():
    grid = Grid(201)
    assert bounds_report(linear_model(), [0.0], grid).all_passed
    report = bounds_report(default_model(), [-1.0, 0.0, 1.0], grid)
    assert report.all_passed
    assert len(report.entries) == 21  # 7 bounds x 3 z-values
    assert len(report.lines()) == 21


def test_flux_residual_zero_consumption():
    prof = solve_nutrient(all_zero_model(), 0.0, Grid(51))
    assert flux_residual(prof, all_zero_model()) == 0.0


def test_flux_residual_second_order():
    m = linear_model()
    res = []
    for n in (101, 201, 401):
        prof = solve_nutrient(m, 0.0, Grid(n))
        res.append(flux_residual(prof, m))
    assert np.log2(res[0] / res[1]) == pytest.approx(2.0, abs=0.35)
    assert np.log2(res[1] / res[2]) == pytest.approx(2.0, abs=0.35)


def test_flux_residual_default_model():
    m = default_model()
    prof = solve_nutrient(m, 0.5, Grid(401))
    assert flux_residual(prof, m) < 5e-5
