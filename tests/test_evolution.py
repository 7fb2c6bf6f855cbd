import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import LinAlgError

from spheroid import (ConvergenceError, DomainError, Grid, NumericsError,
                      Rate, SolverConfig, State, VelocityField,
                      admissibility_report, admissible_init,
                      boundary_radius_step, default_model, nutrient_step,
                      simulate, solve_nutrient, solve_stationary, step,
                      transport_step, velocity_from_state)
from spheroid import evolution, rates
from spheroid.grid import MIN_NODES

from conftest import all_zero_model, make_model, zero_rate


def flat_state(grid, c=1.0, p=0.5, z=0.0, t=0.0):
    return State(t=t, z=z, c=np.full(grid.n, float(c)),
                 p=np.full(grid.n, float(p)))


# ---------------- velocity ----------------

def test_velocity_constant_source():
    # constant fields: g = K_M p - K_D = 0.25*0.5 - 0.25 = -0.125 everywhere,
    # so v = -0.125 r / 3 exactly and the advection w cancels
    grid = Grid(101)
    m = make_model(K_B=zero_rate(), K_P=zero_rate(),
                   K_D=Rate("constant", {"value": 0.25}))
    vel = velocity_from_state(m, flat_state(grid), grid)
    assert np.allclose(vel.v, -0.125 * grid.r / 3.0, rtol=0, atol=1e-14)
    assert np.allclose(vel.w, 0.0, atol=1e-14)
    assert vel.v1 == pytest.approx(-0.125 / 3.0, abs=1e-14)


def test_velocity_linear_source():
    # g(c, p) = p with p = r -> v = r^2 / 4 exactly
    grid = Grid(101)
    m = make_model(K_B=Rate("constant", {"value": 1.0}), K_P=zero_rate(),
                   K_Q=zero_rate(), K_D=zero_rate())
    state = flat_state(grid)
    state.p = grid.r.copy()
    vel = velocity_from_state(m, state, grid)
    assert np.allclose(vel.v, grid.r**2 / 4.0, rtol=0, atol=1e-14)
    assert vel.w[0] == 0.0 and vel.w[-1] == 0.0


def test_velocity_zero_source():
    grid = Grid(51)
    vel = velocity_from_state(all_zero_model(), flat_state(grid), grid)
    assert np.all(vel.v == 0.0) and np.all(vel.w == 0.0) and vel.v1 == 0.0


# ---------------- nutrient step ----------------

def test_nutrient_step_constant_in_kernel():
    # F = 0 and c = 1: constant profile is preserved exactly
    grid = Grid(101)
    m = all_zero_model()
    state = flat_state(grid)
    vel = velocity_from_state(m, state, grid)
    c_new = nutrient_step(m, state, vel, dt=0.1, eps=0.5, grid=grid)
    assert np.allclose(c_new, 1.0, rtol=0, atol=1e-14)


def test_nutrient_step_fixed_point_is_quasi_static_profile():
    # with v1 = 0 the implicit step keeps the BVP solution to solver noise
    grid = Grid(201)
    m = default_model()
    prof = solve_nutrient(m, 0.4, grid)
    state = State(t=0.0, z=0.4, c=prof.c.copy(), p=np.full(grid.n, 0.5))
    vel = VelocityField(v=np.zeros(grid.n), w=np.zeros(grid.n), v1=0.0)
    c_new = nutrient_step(m, state, vel, dt=0.05, eps=0.05, grid=grid)
    assert np.max(np.abs(c_new - prof.c)) < 1e-8


def test_nutrient_step_contracts_perturbations():
    # perturbation of the steady profile shrinks; big step tracks a
    # fine-step reference of the same linearized problem to O(dt)
    grid = Grid(201)
    m = make_model(F=Rate("linear", {"slope": 1.0}))
    prof = solve_nutrient(m, 0.0, grid)
    bump = 0.01 * (1.0 - grid.r**2)
    vel = VelocityField(v=np.zeros(grid.n), w=np.zeros(grid.n), v1=0.0)
    eps, dt = 0.1, 0.05

    state = State(t=0.0, z=0.0, c=prof.c + bump, p=np.full(grid.n, 0.5))
    coarse = nutrient_step(m, state, vel, dt=dt, eps=eps, grid=grid)
    dev_before = np.max(np.abs(state.c - prof.c))
    dev_after = np.max(np.abs(coarse - prof.c))
    assert dev_after < dev_before

    fine = state.c.copy()
    n_sub = 50
    for _ in range(n_sub):
        sub = State(t=0.0, z=0.0, c=fine, p=state.p)
        fine = nutrient_step(m, sub, vel, dt=dt / n_sub, eps=eps, grid=grid)
    assert np.max(np.abs(coarse - fine)) < 0.2 * dev_before


def test_nutrient_step_takes_eps_per_row():
    # a (B,) eps gives each row the profile of its own scalar-eps call, bit
    # for bit; a row with eps <= 0 is rejected as a scalar eps is
    grid = Grid(201)
    m = default_model()
    bump = 1.0 - grid.r**2
    batch = evolution._stack([
        State(t=0.0, z=z, c=solve_nutrient(m, z, grid).c + 0.01 * k * bump,
              p=np.full(grid.n, 0.3 + 0.2 * k))
        for k, z in enumerate((0.2, 0.5, 0.8))])
    vel = velocity_from_state(m, batch, grid)
    eps = np.array([0.01, 0.05, 0.5])
    c_new = nutrient_step(m, batch, vel, 0.02, eps, grid)
    for b in range(3):
        row = batch.row(b)
        alone = nutrient_step(m, row, velocity_from_state(m, row, grid), 0.02,
                              float(eps[b]), grid)
        assert np.array_equal(c_new[b], alone)
    for bad in (np.array([0.05, 0.0, 0.05]), np.array([0.05, 0.05, -0.1]),
                0.0):
        with pytest.raises(ValueError, match="requires eps > 0"):
            nutrient_step(m, batch, vel, 0.02, bad, grid)


# ---------------- transport step ----------------

def test_transport_identity_when_still():
    grid = Grid(101)
    m = all_zero_model()
    state = flat_state(grid)
    state.p = 0.3 + 0.4 * np.cos(np.pi * grid.r / 2)
    vel = VelocityField(v=np.zeros(grid.n), w=np.zeros(grid.n), v1=0.0)
    p_new = transport_step(m, state, vel, 0.05, grid)
    assert np.array_equal(p_new, state.p)


def test_transport_pointwise_ode_matches_closed_form():
    # K_M = 0 makes the reaction linear in p with zero advection:
    # p(t) = p_eq + (p0 - p_eq) exp(-K_N t) node by node
    grid = Grid(101)
    m = make_model(K_B=zero_rate(), K_D=zero_rate())
    prof = solve_nutrient(m, 0.5, grid)
    kp = m.K_P(prof.c)[0]
    kq = m.K_Q(prof.c)[0]
    kn = kp + kq
    p_eq = kp / kn
    p0 = np.full(grid.n, 0.2)

    def run(dt, t_end):
        state = State(t=0.0, z=0.5, c=prof.c, p=p0.copy())
        vel = velocity_from_state(m, state, grid)
        assert np.allclose(vel.w, 0.0, atol=1e-16)
        for _ in range(round(t_end / dt)):
            state.p = transport_step(m, state, vel, dt, grid)
        return state.p

    exact = p_eq + (p0 - p_eq) * np.exp(-kn * 2.0)
    err1 = np.max(np.abs(run(0.1, 2.0) - exact))
    err2 = np.max(np.abs(run(0.05, 2.0) - exact))
    assert err1 < 5e-4
    assert np.log2(err1 / err2) == pytest.approx(2.0, abs=0.3)


def test_transport_advection_matches_characteristic_oracle():
    # manufactured velocity from g = rho: v = rho^2/4, w = (rho^2 - rho)/4;
    # with no reaction, p just rides the characteristics
    grid = Grid(201)
    m = all_zero_model()
    r = grid.r
    vel = VelocityField(v=r**2 / 4.0, w=(r**2 - r) / 4.0, v1=0.25)
    p_fun = lambda x: 0.5 + 0.3 * np.cos(np.pi * x / 2)

    dt, n_steps = 0.01, 50
    state = State(t=0.0, z=0.0, c=np.ones(grid.n), p=p_fun(r))
    for _ in range(n_steps):
        state.p = transport_step(m, state, vel, dt, grid)

    sol = solve_ivp(lambda t, y: (y**2 - y) / 4.0, (0.0, -dt * n_steps), r,
                    rtol=1e-12, atol=1e-14)
    feet_exact = sol.y[:, -1]
    p_exact = p_fun(feet_exact)
    assert np.max(np.abs(state.p - p_exact)) < 5e-6


@st.composite
def nodal_data(draw):
    """Nodal values on a uniform grid and evaluation points in [0, 1].

    Small integer levels give flat runs and kinks; floats give generic
    data.  The points include both ends and every grid node."""
    n = draw(st.sampled_from([4, 5, 201]))
    if draw(st.booleans()):
        y = draw(arrays(np.int64, n, elements=st.integers(-2, 2))).astype(float)
    else:
        floats = st.floats(-1.0, 1.0, allow_subnormal=False)
        y = draw(arrays(np.float64, n, elements=floats))
    y = y * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = draw(arrays(np.float64, draw(st.integers(0, 20)),
                    elements=st.floats(0.0, 1.0)))
    return y, np.concatenate([x, [0.0, 1.0], Grid(n).r])


@settings(max_examples=150, deadline=None)
@given(data=nodal_data())
def test_hermite_kernel_matches_scipy(data):
    # the transport kernel with the slopes of Grid.derivative, against
    # scipy's cubic Hermite spline on the same slopes
    y, x = data
    grid = Grid(y.size)
    tol = 1e-13 * np.max(np.abs(y))
    # p and c share one stacked slope pass and one evaluation
    yy = np.stack((y, y[::-1]))
    slopes = grid.derivative(yy)
    got = evolution.hermite_eval(yy, slopes, x, grid.h)
    for row, d, vals in zip(yy, slopes, got):
        want = CubicHermiteSpline(grid.r, row, d)(x)
        assert np.max(np.abs(vals - want)) <= tol
    # per-row feet, as a batched transport step traces them: row b of a
    # (B, n) batch, and of p and c stacked to (2, B, n), is evaluated at its
    # own points x[b], exactly as that row alone
    xx = np.stack((x, x[::-1], np.sort(x)))
    rows = np.stack((y, y[::-1], -y))
    for ys in (rows, np.stack((rows, 2.0 * rows))):
        slopes = grid.derivative(ys)
        per_row = evolution.hermite_eval(ys, slopes, xx, grid.h)
        assert per_row.shape == ys.shape[:-1] + x.shape
        for idx in np.ndindex(ys.shape[:-1]):
            xb = xx[idx[-1]]
            want = CubicHermiteSpline(grid.r, ys[idx], slopes[idx])(xb)
            assert (np.max(np.abs(per_row[idx] - want))
                    <= 1e-13 * np.max(np.abs(ys[idx])))
            alone = evolution.hermite_eval(ys[idx], slopes[idx], xb, grid.h)
            assert np.array_equal(per_row[idx], alone)


def test_transport_rejects_nonfinite_velocity():
    grid = Grid(51)
    state = flat_state(grid)
    w = np.zeros(grid.n)
    w[7] = np.nan
    vel = VelocityField(v=np.zeros(grid.n), w=w, v1=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        transport_step(default_model(), state, vel, 0.02, grid)


def test_step_on_smallest_grid():
    # the r = 1 stencil of Grid.derivative spans four nodes, which the
    # smallest grid has
    grid = Grid(MIN_NODES)
    m = default_model()
    z = 0.3
    prof = solve_nutrient(m, z, grid)
    assert np.all(np.isfinite(prof.c_r)) and prof.c_r[0] == 0.0
    state = State(t=0.0, z=z, c=prof.c, p=np.linspace(0.5, 0.7, grid.n))
    for eps in (0.0, 0.05):
        for splitting in ("lie", "heun"):
            cfg = SolverConfig(eps=eps, dt=0.02, splitting=splitting)
            new = step(m, state, grid, cfg)
            assert np.all(np.isfinite(new.p)) and np.all(np.isfinite(new.c))
            assert abs(new.z - z) < 0.01


# ---------------- boundary radius step ----------------

def test_radius_step_zero_velocity():
    grid = Grid(11)
    vel = VelocityField(v=np.zeros(11), w=np.zeros(11), v1=0.0)
    state = flat_state(grid, z=0.7)
    assert boundary_radius_step(state, vel, 0.1) == 0.7


def test_radius_step_constant_velocity_exact():
    grid = Grid(11)
    vel = VelocityField(v=np.zeros(11), w=np.zeros(11), v1=0.3)
    state = flat_state(grid, z=0.0)
    assert boundary_radius_step(state, vel, 0.25) == pytest.approx(0.075, abs=1e-16)


def test_radius_step_heun_second_order():
    # manufactured v1(t) = e^{-t}: z(t) = z0 + 1 - e^{-t}
    def run(dt):
        z, t = 0.0, 0.0
        grid = Grid(11)
        while t < 1.0 - 1e-12:
            vel = VelocityField(np.zeros(11), np.zeros(11), np.exp(-t))
            vel_pred = VelocityField(np.zeros(11), np.zeros(11), np.exp(-(t + dt)))
            state = State(t=t, z=z, c=np.ones(11), p=np.ones(11))
            z = boundary_radius_step(state, vel, dt, vel_pred)
            t += dt
        return z

    exact = 1.0 - np.exp(-1.0)
    e1 = abs(run(0.05) - exact)
    e2 = abs(run(0.025) - exact)
    assert np.log2(e1 / e2) == pytest.approx(2.0, abs=0.3)


# ---------------- composite step and simulate ----------------

def test_all_rates_zero_state_constant():
    grid = Grid(101)
    m = all_zero_model()
    for eps in (0.0, 0.05):
        cfg = SolverConfig(eps=eps, dt=0.05, t_end=1.0)
        state = flat_state(grid, c=1.0, p=0.5, z=0.4)
        p0, z0 = state.p.copy(), state.z
        for _ in range(20):
            state = step(m, state, grid, cfg)
        assert np.max(np.abs(state.c - 1.0)) < 1e-12
        assert np.array_equal(state.p, p0)
        assert state.z == z0


def test_step_invariants_and_near_stationarity(model, grid201, stationary201):
    cfg = SolverConfig(eps=0.0, dt=0.02)
    state = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                  p=stationary201.p.copy())
    for _ in range(100):
        state = step(model, state, grid201, cfg)
        assert state.c[-1] == 1.0
    assert abs(state.z - stationary201.z) < 1e-5
    assert np.max(np.abs(state.p - stationary201.p)) < 1e-5
    assert np.all(state.c >= -1e-10) and np.all(state.c <= 1 + 1e-10)
    assert np.all(state.p >= -1e-10) and np.all(state.p <= 1 + 1e-10)


def test_step_splittings_agree_to_first_order(model, grid201, stationary201):
    # eps > 0 reaches the time-centered nutrient corrector of "heun"
    init = admissible_init(stationary201, 0.01, "poly")
    for eps in (0.0, 0.05):
        finals = []
        for splitting in ("lie", "heun"):
            cfg = SolverConfig(eps=eps, dt=0.02, splitting=splitting)
            state = State(t=0.0, z=init.z, c=init.c.copy(), p=init.p.copy())
            state.c = solve_nutrient(model, state.z, grid201, guess=state.c).c
            for _ in range(50):
                state = step(model, state, grid201, cfg)
            finals.append(state)
        assert abs(finals[0].z - finals[1].z) < 1e-4, eps
        assert np.max(np.abs(finals[0].p - finals[1].p)) < 1e-4, eps


def test_simulate_stationary_stays_put(model, grid201, stationary201):
    init = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                 p=stationary201.p.copy())
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=4.0, output_interval=0.5)
    result = simulate(model, init, grid201, cfg, stationary201)
    assert len(result.records) == 9
    for rec in result.records:
        assert rec.max_norm() < 1e-5
    assert result.clip.events == 0


def test_simulate_quasi_static_eta_is_tiny(model, grid201, stationary201):
    init = admissible_init(stationary201, 0.01, "poly", seed=3)
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=2.0, output_interval=0.2)
    result = simulate(model, init, grid201, cfg, stationary201)
    for rec in result.records:
        assert rec.eta_dev <= 1e-8


def test_simulate_deterministic(model, grid201, stationary201):
    results = []
    for _ in range(2):
        init = admissible_init(stationary201, 0.01, "random", seed=42)
        cfg = SolverConfig(eps=0.01, dt=0.02, t_end=1.0, output_interval=0.2)
        results.append(simulate(model, init, grid201, cfg, stationary201))
    a, b = results
    assert [r.t for r in a.records] == [r.t for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert ra.norms() == rb.norms()  # bit-identical
    assert np.array_equal(a.final_state.c, b.final_state.c)
    assert np.array_equal(a.final_state.p, b.final_state.p)


def test_singular_nutrient_system_keeps_last_state(model, monkeypatch):
    # a singular implicit nutrient system in the step from t = 0.58 ends
    # the run with the output at t = 0.4 as its last healthy state
    grid = Grid(51)
    stat = solve_stationary(model, grid, cross_check=False)
    init = admissible_init(stat, 0.01, "poly")
    cfg = SolverConfig(eps=0.05, dt=0.02, t_end=1.0, output_interval=0.2)
    calls = []
    solve = evolution.tri_solve

    def singular(*args):
        calls.append(1)
        if len(calls) == 30:
            raise LinAlgError("singular tridiagonal system (pivot 3)")
        return solve(*args)

    monkeypatch.setattr(evolution, "tri_solve", singular)
    with pytest.raises(NumericsError) as info:
        simulate(model, init, grid, cfg, stat)
    assert str(info.value).startswith(
        "step failed at t=0.58: singular nutrient system at t=0.58")
    assert info.value.last_state.t == pytest.approx(0.4, abs=1e-12)
def test_simulate_warns_only_on_real_violations(model, grid201, stationary201,
                                                caplog):
    # p0(1) = p*(1) < 1 is the expected boundary rest point, not a violation
    init = admissible_init(stationary201, 0.01, "poly")
    with caplog.at_level(logging.WARNING, logger="spheroid"):
        result = simulate(model, init, grid201, SolverConfig(t_end=1.0),
                          stationary201)
    assert [r.getMessage() for r in caplog.records] == []
    assert result.warnings == []
    report = admissibility_report(init, grid201)
    assert report.admissible and report.p_boundary == init.p[-1] < 1.0

    init.c[-1] = 0.9
    with caplog.at_level(logging.WARNING, logger="spheroid"):
        result = simulate(model, init, grid201, SolverConfig(t_end=0.2),
                          stationary201)
    assert result.warnings == ["c(1) = 0.9, expected 1"]
    assert [r.getMessage() for r in caplog.records] == [
        "initial data: c(1) = 0.9, expected 1"]


def test_simulate_raises_on_nonfinite(model, grid201, stationary201):
    init = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                 p=stationary201.p.copy())
    init.p[5] = np.nan
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=1.0, output_interval=0.2)
    with pytest.raises(NumericsError):
        simulate(model, init, grid201, cfg, stationary201)


def test_simulate_wraps_newton_failure(model, grid201, stationary201,
                                       monkeypatch):
    # eps = 0 solves the nutrient once to project the initial data, once per
    # output and twice per step: call 26 is the predictor of step 12, just
    # after the output at t = 0.2
    init = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                 p=stationary201.p.copy())
    solve = evolution.solve_nutrient
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 26:
            raise ConvergenceError("Newton stalled", residual=1.0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(evolution, "solve_nutrient", failing)
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=1.0, output_interval=0.2)
    with pytest.raises(NumericsError) as err:
        simulate(model, init, grid201, cfg, stationary201)
    assert "t=0.22" in str(err.value)
    assert err.value.last_state.t == pytest.approx(0.2, abs=1e-12)
    assert isinstance(err.value.__cause__, ConvergenceError)


def test_simulate_wraps_nonfinite_velocity(model, grid201, stationary201,
                                           monkeypatch):
    # a NaN advection velocity at the start of step 12 (velocity calls: one
    # per output, two per step, so call 25) must surface as a typed
    # NumericsError, not a bare IndexError from the interpolation kernel
    init = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                 p=stationary201.p.copy())
    velocity = evolution.velocity_from_state
    calls = []

    def poisoned(*args, **kwargs):
        vel = velocity(*args, **kwargs)
        calls.append(1)
        if len(calls) == 25:
            vel.w[grid201.n // 2] = np.nan
        return vel

    monkeypatch.setattr(evolution, "velocity_from_state", poisoned)
    cfg = SolverConfig(eps=0.0, dt=0.02, t_end=1.0, output_interval=0.2)
    with pytest.raises(NumericsError) as err:
        simulate(model, init, grid201, cfg, stationary201)
    assert "t=0.22" in str(err.value)
    assert err.value.last_state is not None
    assert err.value.last_state.t == pytest.approx(0.2, abs=1e-12)
    assert isinstance(err.value.__cause__, ValueError)


def test_simulate_rejects_nutrient_outside_domain(model, grid201,
                                                  stationary201):
    # simulate checks the initial nutrient where it checks for non-finite
    # data, before the first nutrient solve of a fresh run (the projection
    # at eps = 0, the initial output at eps > 0) and the first step of a
    # resumed one
    init = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                 p=stationary201.p.copy())
    init.c[10] = model.c_hi + 2.0 * model.margin
    for eps in (0.0, 0.05):
        cfg = SolverConfig(eps=eps, dt=0.02, t_end=1.0, output_interval=0.2)
        for prev_output in (None, init):
            with pytest.raises(NumericsError) as err:
                simulate(model, init, grid201, cfg, stationary201,
                         prev_output=prev_output)
            assert str(err.value).startswith("initial data: c=2 outside")
            assert isinstance(err.value.__cause__, DomainError)
            assert err.value.last_state is None
    # step still checks the nutrient it is given
    with pytest.raises(DomainError, match="^step: c="):
        step(model, init, grid201, SolverConfig(eps=0.05))


def test_simulate_rejects_nutrient_step_outside_domain(model, grid201,
                                                       stationary201,
                                                       monkeypatch):
    # nutrient_step checks the profile it returns
    init = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                 p=stationary201.p.copy())
    solve = evolution.tri_solve
    monkeypatch.setattr(evolution, "tri_solve",
                        lambda *rows: solve(*rows) + 1.0)
    cfg = SolverConfig(eps=0.05, dt=0.02, t_end=1.0, output_interval=0.2)
    with pytest.raises(NumericsError) as err:
        simulate(model, init, grid201, cfg, stationary201)
    assert isinstance(err.value.__cause__, DomainError)
    assert str(err.value.__cause__).startswith("nutrient_step: c=")
    assert err.value.last_state.t == 0.0


@pytest.mark.parametrize("eps, checked", [(0.0, ["step"]),
                                          (0.05, ["step", "nutrient_step"])])
def test_domain_checked_where_nutrient_enters(monkeypatch, eps, checked):
    # one check of the step's input c, one of nutrient_step's output; the
    # rate formulas check nothing (Newton trials use nutrient's own binding)
    check = rates.check_domain
    calls = []

    def counting(model, c, context):
        calls.append(context)
        return check(model, c, context)

    monkeypatch.setattr(evolution, "check_domain", counting)
    monkeypatch.setattr(rates, "check_domain", counting)
    grid = Grid(51)
    m = default_model()
    state = State(t=0.0, z=0.3, c=solve_nutrient(m, 0.3, grid).c,
                  p=np.full(grid.n, 0.5))
    step(m, state, grid, SolverConfig(eps=eps, dt=0.02))
    assert calls == checked


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(splitting="strang")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.5, output_interval=0.1)
    for name in ("eps", "dt", "t_end", "output_interval"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(**{name: value})
