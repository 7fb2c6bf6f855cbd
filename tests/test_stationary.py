import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spheroid
from spheroid import (BracketError, ConvergenceError, Grid, Rate, RateModel,
                      SolverConfig, check_assumptions, default_model,
                      equilibrium_fraction, f_reaction, solve_nutrient,
                      solve_stationary, stationary, stationary_by_bisection,
                      step, velocity_from_state)
from spheroid.evolution import State

from conftest import make_model, zero_rate


@given(st.floats(0.0, 1.0))
def test_equilibrium_fraction_is_reaction_root(c):
    m = default_model()
    p = equilibrium_fraction(m, c)
    assert 0.0 <= p <= 1.0
    assert abs(f_reaction(m, c, p)) < 1e-12


def test_equilibrium_fraction_degenerate_km():
    # K_M = 0 reduces the reaction to K_P - K_N p
    m = make_model(K_B=zero_rate(), K_D=zero_rate())
    c = 0.6
    kp = float(m.K_P(np.array(c))[0])
    kn = kp + float(m.K_Q(np.array(c))[0])
    assert equilibrium_fraction(m, c) == pytest.approx(kp / kn, rel=1e-12)


def test_equilibrium_fraction_all_zero():
    m = make_model(K_B=zero_rate(), K_D=zero_rate(), K_P=zero_rate(),
                   K_Q=zero_rate())
    assert equilibrium_fraction(m, 0.5) == 0.0


def test_stationary_residuals(stationary201):
    s = stationary201
    assert s.v1_residual <= 1e-6
    assert s.transport_residual <= 1e-4
    assert s.nutrient_gap <= 1e-9
    assert s.method == "newton+direct"


def test_stationary_profile_structure(model, stationary201):
    s = stationary201
    # nutrient profile equals the quasi-static solution at z*
    prof = solve_nutrient(model, s.z, s.grid)
    assert np.max(np.abs(s.c - prof.c)) <= 1e-9
    # proliferating fraction rises toward the nutrient-rich rim
    assert s.p[-1] > s.p[0]
    # inflow everywhere inside, vanishing at center and boundary
    assert s.v[0] == 0.0
    assert abs(s.v[-1]) <= 1e-6
    assert s.v.min() < -1e-3


def test_methods_agree(stationary201):
    # evolution fixed point vs direct construction
    assert stationary201.z_direct is not None
    assert abs(stationary201.z - stationary201.z_direct) < 1e-4


def test_bracket_error():
    # everything grows: g > 0 for all c, p at the equilibrium fraction
    m = make_model(K_D=zero_rate(), K_Q=zero_rate())
    with pytest.raises(BracketError):
        stationary_by_bisection(m, Grid(101), z_bracket=(-0.5, 0.5))


def test_full_pipeline_with_saturating_consumption():
    # nothing in the chain may assume linear consumption: stationary solve,
    # cross-check, perturbation, and decay must all work for michaelis F
    import dataclasses
    from spheroid import SolverConfig, admissible_init, check_assumptions, simulate
    m = dataclasses.replace(default_model(),
                            F=Rate("michaelis", {"vmax": 3.0, "k": 0.4}))
    assert check_assumptions(m).all_passed
    grid = Grid(101)
    s = solve_stationary(m, grid, tol=1e-6, cross_check=True)
    assert s.v1_residual <= 1e-6
    assert s.transport_residual <= 1e-4
    assert abs(s.z - s.z_direct) < 1e-4
    init = admissible_init(s, 0.01, "cosine", seed=2)
    cfg = SolverConfig(eps=0.02, dt=0.02, t_end=30.0, output_interval=0.5)
    res = simulate(m, init, grid, cfg, s)
    assert res.records[-1].max_norm() < 0.3 * res.records[0].max_norm()
    assert res.clip.events == 0


def fixed_point_residual(model, solution, config):
    """|step(x) - x|_inf / dt for x = (z, p), by an independent step."""
    state = State(t=0.0, z=solution.z, c=solution.c.copy(),
                  p=solution.p.copy())
    new = step(model, state, solution.grid, config)
    return max(abs(new.z - state.z),
               float(np.max(np.abs(new.p - state.p)))) / config.dt


def test_stationary_is_evolution_fixed_point(model, grid201, stationary201):
    # one evolution step barely moves the returned fields
    cfg = SolverConfig(eps=0.0, dt=0.02)
    state = State(t=0.0, z=stationary201.z, c=stationary201.c.copy(),
                  p=stationary201.p.copy())
    new = step(model, state, grid201, cfg)
    assert abs(new.z - state.z) < 1e-6 * cfg.dt * 10
    assert np.max(np.abs(new.p - state.p)) < 1e-6
    vel = velocity_from_state(model, new, grid201)
    assert abs(vel.v1) < 1e-6
    # the certificate: |F|_inf <= tol/10 for the fixture's tol = 1e-6
    assert max(abs(new.z - state.z),
               np.max(np.abs(new.p - state.p))) / cfg.dt <= 1e-6 / 10


def increasing_rate():
    return st.one_of(
        st.builds(lambda s: Rate("linear", {"slope": s}), st.floats(0.1, 3.0)),
        st.builds(lambda v, k: Rate("michaelis", {"vmax": v, "k": k}),
                  st.floats(0.2, 4.0), st.floats(0.1, 2.0)))


def decreasing_rate():
    return st.builds(
        lambda a, s, c: Rate("sigmoid", {"amp": a, "steepness": s, "center": c}),
        st.floats(0.05, 2.0), st.floats(0.2, 4.0), st.floats(0.0, 1.0))


@settings(max_examples=10, deadline=None)
@given(st.builds(RateModel, F=increasing_rate(), K_B=increasing_rate(),
                 K_P=increasing_rate(), K_Q=decreasing_rate(),
                 K_D=decreasing_rate()))
def test_stationary_certified_or_typed_failure(m):
    # across rate sets that satisfy (A1)-(A5), the solve either returns a
    # state an independent step certifies, or raises ConvergenceError; a
    # 200-unit horizon bounds the cost of a failing draw
    assume(check_assumptions(m).all_passed)
    grid = Grid(51)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stationary, "T_RELAX", 200.0)
        try:
            s = solve_stationary(m, grid, cross_check=False)
        except ConvergenceError:
            return
    assert fixed_point_residual(m, s, SolverConfig()) <= 1e-6 / 10


def lin(slope):
    return Rate("linear", {"slope": slope})


def mm(vmax, k):
    return Rate("michaelis", {"vmax": vmax, "k": k})


def sig(amp, steepness, center):
    return Rate("sigmoid", {"amp": amp, "steepness": steepness,
                            "center": center})


# sets of the sweep's strategy that certify at N=51 in well under 1 s
SOLVABLE_SETS = [
    RateModel(F=lin(2.82), K_B=lin(0.636), K_P=lin(2.223),
              K_Q=sig(1.076, 1.965, 0.223), K_D=sig(1.525, 0.645, 0.247)),
    RateModel(F=lin(1.424), K_B=lin(2.448), K_P=mm(3.06, 1.042),
              K_Q=sig(1.695, 0.215, 0.666), K_D=sig(1.546, 1.441, 0.857)),
]


def test_stationary_step_count(monkeypatch):
    # the relaxation to RELAX_LEVEL takes coarse pseudo-time steps and
    # Newton steps its Jacobian columns in batches: the default-model N=51
    # solve makes 221 step calls (1182 with a fine-step relaxation)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(stationary, "step", counting)
    solve_stationary(default_model(), Grid(51), cross_check=False)
    assert len(calls) <= 600


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.2])
def test_stationary_certified_for_callers_dt(dt):
    # the certificate holds for the caller's dt, also above RELAX_DT, and
    # an output interval below RELAX_DT does not hinder the coarse steps
    m = default_model()
    config = SolverConfig(dt=dt, output_interval=dt)
    s = solve_stationary(m, Grid(51), config=config, cross_check=False)
    assert fixed_point_residual(m, s, config) <= 1e-6 / 10


# z* = 3.127 at N=51, outside the fixed bracket (-1, 2.5) of
# stationary_by_bisection; the direct root lies 0.0117 from z*, so the
# bracket around z* widens once
HIGH_Z_SET = RateModel(F=lin(1.527), K_B=mm(2.855, 1.672), K_P=mm(2.699, 0.79),
                       K_Q=sig(0.423, 2.85, 0.003), K_D=sig(1.579, 0.227, 0.617))


def test_cross_check_brackets_around_primary(monkeypatch):
    solved = []    # one nutrient profile per z at which v(1; z) is solved
    inner = stationary._steady_transport

    def recording(model, c, grid):
        solved.append(c.tobytes())
        return inner(model, c, grid)

    monkeypatch.setattr(stationary, "_steady_transport", recording)
    s = solve_stationary(HIGH_Z_SET, Grid(51), cross_check=True)
    assert s.method == "newton+direct"
    assert s.z > 2.5
    assert stationary.CHECK_HALF_WIDTH < abs(s.z_direct - s.z) < 0.02
    assert len(set(solved)) == len(solved)


def test_cross_check_bracket_widens_to_its_limit(monkeypatch):
    # v(1; z) > 0 everywhere: the half-width doubles up to its limit, then
    # BracketError names the last bracket
    monkeypatch.setattr(stationary, "_steady_transport",
                        lambda model, c, grid: (None, 1.0, 1))
    brackets = []
    inner = stationary.stationary_by_bisection

    def recording(model, grid, z_bracket):
        brackets.append(z_bracket)
        return inner(model, grid, z_bracket)

    monkeypatch.setattr(stationary, "stationary_by_bisection", recording)
    with pytest.raises(BracketError) as info:
        solve_stationary(default_model(), Grid(51), cross_check=True)
    widths = [(hi - lo) / 2 for lo, hi in brackets]
    assert widths == pytest.approx([0.01 * 2**k for k in range(8)])
    assert widths[-1] == pytest.approx(stationary.CHECK_MAX_HALF_WIDTH)
    lo, hi = brackets[-1]
    assert f"[{lo:g}, {hi:g}]" in str(info.value)


# Newton-Krylov stalled on this set at N=51 while the transport step had
# a limited (PCHIP) cubic
STALLING_SET = RateModel(
    F=Rate("michaelis", {"vmax": 1.1, "k": 1.59}),
    K_B=Rate("michaelis", {"vmax": 3.66, "k": 1.0}),
    K_P=Rate("linear", {"slope": 2.0}),
    K_Q=Rate("sigmoid", {"amp": 0.338, "steepness": 1.81, "center": 0.512}),
    K_D=Rate("sigmoid", {"amp": 0.803, "steepness": 2.26, "center": 0.321}))


def record_steps(monkeypatch, events):
    """Record the dt of each step of the solve, and "newton" and "done"
    around its Newton solve."""
    newton = stationary._newton

    def recording(*args):
        events.append("newton")
        out = newton(*args)
        events.append("done")
        return out

    def stepping(model, state, grid, config):
        events.append(config.dt)
        return step(model, state, grid, config)

    monkeypatch.setattr(stationary, "_newton", recording)
    monkeypatch.setattr(stationary, "step", stepping)


@pytest.mark.parametrize("m", SOLVABLE_SETS + [STALLING_SET, HIGH_Z_SET])
def test_stationary_certified_on_solvable_sets(monkeypatch, m):
    # the sweep above accepts a typed failure; these sets must certify, by
    # Newton alone: no relaxation step follows it
    assert check_assumptions(m).all_passed
    events = []
    record_steps(monkeypatch, events)
    s = solve_stationary(m, Grid(51), cross_check=False)
    assert fixed_point_residual(m, s, SolverConfig()) <= 1e-6 / 10
    assert events.count("newton") == 1
    assert events[-1] == "done"


def test_stationary_certified_after_newton_stall(monkeypatch):
    # Newton stopped before its first iteration stalls; the relaxation
    # resumes with the caller's dt and certifies
    monkeypatch.setattr(stationary, "NEWTON_MAXITER", 0)
    events = []
    record_steps(monkeypatch, events)
    m = default_model()
    s = solve_stationary(m, Grid(51), cross_check=False)
    assert fixed_point_residual(m, s, SolverConfig()) <= 1e-6 / 10
    # only the relaxation to RELAX_LEVEL takes the coarse pseudo-time step;
    # Newton and the resumed relaxation step with the caller's dt
    start, stall = events.index("newton"), events.index("done")
    assert set(events[:start]) == {stationary.RELAX_DT}
    assert events[start + 1:stall] == [SolverConfig().dt]
    assert len(events) > stall + 1
    assert set(events[stall + 1:]) == {SolverConfig().dt}


# set 14 of the 30-set sweep (ROADMAP), at its drawn values: at N=201
# Newton stalls (|F|_inf about 5e-6 against 1e-7) and the resumed
# relaxation certifies; at N=51, 101 and 151 Newton alone certifies it
SWEEP_SET_14 = RateModel(F=mm(2.6495653517067512, 1.8271718898477842),
                         K_B=lin(1.3439261698987865),
                         K_P=mm(1.5479670968831754, 0.9673492915925026),
                         K_Q=sig(1.2186487615422055, 0.3074867025321939,
                                 0.3398111548971746),
                         K_D=sig(0.05043231443508144, 2.0336429636063573,
                                 0.6080006650804403))


def test_stationary_certified_after_real_newton_stall(monkeypatch):
    assert check_assumptions(SWEEP_SET_14).all_passed
    events = []
    record_steps(monkeypatch, events)
    s = solve_stationary(SWEEP_SET_14, Grid(201), cross_check=False)
    assert fixed_point_residual(SWEEP_SET_14, s, SolverConfig()) <= 1e-6 / 10
    # Newton returns once, short of the certificate; relaxation follows
    assert events.count("newton") == 1
    stall = events.index("done")
    assert len(events) > stall + 1
    assert set(events[stall + 1:]) == {SolverConfig().dt}


@pytest.mark.parametrize("target, after, exc", [
    ("_newton", 0, np.linalg.LinAlgError("Singular matrix")),
    ("solve_nutrient", 100,
     ConvergenceError("nutrient stalled", residual=np.nan)),
])
def test_stationary_failure_is_typed(monkeypatch, target, after, exc):
    # a failure inside the solve surfaces as ConvergenceError carrying
    # the last finite |F|_inf, chained to its cause
    inner = getattr(stationary, target)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > after:
            raise exc
        return inner(*args, **kwargs)

    monkeypatch.setattr(stationary, target, failing)
    with pytest.raises(ConvergenceError) as info:
        solve_stationary(default_model(), Grid(51), cross_check=False)
    assert np.isfinite(info.value.residual)
    assert info.value.__cause__ is exc


def test_jacobian_columns_match_solo_steps():
    # each column stepped in a batch is, bit for bit, the difference
    # quotient of a solo step
    m, grid = default_model(), Grid(51)
    F = stationary.StepMap(m, grid, SolverConfig())
    c = solve_nutrient(m, 1.5, grid).c
    x = np.concatenate(([1.5], equilibrium_fraction(m, c)))
    f, _ = F(x, c)
    jac = stationary._jacobian(F, x, f, c)
    h = (x + np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))) - x
    assert x.size > stationary.JACOBIAN_ROWS
    for j in range(x.size):
        moved = x.copy()
        moved[j] += h[j]
        f_j, _ = F(moved, c)
        assert np.array_equal(jac[:, j], (f_j - f) / h[j])


def test_import_leaves_out_cross_check_scipy():
    # only the cross-check needs scipy's integrate, interpolate and
    # optimize; the package and the primary solve load none of them
    code = ("import sys, spheroid\n"
            "spheroid.solve_stationary(spheroid.default_model(), "
            "spheroid.Grid(21), cross_check=False)\n"
            "print([m for m in ('scipy.optimize', 'scipy.integrate', "
            "'scipy.interpolate') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(spheroid.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def runaway_step(model, state, grid, config):
    # a step whose log-radius runs away by 20 per call
    new = step(model, state, grid, config)
    new.z = new.z + 20.0
    return new


def runaway_solve(a, b):
    # a Newton step that sends z to about 1000
    dx = np.zeros_like(b)
    dx[0] = 1e3
    return dx


@pytest.mark.parametrize("where", ["relaxation", "newton_trial"])
def test_runaway_z_is_typed_without_warnings(monkeypatch, where):
    # a z whose e^{2z} would overflow ends in a ConvergenceError naming
    # it, and numpy warns of nothing on the way
    if where == "relaxation":
        monkeypatch.setattr(stationary, "step", runaway_step)
    else:
        monkeypatch.setattr(stationary.np.linalg, "solve", runaway_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"z=\S+: the log-radius "
                                                   r"ran away"):
            solve_stationary(default_model(), Grid(51), cross_check=False)
