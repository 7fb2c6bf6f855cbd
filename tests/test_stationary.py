import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spheroid
from spheroid import (ConvergenceError, Grid, Rate, RateModel, SolverConfig,
                      check_assumptions, default_model, equilibrium_fraction,
                      evolution, f_reaction, solve_nutrient, solve_stationary,
                      stationary, step, velocity_from_state)
from spheroid.evolution import State


def test_stationary_residuals(stationary201):
    s = stationary201
    assert s.v1_residual <= 1e-6
    assert s.transport_residual <= 1e-4
    assert s.z_direct is not None


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
    vel = velocity_from_state(model, new.c, new.p, grid201)
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


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.builds(RateModel, F=increasing_rate(), K_B=increasing_rate(),
                 K_P=increasing_rate(), K_Q=decreasing_rate(),
                 K_D=decreasing_rate()))
def test_stationary_certified_or_typed_failure(m):
    # across rate sets that satisfy (A1)-(A5), the solve either returns a
    # state an independent step certifies, or raises ConvergenceError
    assume(check_assumptions(m).all_passed)
    try:
        s = solve_stationary(m, Grid(51), cross_check=False)
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


def sweep_sets(count=30):
    """The first ``count`` rate sets that pass check_assumptions, drawn from
    numpy.random.default_rng(0) in the order F, K_B, K_P, K_Q, K_D over the
    ranges of the strategies above (the 30-set sweep of ROADMAP)."""
    rng = np.random.default_rng(0)

    def increasing():
        if rng.random() < 0.5:
            return lin(rng.uniform(0.1, 3.0))
        return mm(rng.uniform(0.2, 4.0), rng.uniform(0.1, 2.0))

    def decreasing():
        return sig(rng.uniform(0.05, 2.0), rng.uniform(0.2, 4.0),
                   rng.uniform(0.0, 1.0))

    sets = []
    while len(sets) < count:
        m = RateModel(F=increasing(), K_B=increasing(), K_P=increasing(),
                      K_Q=decreasing(), K_D=decreasing())
        if check_assumptions(m).all_passed:
            sets.append(m)
    return sets


# sets 11 and 25 of the sweep fail at N=51 for lack of resolution: the
# nutrient boundary layer, of width ~e^{-z}, leaves v(1; z) > 0 up to z=8;
# at N=101 they certify
UNRESOLVED_AT_51 = (11, 25)


def test_sweep_sets_certify_within_step_budget():
    # the other 28 sets certify at N=51, in 4484 step calls in all; a
    # relaxation in steps of 0.1 and a Jacobian rebuilt at every Newton
    # iteration took 10513.  Each also cross-checks, within the
    # boundary-layer scale (h e^{z*})^2 (at most 4.8e-3 of it, on set 7)
    calls, grid = 0, Grid(51)
    for number, m in enumerate(sweep_sets(), 1):
        if number in UNRESOLVED_AT_51:
            continue
        s = solve_stationary(m, grid, cross_check=True)
        assert fixed_point_residual(m, s, SolverConfig()) <= 1e-6 / 10, number
        assert abs(s.z_direct - s.z) <= (grid.h * np.exp(s.z))**2, number
        calls += s.step_calls
    assert calls <= 6000


def test_solve_stationary_rejects_bad_tol():
    # checked before any work: tol = 0 or < 0 relaxed for tens of seconds
    # before a ConvergenceError, and nan skipped the certificate's test
    for tol in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solve_stationary(default_model(), Grid(21), tol=tol,
                             cross_check=False)


def test_stationary_step_count():
    # the relaxation to RELAX_LEVEL takes coarse pseudo-time steps and
    # Newton steps its Jacobian columns in batches: the default-model N=51
    # solve makes 93 step calls (1182 with a fine-step relaxation)
    s = solve_stationary(default_model(), Grid(51), cross_check=False)
    assert s.step_calls <= 150
    # 2 of the calls step the 52 Jacobian columns, the rest one state each
    assert s.states_stepped == s.step_calls - 2 + 52


def test_stationary_builds_one_jacobian():
    # Newton keeps its first Jacobian while each full step halves |F|_2
    s = solve_stationary(default_model(), Grid(51), cross_check=False)
    assert s.jacobians == 1


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.2])
def test_stationary_certified_for_callers_dt(dt):
    # the certificate holds for the caller's dt, also above RELAX_DT, and
    # an output interval below RELAX_DT does not hinder the coarse steps
    m = default_model()
    config = SolverConfig(dt=dt, output_interval=dt)
    s = solve_stationary(m, Grid(51), config=config, cross_check=False)
    assert fixed_point_residual(m, s, config) <= 1e-6 / 10


# z* = 3.129 at N=51, twice the default model's, where Newton alone
# certifies the stationary state
HIGH_Z_SET = RateModel(F=lin(1.527), K_B=mm(2.855, 1.672), K_P=mm(2.699, 0.79),
                       K_Q=sig(0.423, 2.85, 0.003), K_D=sig(1.579, 0.227, 0.617))

# set 23 of the 30-set sweep, at its drawn values: z* = 4.138 at N=51, and
# the steady equations' root lies 6.8e-5 from z*, within the threshold
# (h e^{z*})^2 = 1.6
SWEEP_SET_23 = RateModel(F=lin(0.5013462182608185),
                         K_B=mm(1.4621521082311109, 1.1623962370291456),
                         K_P=lin(1.697243179097204),
                         K_Q=sig(0.1040892820497974, 0.9875820576034422,
                                 0.44789679853894804),
                         K_D=sig(1.0714339879298673, 0.6761718800862724,
                                 0.45903669789284485))


def test_cross_check_warns_beyond_boundary_layer_scale(monkeypatch,
                                                      caplog):
    # the nutrient boundary layer has width ~e^{-z}, so the two
    # discretizations may differ by (h e^{z*})^2: the healthy solves log
    # nothing, while a transport step whose reaction is scaled by 0.99
    # leaves the default model's z* at N=201 8.7e-4 from the steady
    # equations' root, beyond its threshold 5.9e-4
    with caplog.at_level(logging.WARNING, logger="spheroid"):
        solve_stationary(SWEEP_SET_23, Grid(51), cross_check=True)
        solve_stationary(default_model(), Grid(201), cross_check=True)
    assert caplog.records == []

    def scaled(model, c, p):
        return 0.99 * f_reaction(model, c, p)

    monkeypatch.setattr(evolution, "f_reaction", scaled)
    with caplog.at_level(logging.WARNING, logger="spheroid"):
        solve_stationary(default_model(), Grid(201), cross_check=True)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "stationary methods disagree"]


def test_cross_check_stall_is_typed(monkeypatch):
    # a steady residual that is NaN everywhere but at the certified state
    # leaves Newton no step to accept: the cross-check stalls there and
    # says so, carrying |G|_inf at that state
    inner = stationary._steady_residual
    calls = []

    def failing(step_map, x, guess):
        calls.append(1)
        if len(calls) == 1:
            return inner(step_map, x, guess)
        return np.full(np.shape(x), np.nan), guess

    monkeypatch.setattr(stationary, "_steady_residual", failing)
    with pytest.raises(ConvergenceError,
                       match="^stationary cross-check stalled") as info:
        solve_stationary(default_model(), Grid(51), cross_check=True)
    assert 1e-6 < info.value.residual < np.inf


def test_cross_check_failure_is_typed(monkeypatch):
    # an error inside the cross-check's Newton surfaces as a
    # ConvergenceError that names the cross-check, chained to its cause
    exc = np.linalg.LinAlgError("Singular matrix")

    def failing(step_map, x, guess):
        raise exc

    monkeypatch.setattr(stationary, "_steady_residual", failing)
    with pytest.raises(ConvergenceError, match="^stationary cross-check "
                                               "failed: Singular matrix$"
                       ) as info:
        solve_stationary(default_model(), Grid(51), cross_check=True)
    assert info.value.__cause__ is exc


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
    monkeypatch.setattr(evolution, "step", stepping)


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
    # the solution's counter sees every step call
    assert s.step_calls == sum(isinstance(e, float) for e in events)


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
    ("solve_nutrient", 50,
     ConvergenceError("nutrient stalled", residual=np.nan)),
])
def test_stationary_failure_is_typed(monkeypatch, target, after, exc):
    # a failure inside the solve surfaces as ConvergenceError carrying
    # the last finite |F|_inf, chained to its cause; the step map's
    # nutrient solves run in evolution, 280 of them, 255 before Newton, so
    # the 51st fails inside the relaxation
    module = stationary if target == "_newton" else evolution
    inner = getattr(module, target)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > after:
            raise exc
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, target, failing)
    with pytest.raises(ConvergenceError) as info:
        solve_stationary(default_model(), Grid(51), cross_check=False)
    assert np.isfinite(info.value.residual)
    assert info.value.__cause__ is exc


def test_relaxation_out_of_pseudo_time_is_typed(monkeypatch):
    # one unit of pseudo-time does not bring |F| down to RELAX_LEVEL
    monkeypatch.setattr(stationary, "T_RELAX", 1.0)
    with pytest.raises(ConvergenceError) as info:
        solve_stationary(default_model(), Grid(51), cross_check=False)
    residual = info.value.residual
    assert residual == pytest.approx(0.1193543, rel=1e-4)
    assert str(info.value) == (
        f"stationary solve failed at |F|_inf = {residual:.3e}: relaxation "
        "not at |F| <= 0.01 by t=1")
    assert isinstance(info.value.__cause__, ConvergenceError)
    assert info.value.__cause__.residual == info.value.residual


def test_step_map_round_trips_the_stationary_state(model, grid201,
                                                   stationary201):
    # pack and unpack alone lay out x = (z, p): the stationary fields come
    # back bit for bit, c as the loop's eps = 0 projection, and F there
    # meets the solve's certificate |F|_inf <= tol/10 (tol = 1e-6)
    s = stationary201
    F = evolution.StepMap(model, grid201, SolverConfig())
    x = F.pack(s.z, s.p)
    state = F.unpack(x, s.c)
    assert state.z == s.z and np.array_equal(state.p, s.p)
    assert np.array_equal(state.c,
                          solve_nutrient(model, s.z, grid201, guess=s.c).c)
    f, _ = F(x, s.c)
    assert np.max(np.abs(f)) <= 1e-6 / 10
    # a batch's rows are laid out as the lone state is
    rows = F.pack(np.array([0.5, s.z]), np.stack([np.zeros_like(s.p), s.p]))
    assert np.array_equal(rows[1], x) and rows[0, 0] == 0.5


def test_step_map_is_smooth_at_the_fixed_point(model):
    # the central-difference derivative of the eps = 0 step map at x* along
    # one direction does not depend on the difference step: no Newton
    # solve's stopping point enters the step's predictor
    grid = Grid(51)
    s = solve_stationary(model, grid, tol=1e-10, cross_check=False)
    F = evolution.StepMap(model, grid, SolverConfig())
    x = F.pack(s.z, s.p)
    d = np.random.default_rng(0).standard_normal(x.shape)
    d /= np.linalg.norm(d)
    slopes = []
    for h in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        (up, _), (down, _) = F(x + h * d, s.c), F(x - h * d, s.c)
        slopes.append((up - down) / (2.0 * h))
    scale = np.max(np.abs(slopes[0]))
    for slope in slopes[1:]:
        assert np.max(np.abs(slope - slopes[0])) <= 1e-6 * scale


def test_jacobian_columns_match_solo_steps():
    # each column stepped in a batch is, bit for bit, the difference
    # quotient of a solo step
    m, grid = default_model(), Grid(51)
    F = evolution.StepMap(m, grid, SolverConfig())
    c = solve_nutrient(m, 1.5, grid).c
    x = F.pack(1.5, equilibrium_fraction(m, c))
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
    # the package loads none of scipy's optimize, integrate and
    # interpolate, with the cross-check or without it
    code = ("import sys, spheroid\n"
            "for check in (False, True):\n"
            "    spheroid.solve_stationary(spheroid.default_model(), "
            "spheroid.Grid(21), cross_check=check)\n"
            "    print([m for m in ('scipy.optimize', 'scipy.integrate', "
            "'scipy.interpolate') if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(spheroid.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines() == ["[]", "[]"]


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
        monkeypatch.setattr(evolution, "step", runaway_step)
    else:
        monkeypatch.setattr(stationary.np.linalg, "solve", runaway_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"z=\S+: the log-radius "
                                                   r"ran away"):
            solve_stationary(default_model(), Grid(51), cross_check=False)


def test_newton_stall_returns_last_accepted_iterate():
    # |F| = x^2 + 1 has its minimum 1 at x = 0, where the forward-difference
    # Jacobian is ~1.5e-8: its step leaves no Armijo decrease down to
    # MIN_DAMPING, so Newton returns x = 0, reached by its first step, with
    # |F|_inf = 1 above the tolerance and the two Jacobians it built
    def F(x, c):
        return x**2 + 1.0, c

    x, c, norm, built = stationary._newton(F, np.array([1.0]), "c", 1e-6)
    assert x.tolist() == [0.0] and c == "c"
    assert norm == 1.0 and built == 2
