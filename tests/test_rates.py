import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheroid import (DomainError, Rate, RateModel, UnknownRateError,
                      check_assumptions, default_model, equilibrium_fraction,
                      f_reaction, g_source)
from spheroid.rates import MARGIN, check_domain, f_reaction_partials

from conftest import all_zero_model, make_model, zero_rate


def test_linear_vanishes_at_zero():
    m = make_model(F=Rate("linear", {"slope": 1.0}))
    assert m.F(0.0) == (0.0, 1.0)
    assert m.F.value(0.0) == 0.0


def test_linear_slope_at_one():
    lam = 2.75
    m = make_model(F=Rate("linear", {"slope": lam}))
    val, der = m.F(1.0)
    assert m.F.value(1.0) == val
    assert val == pytest.approx(lam, abs=1e-15)
    assert der == pytest.approx(lam, abs=1e-15)


def test_default_kq_matches_direct_scalar_evaluation():
    # independent scalar calculator via math: amp*(1-tanh(s*(c-c0)))/2
    m = default_model()
    prm = m.K_Q.params
    c = 0.5
    expected = prm["amp"] * (1.0 - math.tanh(prm["steepness"] * (c - prm["center"]))) / 2.0
    expected_der = -prm["amp"] * prm["steepness"] / 2.0 \
        / math.cosh(prm["steepness"] * (c - prm["center"])) ** 2
    val, der = m.K_Q(c)
    assert m.K_Q.value(c) == val
    assert val == pytest.approx(expected, rel=1e-14)
    assert der == pytest.approx(expected_der, rel=1e-14)


def test_eval_vectorized_matches_scalar():
    m = default_model()
    c = np.linspace(0.0, 1.0, 7)
    vals, ders = m.K_D(c)
    assert np.array_equal(m.K_D.value(c), vals)
    for i, ci in enumerate(c):
        v, d = m.K_D(float(ci))
        assert vals[i] == v and ders[i] == d
        assert m.K_D.value(float(ci)) == v


def test_unknown_family_and_params():
    with pytest.raises(UnknownRateError):
        Rate("spline", {})
    with pytest.raises(ValueError):
        Rate("linear", {"slope": 1.0, "curvature": 2.0})
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="parameters must be finite"):
            Rate("constant", {"value": value})


def test_domain_error_far_outside():
    with pytest.raises(DomainError, match=r"^rate F: c=1\.51 outside"):
        check_domain(1.0 + MARGIN + 0.01, "rate F")
    with pytest.raises(DomainError):
        check_domain(np.array([0.5, -MARGIN - 0.01]), "rate F")
    # inside the documented margin is fine
    assert check_domain(1.0 + MARGIN / 2, "rate F") == 1.0 + MARGIN / 2


def test_f_zero_for_all_zero_rates():
    m = all_zero_model()
    for c in (0.0, 0.3, 1.0):
        for p in (0.0, 0.5, 1.0):
            assert f_reaction(m, c, p) == 0.0
            assert g_source(m, c, p) == 0.0


def test_f_at_p0_and_p1_identities():
    m = default_model()
    c = np.linspace(0.0, 1.0, 11)
    kp = m.K_P(c)[0]
    kq = m.K_Q(c)[0]
    assert np.allclose(f_reaction(m, c, np.zeros_like(c)), kp, atol=1e-15)
    assert np.allclose(f_reaction(m, c, np.ones_like(c)), -kq, atol=1e-15)
    # sign structure that traps p in [0, 1]
    assert np.all(kp >= 0) and np.all(-kq <= 0)


def test_g_root_and_p1():
    m = default_model()
    c = 0.62
    kb = m.K_B(np.array(c))[0]
    kd = m.K_D(np.array(c))[0]
    km = kb + kd
    assert g_source(m, c, float(kd / km)) == pytest.approx(0.0, abs=1e-15)
    assert g_source(m, c, 1.0) == pytest.approx(float(kb), abs=1e-15)


def test_g_default_direct_evaluation():
    # independent scalar calculation of g(0.5, 0.8) for the default model
    m = default_model()
    kb = 0.7 * 0.5
    kd = 1.2 * (1.0 - math.tanh(1.0 * (0.5 - 0.55))) / 2.0
    expected = (kb + kd) * 0.8 - kd
    assert g_source(m, 0.5, 0.8) == pytest.approx(expected, rel=1e-14)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
def test_g_affine_in_p(c, p1, p2, alpha):
    m = default_model()
    mix = alpha * p1 + (1 - alpha) * p2
    lhs = g_source(m, c, mix)
    rhs = alpha * g_source(m, c, p1) + (1 - alpha) * g_source(m, c, p2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=40)
@given(st.floats(0.05, 0.95), st.sampled_from(["F", "K_B", "K_P", "K_Q", "K_D"]))
def test_derivative_matches_central_difference(c, name):
    m = make_model(F=Rate("michaelis", {"vmax": 2.0, "k": 0.5}))
    h1, h2 = 1e-4, 5e-5
    rate = getattr(m, name)
    _, der = rate(c)

    def fd(h):
        return (rate.value(c + h) - rate.value(c - h)) / (2 * h)

    e1, e2 = abs(fd(h1) - der), abs(fd(h2) - der)
    assert e1 < 1e-6
    # second-order refinement (skip when already at rounding level)
    if e1 > 1e-9:
        assert e2 < 0.35 * e1


# a set of the stationary sweep's strategy, with michaelis K_B and K_P and
# sigmoid K_Q and K_D
SWEEP_MODEL = RateModel(
    F=Rate("linear", {"slope": 1.527}),
    K_B=Rate("michaelis", {"vmax": 2.855, "k": 1.672}),
    K_P=Rate("michaelis", {"vmax": 2.699, "k": 0.79}),
    K_Q=Rate("sigmoid", {"amp": 0.423, "steepness": 2.85, "center": 0.003}),
    K_D=Rate("sigmoid", {"amp": 1.579, "steepness": 0.227, "center": 0.617}))


def test_partials_match_finite_differences():
    h = 1e-6
    points = ((0.4, 0.7),
              (np.linspace(0.05, 0.95, 7), np.linspace(0.9, 0.1, 7)))
    for m in (default_model(), SWEEP_MODEL):
        for c, p in points:
            f_c, f_p = f_reaction_partials(m, c, p)
            assert np.shape(f_c) == np.shape(f_p) == np.shape(c)
            assert np.allclose(f_c, (f_reaction(m, c + h, p)
                                     - f_reaction(m, c - h, p)) / (2 * h),
                               rtol=0.0, atol=1e-7)
            assert np.allclose(f_p, (f_reaction(m, c, p + h)
                                     - f_reaction(m, c, p - h)) / (2 * h),
                               rtol=0.0, atol=1e-7)


def test_scalar_inputs_give_floats():
    # numpy.float64, a float subclass, also through the constant family
    for m in (default_model(), SWEEP_MODEL, all_zero_model()):
        values = (f_reaction(m, 0.4, 0.7), g_source(m, 0.4, 0.7),
                  *f_reaction_partials(m, 0.4, 0.7),
                  equilibrium_fraction(m, 0.4))
        assert all(isinstance(v, float) for v in values), values


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


def test_default_model_passes_assumptions():
    report = check_assumptions(default_model())
    assert report.all_passed
    assert all(ch.margin > 0 for ch in report.checks)
    # reaction at the boundary rest point p=1 is -K_Q(1) < 0 here
    assert report.f_at_full_boundary < 0


def test_flat_birth_rate_fails_a2():
    report = check_assumptions(make_model(K_B=Rate("constant", {"value": 0.2})))
    a2 = next(ch for ch in report.checks if ch.name == "A2")
    assert not a2.passed
    assert not report.all_passed


def test_steep_death_rate_fails_a4():
    # |K_D'| up to amp*steepness/2 = 2.0 exceeds K_B' = 0.7
    report = check_assumptions(make_model(
        K_D=Rate("sigmoid", {"amp": 2.0, "steepness": 2.0, "center": 0.5})))
    a4 = next(ch for ch in report.checks if ch.name == "A4")
    assert not a4.passed
    assert a4.margin < 0
