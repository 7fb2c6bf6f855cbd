"""Rate functions of the two-species spheroid model.

Five rates drive the dynamics: nutrient consumption ``F``, cell birth
``K_B``, quiescent-to-proliferating transfer ``K_P``, proliferating-to-
quiescent transfer ``K_Q``, and death of quiescent cells ``K_D``.  Each is
a smooth scalar function of the nutrient concentration ``c``, picked from a
small set of parametric families.  The model is well posed when the rates
satisfy the monotonicity/sign conditions checked by
:func:`check_assumptions`:

* (A1) ``F' > 0`` and ``F(0) = 0``
* (A2) ``K_B' > 0``, ``K_P' >= 0``, ``K_B(0) = K_P(0) = 0``
* (A3) ``K_D >= 0``, ``K_Q >= 0``, ``K_D' <= 0``, ``K_Q' <= 0``
* (A4) ``K_B' + K_D' > 0``
* (A5) ``K_P' + K_Q' > 0``

Derivatives are analytic per family so that implicit solvers get exact
Jacobians.  All evaluations are vectorized over ``c``.  The composites,
built from K_M = K_B + K_D and K_N = K_P + K_Q, are the reaction
:func:`f_reaction` with :func:`reaction_coefficients`,
:func:`f_reaction_partials` and its root :func:`equilibrium_fraction`,
and the volume source :func:`g_source`; only the helper ``_combine``
forms K_M, K_N and f's coefficients.  At a scalar (c, p) the composites
return a ``numpy.float64``, a ``float`` subclass.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnknownRateError

RATE_NAMES = ("F", "K_B", "K_P", "K_Q", "K_D")

# the validity interval [C_LO, C_HI] of the rates in c, and DOMAIN, where c
# is accepted: that interval extended by MARGIN on each side
C_LO, C_HI, MARGIN = 0.0, 1.0, 0.5
DOMAIN = (C_LO - MARGIN, C_HI + MARGIN)


# A family maps (c, params) to the value and, with ``der``, the pair
# (value, derivative).


def _linear(c, prm, der):
    slope = prm["slope"]
    val = slope * c
    return (val, np.full_like(c, slope)) if der else val


def _sigmoid(c, prm, der):
    # amp * (1 - tanh(steepness*(c-center))) / 2: positive, decreasing.
    amp, s, c0 = prm["amp"], prm["steepness"], prm["center"]
    th = np.tanh(s * (c - c0))
    val = amp * (1.0 - th) / 2.0
    return (val, -amp * s / 2.0 * (1.0 - th * th)) if der else val


def _constant(c, prm, der):
    val = np.full_like(c, prm["value"])
    return (val, np.zeros_like(c)) if der else val


def _michaelis(c, prm, der):
    # saturating uptake vmax * c / (k + c); increasing with value 0 at 0
    vmax, k = prm["vmax"], prm["k"]
    den = k + c
    val = vmax * c / den
    return (val, vmax * k / (den * den)) if der else val


# family -> (callable, default parameters)
FAMILIES = {
    "linear": (_linear, {"slope": 1.0}),
    "sigmoid": (_sigmoid, {"amp": 0.5, "steepness": 1.0, "center": 0.5}),
    "constant": (_constant, {"value": 0.0}),
    "michaelis": (_michaelis, {"vmax": 2.0, "k": 0.5}),
}


@dataclass(frozen=True)
class Rate:
    """One rate function: a family name plus its numeric parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownRateError(f"unknown rate family {self.family!r}")
        _, defaults = FAMILIES[self.family]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(
                f"family {self.family!r} does not take parameters {sorted(unknown)}")
        full = dict(defaults)
        full.update({k: float(v) for k, v in self.params.items()})
        bad = {k: v for k, v in full.items() if not np.isfinite(v)}
        if bad:
            raise ValueError(f"family {self.family!r}: parameters must be "
                             f"finite, got {bad}")
        object.__setattr__(self, "params", full)
        object.__setattr__(self, "_fn", FAMILIES[self.family][0])

    def __call__(self, c):
        """(value, derivative) at ``c``."""
        return self._fn(np.asarray(c, dtype=float), self.params, True)

    def value(self, c):
        """The value at ``c`` alone, for callers that need no derivative."""
        return self._fn(np.asarray(c, dtype=float), self.params, False)


@dataclass(frozen=True)
class RateModel:
    """The five rates.

    Concentrations are accepted on DOMAIN.  Beyond it :func:`check_domain`
    raises :class:`DomainError` where ``c`` enters: on the initial data of
    ``evolution.simulate``, on the input of ``evolution.step`` and on each
    new profile of ``solve_nutrient`` and ``nutrient_step``.  The rates
    themselves and the composites (see the module docstring) are plain
    formulas that check nothing.  Instances are immutable and safe to
    share between concurrent runs.
    """

    F: Rate
    K_B: Rate
    K_P: Rate
    K_Q: Rate
    K_D: Rate


def default_model():
    """Default parameter set; passes all of (A1)-(A5) on [0, 1].

    Tuned so the stationary tumor sits at a moderate log-radius
    (z* ~ 1.6) with an exponential return rate near 0.12 per unit time.
    """
    return RateModel(
        F=Rate("linear", {"slope": 1.5}),
        K_B=Rate("linear", {"slope": 0.7}),
        K_P=Rate("linear", {"slope": 0.6}),
        K_Q=Rate("sigmoid", {"amp": 0.8, "steepness": 1.0, "center": 0.5}),
        K_D=Rate("sigmoid", {"amp": 1.2, "steepness": 1.0, "center": 0.55}),
    )


def outside_domain(c):
    """Mask of the concentrations beyond DOMAIN."""
    return (c < DOMAIN[0]) | (c > DOMAIN[1])


def check_domain(c, context):
    """Validate concentrations against DOMAIN."""
    arr = np.asarray(c, dtype=float)
    # every value inside; NaN and an empty array take the mask's path
    if arr.size and DOMAIN[0] <= arr.min() and arr.max() <= DOMAIN[1]:
        return arr
    bad = outside_domain(arr)
    if bad.any():
        raise DomainError(f"{context}: c={arr[bad][0]:.6g} outside "
                          f"[{DOMAIN[0]:g}, {DOMAIN[1]:g}]")
    return arr


def _combine(kb, kp, kq, kd):
    """f's coefficients (a, b, d) = (K_P, K_M - K_N, K_M), then K_N, with
    K_M = K_B + K_D, K_N = K_P + K_Q; f_c's and K_N' from derivatives."""
    km, kn = kb + kd, kp + kq
    return kp, km - kn, km, kn


def reaction_coefficients(model, c):
    """(a, b, d, K_N) at unchecked ``c``: f(c, p) = a + b p - d p^2."""
    return _combine(model.K_B.value(c), model.K_P.value(c),
                    model.K_Q.value(c), model.K_D.value(c))


def f_reaction(model, c, p):
    """Reaction term of the proliferating fraction.

    f(c, p) = K_P(c) + [K_M(c) - K_N(c)] p - K_M(c) p^2 with
    K_M = K_B + K_D and K_N = K_P + K_Q.  Quadratic and concave in p,
    with f(c, 0) = K_P(c) >= 0 and f(c, 1) = -K_Q(c) <= 0, so [0, 1] is
    forward-invariant along characteristics.  Unchecked: ``c`` is
    checked where it enters, by ``evolution.step`` and the nutrient solves
    (see :class:`RateModel`).
    """
    a, b, d, _ = reaction_coefficients(model, c)
    return a + b * p - d * p * p


def g_source(model, c, p):
    """Volume source g(c, p) = K_M(c) p - K_D(c); affine in p.  Unchecked,
    as :func:`f_reaction`.  It reads K_B and K_D alone, not all four rates:
    the velocity quadrature calls it ~6,500 times in a 3000-step run."""
    kb = model.K_B.value(c)
    kd = model.K_D.value(c)
    return (kb + kd) * p - kd


def f_reaction_partials(model, c, p):
    """(df/dc, df/dp) at (c, p); unchecked, as :func:`f_reaction`."""
    values, slopes = zip(model.K_B(c), model.K_P(c), model.K_Q(c),
                         model.K_D(c))
    _, b, d, _ = _combine(*values)
    a_c, b_c, d_c, _ = _combine(*slopes)
    return a_c + b_c * p - d_c * p * p, b - 2.0 * d * p


def equilibrium_fraction(model, c):
    """Root in [0, 1] of f(c, .), unchecked: [b + sqrt(b^2 + 4 d a)] / (2 d)
    with (a, b, d) of :func:`reaction_coefficients`, in [0, 1] as
    f(c, 0) >= 0 >= f(c, 1); K_P / K_N (0 if K_N = 0) at K_M = d = 0."""
    a, b, d, kn = reaction_coefficients(model, c)
    disc = b ** 2 + 4.0 * d * a
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = (b + np.sqrt(disc)) / (2.0 * d)
        lin = np.where(kn > 0.0, a / np.where(kn > 0.0, kn, 1.0), 0.0)
    return np.clip(np.where(d > 1e-12, quad, lin), 0.0, 1.0)


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass
class AssumptionReport:
    checks: list
    f_at_full_boundary: float  # f(1, 1) = -K_Q(1); zero only if K_Q(1) = 0

    @property
    def all_passed(self):
        return all(ch.passed for ch in self.checks)

    def lines(self):
        out = []
        for ch in self.checks:
            status = "pass" if ch.passed else "FAIL"
            out.append(f"{ch.name}: {status}  worst margin {ch.margin:+.3e}  ({ch.detail})")
        out.append(f"f(1,1) = -K_Q(1) = {self.f_at_full_boundary:+.6e}")
        return out


# rounding allowance for the non-strict inequalities
_EPS = 1e-12
# evenly spaced points of [C_LO, C_HI] at which check_assumptions samples
SAMPLES = 201


def check_assumptions(model):
    """Numerically verify (A1)-(A5) on the validity interval.

    Each inequality is sampled at :data:`SAMPLES` evenly spaced points of
    [C_LO, C_HI].  Failures are reported, never raised.  Margins are
    signed: positive means the inequality holds with that much room.
    Also reports f(1, 1) = -K_Q(1), the reaction value at the boundary
    rest point when the proliferating fraction is 1 there.
    """
    c = np.linspace(C_LO, C_HI, SAMPLES)
    (fv, df), (kb, dkb), (kp, dkp), (kq, dkq), (kd, dkd) = (
        getattr(model, name)(c) for name in RATE_NAMES)
    # c[0] = C_LO = 0, where (A1) and (A2) pin F, K_B and K_P
    f0, kb0, kp0 = float(fv[0]), float(kb[0]), float(kp[0])
    _, _, dkm, dkn = _combine(dkb, dkp, dkq, dkd)

    checks = []

    # margin is the slack in the sampled inequalities; the value-at-zero
    # equalities only cap it when violated
    m = df.min() if abs(f0) <= _EPS else min(df.min(), -abs(f0))
    checks.append(AssumptionCheck(
        "A1", df.min() > 0 and abs(f0) <= _EPS, m,
        f"min F'={df.min():.3e}, F(0)={f0:.1e}"))

    zeros_ok = abs(kb0) <= _EPS and abs(kp0) <= _EPS
    m = min(dkb.min(), dkp.min())
    if not zeros_ok:
        m = min(m, -abs(kb0), -abs(kp0))
    checks.append(AssumptionCheck(
        "A2", dkb.min() > 0 and dkp.min() >= -_EPS and zeros_ok, m,
        f"min K_B'={dkb.min():.3e}, min K_P'={dkp.min():.3e}"))

    m = min(kd.min(), kq.min(), -dkd.max(), -dkq.max())
    checks.append(AssumptionCheck(
        "A3", kd.min() >= -_EPS and kq.min() >= -_EPS
        and dkd.max() <= _EPS and dkq.max() <= _EPS, m,
        f"min K_D={kd.min():.3e}, min K_Q={kq.min():.3e}, "
        f"max K_D'={dkd.max():.3e}, max K_Q'={dkq.max():.3e}"))

    a4, a5 = dkm.min(), dkn.min()
    checks.append(AssumptionCheck("A4", a4 > 0, a4, f"min K_B'+K_D'={a4:.3e}"))
    checks.append(AssumptionCheck("A5", a5 > 0, a5, f"min K_P'+K_Q'={a5:.3e}"))
    return AssumptionReport(checks, float(f_reaction(model, 1.0, 1.0)))
