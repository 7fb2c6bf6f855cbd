"""Deviation-from-stationary diagnostics recorded along trajectories.

The record mirrors the quantities controlled by the exponential-return
estimates: sup norms of the nutrient and proliferating-fraction deviations
and their spatial derivatives (the p-derivative weighted by r(1-r), which
is the natural weight at the characteristic rest points r=0, 1), the
log-radius offset, time-derivative surrogates from output-to-output finite
differences, and the off-manifold nutrient norm ||c - m(.; z)||.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class DeviationRecord:
    t: float
    c_dev: float            # sup |c - c*|
    c_r_dev: float          # sup |c_r - c*'|
    c_t_dev: float          # sup |c_t| (finite difference vs previous output)
    p_dev: float            # sup |p - p*|
    p_r_weighted_dev: float  # sup r(1-r) |p_r - p*'|
    z_dev: float            # |z - z*|
    z_dot_dev: float        # |z_dot| (finite difference vs previous output)
    eta_dev: float          # sup |c - m(.; z)|

    NORM_FIELDS = ("c_dev", "c_r_dev", "c_t_dev", "p_dev",
                   "p_r_weighted_dev", "z_dev", "z_dot_dev", "eta_dev")

    def norms(self):
        return {name: getattr(self, name) for name in self.NORM_FIELDS}

    def max_norm(self):
        return max(self.norms().values())


def deviation_norms(state, prev, stationary, profile):
    """Build a :class:`DeviationRecord` for ``state``, or a list of them, one
    per row, for a batched ``state`` (see ``evolution.State``).

    Parameters
    ----------
    state : State
    prev : State or None
        Previous output state (the same rows); time derivatives are
        backward differences against it and zero when absent.
    stationary : StationarySolution
        Reference fields on the same grid.
    profile : NutrientProfile or State
        Its ``c`` is the quasi-static nutrient profile m(.; z) at the
        state's own z (the same rows), for the off-manifold norm.
    """
    if state.c.shape[-1] != stationary.c.shape[-1]:
        raise ValueError(
            f"grid mismatch: state has {state.c.shape[-1]} nodes, "
            f"stationary has {stationary.c.size}")
    grid = stationary.grid
    weight = grid.r * (1.0 - grid.r)

    c_r = grid.derivative(state.c)
    p_r = grid.derivative(state.p)
    cstar_r = grid.derivative(stationary.c)
    pstar_r = grid.derivative(stationary.p)

    if prev is not None and prev.t != state.t:
        dt_out = state.t - prev.t
        c_t = np.max(np.abs(state.c - prev.c), axis=-1) / abs(dt_out)
        z_dot = np.abs(state.z - prev.z) / abs(dt_out)
    else:
        c_t = z_dot = np.zeros(np.shape(state.z))

    norms = dict(
        c_dev=np.max(np.abs(state.c - stationary.c), axis=-1),
        c_r_dev=np.max(np.abs(c_r - cstar_r), axis=-1),
        c_t_dev=c_t,
        p_dev=np.max(np.abs(state.p - stationary.p), axis=-1),
        p_r_weighted_dev=np.max(weight * np.abs(p_r - pstar_r), axis=-1),
        z_dev=np.abs(state.z - stationary.z),
        z_dot_dev=z_dot,
        eta_dev=np.max(np.abs(state.c - profile.c), axis=-1),
    )
    t = float(state.t)
    if np.ndim(state.z) == 0:
        return DeviationRecord(t=t, **{k: float(v) for k, v in norms.items()})
    return [DeviationRecord(t=t, **{k: float(v[b]) for k, v in norms.items()})
            for b in range(len(state.z))]


@dataclass
class AdmissibilityReport:
    """Outcome of the initial-data conditions check.

    Conditions: (i) c0 smooth with c0'(0) = 0, c0(1) = 1, 0 <= c0 <= 1;
    (ii) p0 in [0, 1] with p0(1) = 1 at the boundary rest point.
    Violations are listed in ``issues``, not raised.  (ii)'s p0(1) = 1 is
    only recorded in ``p_boundary``: it is typically inherited false
    because the boundary rest point of the reaction sits below 1 whenever
    K_Q(1) > 0.
    """
    issues: list
    p_boundary: float   # p0(1)

    @property
    def admissible(self):
        return not self.issues


def admissibility_report(state, grid):
    tol = 1e-8   # rounding slack on c(1) = 1 and on the [0, 1] ranges
    issues = []
    c, p = state.c, state.p
    if abs(c[-1] - 1.0) > tol:
        issues.append(f"c(1) = {c[-1]:.6g}, expected 1")
    c0_slope = grid.derivative(c)[0]
    if abs(c0_slope) > max(10.0 * grid.h**2, 1e-6):
        issues.append(f"c'(0) = {c0_slope:.3e}, expected 0")
    if c.min() < -tol or c.max() > 1.0 + tol:
        issues.append(f"c range [{c.min():.3g}, {c.max():.3g}] outside [0, 1]")
    if p.min() < -tol or p.max() > 1.0 + tol:
        issues.append(f"p range [{p.min():.3g}, {p.max():.3g}] outside [0, 1]")
    return AdmissibilityReport(issues=issues, p_boundary=float(p[-1]))
