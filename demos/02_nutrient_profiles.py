"""The quasi-static nutrient profile m(r; z) and its proven envelopes.

At frozen log-radius z the nutrient solves a two-point boundary value
problem on [0, 1]; larger tumors (larger z) starve their centers.  The
radial slope of the profile and its z-sensitivity (`nutrient_sensitivity`)
obey sharp sign and envelope bounds that we verify numerically.
"""
import numpy as np

from spheroid import (Grid, Rate, bounds_report, default_model, flux_residual,
                      solve_nutrient)

model = default_model()
grid = Grid(201)

print("Center nutrient level vs log-radius:")
for z in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0):
    prof = solve_nutrient(model, z, grid)
    print(f"  z={z:+.1f}  R={np.exp(z):6.2f}  m(0)={prof.c[0]:.4f}  "
          f"Newton iterations={prof.iterations}")

# Against a closed form: linear consumption F(c) = c at z = 0 gives
# m(r; 0) = sinh(r) / (r sinh 1).
import dataclasses
import math
linear = dataclasses.replace(model, F=Rate("linear", {"slope": 1.0}))
prof = solve_nutrient(linear, 0.0, grid)
exact = np.empty(grid.n)
exact[0] = 1.0 / math.sinh(1.0)
exact[1:] = np.sinh(grid.r[1:]) / (grid.r[1:] * math.sinh(1.0))
print(f"\nClosed-form check (linear F, z=0): max error = "
      f"{np.max(np.abs(prof.c - exact)):.2e}")
print(f"  m(0.5; 0) = {prof.c[100]:.5f}  (exact {exact[100]:.5f})")

# Integrating the equation once gives a flux identity; its residual is a
# discretization self-check, O(h^2).
print("\nFlux identity residual:")
for n in (101, 201, 401):
    g = Grid(n)
    p = solve_nutrient(linear, 0.0, g)
    print(f"  N={n:4d}: {flux_residual(p, linear):.2e}")

# Seven envelope bounds hold for any admissible consumption law: sign
# conditions on m, m_r, m_z plus quantitative caps scaled by F(1) e^{2z}.
print("\nEnvelope bounds for the default model:")
report = bounds_report(model, [-1.0, 0.0, 1.0], grid)
for line in report.lines():
    print("  " + line)
print("all bounds hold:", report.all_passed)
