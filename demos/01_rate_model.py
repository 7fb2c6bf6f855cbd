"""Tour of the rate model: the five rates, their composites, and the
admissibility conditions (A1)-(A5).

The model couples nutrient consumption F with four cell-kinetics rates:
birth K_B, quiescent->proliferating transfer K_P, proliferating->quiescent
transfer K_Q, and death K_D.  Everything downstream (reaction f, volume
source g) is built from them.
"""
from spheroid import check_assumptions, default_model, f_reaction, g_source

model = default_model()

print("Default rate families:")
rates = (model.F, model.K_B, model.K_P, model.K_Q, model.K_D)
for name, rate in zip(("F", "K_B", "K_P", "K_Q", "K_D"), rates):
    print(f"  {name:4s} {rate.family:9s} {rate.params}")

# Sample the rates across the nutrient range: rate.value(c) is the value
# alone, rate(c) the pair (value, derivative).
print("\n   c      F     K_B    K_P    K_Q    K_D")
for c in (0.0, 0.25, 0.5, 0.75, 1.0):
    vals = [rate.value(c) for rate in rates]
    print(f"  {c:4.2f}  " + "  ".join(f"{v:5.3f}" for v in vals))

# The reaction f(c, p) is a concave quadratic in p with f(c, 0) >= 0 and
# f(c, 1) <= 0, so the proliferating fraction can never leave [0, 1].
print("\nReaction sign structure at c = 0.6:")
for p in (0.0, 0.5, 1.0):
    print(f"  f(0.6, {p:.1f}) = {f_reaction(model, 0.6, p):+.4f}")

# The volume source g(c, p) decides local growth vs shrinkage.
print("\nVolume source at the reaction equilibrium:")
from spheroid import equilibrium_fraction
for c in (0.1, 0.3, 0.5, 0.8, 1.0):
    p = equilibrium_fraction(model, c)
    print(f"  c={c:.2f}: p_eq={p:.3f}  g={g_source(model, c, p):+.4f}")
print("  -> growth near the nutrient-rich rim, death in the starved core.")

# The conditions (A1)-(A5) guarantee a unique, attracting stationary state.
print("\nAssumption checks (sampled on [0, 1]):")
report = check_assumptions(model)
for line in report.lines():
    print("  " + line)
print("all passed:", report.all_passed)
