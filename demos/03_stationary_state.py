"""Computing the dormant (stationary) tumor two independent ways.

Primary method: the fixed point of one evolution step.  Pseudo-time
relaxation of the quasi-static evolution (the stationary state is
asymptotically stable), in coarse steps of at least 0.25, brings the
fixed-point residual |step(x) - x|/dt down to 1e-2; Newton on that
residual, for the scheme's own dt, then certifies it below tol/10, tight
enough that the reference error stays under what the rate fits of
perturbed runs resolve.  Newton's Jacobian is a finite-difference one
whose columns are stepped together as one batch of states; it is kept
while its steps halve the residual, and rebuilt when one does not.
Where Newton stalls, the relaxation resumes with the scheme's dt and
runs to the same level.  Cross-check: a direct construction that solves
the steady equations themselves, v(1) = 0 and -w p' + f(c, p) = 0 at
every node with c = m(.; z), by the same Newton from the primary state.
It shares no transport step, kernel or dt with the scheme.  The two must
agree tightly, or something is off.
"""
from spheroid import Grid, default_model, solve_stationary

model = default_model()
grid = Grid(201)

solution = solve_stationary(model, grid, tol=1e-6, cross_check=True)

print(f"stationary log-radius z* = {solution.z:.8f}")
print(f"  tumor radius R* = e^z* = {solution.radius:.4f}")
print(f"  direct-construction z* = {solution.z_direct:.8f}  "
      f"(gap {abs(solution.z - solution.z_direct):.2e})")
print("\nResiduals of the returned fields:")
print(f"  |v(1)|                = {solution.v1_residual:.2e}")
print(f"  max |-v p' + f(c, p)| = {solution.transport_residual:.2e}")

print("\nProfiles (selected radii):")
print("   r      c*      p*      v*")
for i in range(0, grid.n, 25):
    print(f"  {grid.r[i]:4.2f}  {solution.c[i]:.4f}  {solution.p[i]:.4f}  "
          f"{solution.v[i]:+.5f}")

print("\nReading the profiles: nutrient falls toward the center, the")
print("proliferating fraction follows it, and the cell velocity is inward")
print("(v < 0): cells born near the rim drift toward the starved core and")
print("die there, so the boundary stands still while the interior turns over.")
