"""Leading asymptotics against the numerics, on ladders of saddle radii.

With s = s_z and eps = eps(s_z):

    K(z)            ~ sqrt(s/(2 pi eps)) exp(-s eps)
    z E(z) + 1/g(0) ~ sqrt(2 pi s/eps)   exp(+s eps)

The ratios numeric/asymptotic approach 1; for the factorial weight the
deviation tracks the Stirling-type correction ~ 1/(12 rho_z).  The same
harness drives the log-scale weight to rho_z = 60000, where values
underflow double range and everything rides on the log scale.
"""
import math

from mellin_saddle import (E_asymptotic, K_asymptotic, eval_growth_sum,
                           eval_K, gamma_shift, iterated_log,
                           local_gaussian_reference, local_gaussian_saddle,
                           point_with_saddle_radius, solve)
from mellin_saddle.verification import deviation

g = gamma_shift(0.0)

print("decay side, factorial weight, on the positive ray:")
print(f"{'rho_z':>8} {'|ratio-1|':>12} {'1/(12 rho)':>12}")
for rho in (10.0, 20.0, 40.0, 80.0, 160.0):
    z, _ = point_with_saddle_radius(g, rho, 0.0)
    num = eval_K(g, z)
    asym = K_asymptotic(g, z)
    print(f"{rho:8.0f} {deviation(num, asym):12.3e} {1/(12*rho):12.3e}")

print("\ngrowth side, factorial weight (z E + 1/g(0) vs its form):")
for rho in (10.0, 40.0, 160.0, 640.0):
    z, _ = point_with_saddle_radius(g, rho, 0.0)
    num = eval_growth_sum(g, z)
    asym = E_asymptotic(g, z)
    print(f"  rho_z={rho:6.0f}: |ratio-1| = {deviation(num, asym):.3e}")

il = iterated_log(1.0, 1.0, 1, math.e)
print(f"\ndecay side for {il.label} (slow o(1) ~ eps ~ 1/log rho):")
print(f"{'rho_z':>8} {'z':>8} {'log K':>14} {'|ratio-1|':>12}")
for rho in (3750.0, 15000.0, 60000.0):
    z, _ = point_with_saddle_radius(il, rho, 0.0)
    num = eval_K(il, z)
    asym = K_asymptotic(il, z)
    print(f"{rho:8.0f} {math.exp(z.log_r):8.2f} {num.magnitude_log:14.1f} "
          f"{deviation(num, asym):12.4f}")

print("\nlocal model: the chord integral through the saddle against")
print("i sqrt(2 pi s/eps) e^{-s eps} (both sides at the same s_z):")
for rho in (30.0, 60.0, 120.0):
    z, _ = point_with_saddle_radius(g, rho, 0.0)
    got = local_gaussian_saddle(g, z)
    sol, _ = solve(g, z)
    ref = local_gaussian_reference(g, sol)
    refv = ref.value * math.exp(ref.log_scale)
    print(f"  rho_z={rho:5.0f}: |ratio-1| = {abs(got/refv-1):.4f}")
