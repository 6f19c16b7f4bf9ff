"""The factorial prototype, end to end.

For gamma(s) = Gamma(s) the transform pair is classical: the decay side
K is exactly e^{-t} (it solves the moment problem int t^n K dt = n!) and
the growth side E is exactly e^z.  This script closes the loop
numerically: both contour routes for K, the series for E, the moment
integrals, and the summation identity converting sum z^n/gamma(n) into a
real-line integral plus two small vertical corrections.
"""
import math

import numpy as np

from mellin_saddle import (ContourSpec, LogSurfacePoint, eval_abel_plana_parts,
                           eval_E_series, eval_K, gamma_shift, moment)

f = gamma_shift(0.0)
print(f"weight: {f.label}   (domain edge c = {f.c_gamma:g}, "
      f"sector half-angle = {f.alpha0:.4f})")

print("\nK(t) against e^{-t}, angle contour vs vertical line:")
print(f"{'t':>6} {'K (rays)':>16} {'K (vertical)':>16} {'e^-t':>16} "
      f"{'worst rel err':>14}")
for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
    z = LogSurfacePoint(math.log(t), 0.0)
    k_ray = eval_K(f, z).value.real
    k_ver = eval_K(f, z, ContourSpec("vertical")).value.real
    want = math.exp(-t)
    worst = max(abs(k_ray / want - 1), abs(k_ver / want - 1))
    print(f"{t:6.1f} {k_ray:16.9e} {k_ver:16.9e} {want:16.9e} {worst:14.2e}")

print("\nE(x) against e^x (log-space series, exactly rounded):")
for x in (1.0, 5.0, 10.0, 20.0):
    e = eval_E_series(f, LogSurfacePoint(math.log(x), 0.0))
    print(f"  E({x:4.1f}) = {e.value.real:.12e}   rel err "
          f"{abs(e.value.real / math.exp(x) - 1):.2e}   ({e.nodes} terms)")

print("\nmoment integrals int t^n K(t) dt against n!:")
for n in range(6):
    m = moment(f, n)
    got = (m.value * math.exp(m.log_scale)).real
    print(f"  n={n}: {got:.10f}   vs {math.factorial(n)}   "
          f"rel err {abs(got / math.factorial(n) - 1):.2e}")

print("\nsummation identity at z = 5i (sum z^n/gamma(n) = z e^z here):")
z = LogSurfacePoint(math.log(5.0), math.pi / 2)
parts = eval_abel_plana_parts(f, z)
want = 5j * np.exp(5j)
total = parts.total.value
print(f"  main integral      = {parts.main.value:.10f}")
print(f"  vertical (upper)   = {parts.upper.value:.3e}")
print(f"  vertical (lower)   = {parts.lower.value:.3e}")
print(f"  total              = {total:.10f}")
print(f"  z e^z              = {complex(want):.10f}")
print(f"  rel err            = {abs(total - want) / abs(want):.2e}")
