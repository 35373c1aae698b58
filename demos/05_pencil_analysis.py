"""One-coordinate metric pencils g + lam*h in closed form.

For 1-D metrics the curvature of the sum has an exact expression in the
endpoint jets and curvatures:

    K(g + lam h) (g + lam h)^3
        = g^3 K_g + lam^2 h^3 K_h
          + 2 lam (-h g_zzbar - g h_zzbar + g_z h_zbar + h_z g_zbar)

so thresholds and large-lam behavior come from a quadratic numerator
instead of repeated tensor assembly.
"""

import numpy as np

import hsclab

g = hsclab.catalog("poincare")    # K = -4
h = hsclab.catalog("fs_affine")   # K = +4
z = 0.25 - 0.15j

print("closed form vs direct tensor route, random lams:")
rng = np.random.default_rng(3)
phi = hsclab.pencil_at(g, h, z)[1]   # lam -> K(g + lam*h) at z
for lam in sorted(rng.uniform(0.05, 30.0, 4)):
    closed = phi(lam)
    direct = hsclab.gaussian_curvature_1d(hsclab.pencil_spec(g, h, lam), z)
    print(f"  lam {lam:8.4f}: closed {closed:+.12f}  direct {direct:+.12f}"
          f"  gap {abs(closed - direct):.2e}")

out = hsclab.pencil_positive_threshold(g, h, 0j)
print(f"\npositivity threshold at the origin: lam* = {out['threshold']:.9f}")
print("  (numerator there is 4 lam^2 - 4: the mixed term vanishes,"
      " so the root is exactly 1)")
print(f"  curvature at lam*: {out['curvature_at_threshold']:.3e}; the"
      " numerator's leading coefficient h^3 K_h is positive, so the"
      " curvature stays positive for every larger lam")

decay = hsclab.pencil_decay_check(g, h, 0j)
print(f"\nlarge-lam decay: lam*K -> K_h = {decay['limit_curvature']:g}, "
      f"top ratio {decay['top_ratio']:.6f}, "
      f"log-log tail slope {decay['tail_slope']:+.4f}")

print("\nthe threshold refuses a second metric that cannot cure negativity:")
try:
    hsclab.pencil_positive_threshold(h, g, 0j)
except ValueError as exc:
    print(f"  ValueError: {exc}")
