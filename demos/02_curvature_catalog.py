"""Curvature tensors and holomorphic sectional curvature on the catalog.

Walks the bundled metrics, computes the full tensor at a few chart
points, and prints sectional values along random directions.  Constant
model surfaces bracket everything else: -4 on the disk metric, +4 on
the affine sphere chart, 0 on flat space.
"""

import numpy as np

import hsclab

rng = np.random.default_rng(0)

for name in ("flat(1)", "poincare", "fs_affine", "paper_base"):
    spec = hsclab.catalog(name)
    # three chart points, one random direction per point
    pts = np.array([[0j], [0.3 + 0.2j], [-0.5 - 0.1j]])
    g, R = hsclab.curvature_at(spec, pts)
    dirs = rng.standard_normal((3, 1, 1)) + 1j * rng.standard_normal((3, 1, 1))
    vals = hsclab.hsc_dirs(g, R, dirs)[:, 0]
    shown = ", ".join(f"{v:+.6f}" for v in vals)
    print(f"{name:12s} K at three points: {shown}")

print()

# a genuinely 2-dimensional example: the warped family at lam = 1
spec = hsclab.catalog("paper_G(1)")
g, R = hsclab.curvature_at(spec, np.zeros((1, 2)))
print(f"{spec.name}: tensor shape {R.shape}, "
      f"pair-symmetry defect {hsclab.pair_symmetry_defect(R):.2e}")

dirs = rng.standard_normal((1, 2000, 2)) + 1j * rng.standard_normal((1, 2000, 2))
vals = hsclab.hsc_dirs(g, R, dirs)[0]
print(f"  K over 2000 random directions at the origin: "
      f"min {vals.min():+.6f}, max {vals.max():+.6f}")
print("  (the minimum sits at -2/3: mixed fiber/base directions are "
      "negative even though both blocks look fine alone)")

# one-coordinate metrics have a closed-form check
g = hsclab.catalog("paper_base")
z = 0.4 - 0.3j
print(f"\npaper_base closed form at {z}: "
      f"K = {hsclab.gaussian_curvature_1d(g, z):.10f} "
      f"(formula 2/(1+|z|^2) = {2 / (1 + abs(z) ** 2):.10f})")
