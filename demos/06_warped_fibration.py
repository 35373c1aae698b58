"""Warped products over a fibration and the lam positivity search.

Scaling the base block of blockdiag(fiber, (mu0 + lam) base) suppresses
the mixed-direction negativity that a product chart carries; the search
below solves for each grid point's own threshold by Newton's method, takes
the largest, then confirms positivity persists at 2x and 4x.
"""

import numpy as np

import hsclab

f = hsclab.warp_demo_fibration()
print(f"fibration {f.name}: {f.s} fiber + {f.m} base coordinate(s), "
      f"mu0 = {f.mu0:g}")

spec = hsclab.assemble(f, 1.0)
print(f"assembled at lam=1: entries "
      f"{[[hsclab.to_source(e) for e in row] for row in spec.entries]}")

growth = hsclab.base_growth_check(f)
print(f"curvature numerator along base directions grows with slope "
      f"{growth['slope']:.4f} in lam (expected 1)")

print("\nsolving for the positivity threshold (coarse grid)...")
res = hsclab.lambda_search(f, grid_per_axis=3, skip_hypotheses=True)
print(f"  lam* = {res.lambda_star:.6f} after {res.newton_passes} Newton "
      f"passes, chart minimum there {res.min_hsc_at_star:+.3e}")
print(f"  per-point thresholds from {res.thresholds.min():.4f} to "
      f"{res.thresholds.max():.6f} (median {np.median(res.thresholds):.4f})")
print(f"  at lam = 0.001 the minimum was {res.history[0][1]:+.2f}")
for lam, val in res.persistence:
    print(f"  persistence at lam = {lam:.3f}: minimum {val:+.6f}")

print("\nthe bundled counterexample family is refused on hypotheses:")
try:
    hsclab.lambda_search(hsclab.paper_G_fibration(), grid_per_axis=3, dirs=8,
                         starts=1, iters=40)
except hsclab.HypothesisViolationError as exc:
    print(f"  refused: {exc.side} minimum {exc.value:+.3e} "
          "(vanishes at the center of every fiber; no lam rescues it)")

print("\nwithout the hypothesis scans, the per-point solve refuses it too:")
try:
    hsclab.lambda_search(hsclab.paper_G_fibration(), grid_per_axis=3,
                         skip_hypotheses=True)
except hsclab.ThresholdNotReachedError as exc:
    print(f"  {exc}")
