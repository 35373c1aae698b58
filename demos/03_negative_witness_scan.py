"""Chart scans and negative-direction witnesses on the warped family.

The family g(lam) = blockdiag(fiber, lam * base) has strictly positive
curvature on every fiber (except one vanishing point) and a positive
base, yet every lam admits directions of negative holomorphic sectional
curvature.  The scan finds them; the witness search packages the most
negative one it sees.
"""

import hsclab

for lam in (0.5, 1.0, 5.0, 50.0):
    spec = hsclab.catalog(f"paper_G({lam:g})")
    w = hsclab.find_negative_witness(spec, budget=4000)
    assert w is not None
    p1, p2 = (complex(z) for z in w.point)
    print(f"lam = {lam:5g}: K = {w.value:+.6f} at point "
          f"[{p1:.3f}, {p2:.3f}], stage {w.stage}")

print("\nnegativity decays like 1/lam but never leaves;"
      " meanwhile the base and fibers stay positive:")

base = hsclab.scan_chart(hsclab.catalog("paper_base"),
                         grid_per_axis=7, dirs=16, starts=2, iters=60)
print(f"  base chart minimum: {base.min_hsc:+.6f} (positive)")

g1 = hsclab.catalog("paper_G(1)")
for c in (0j, 0.4 + 0.3j):
    # the fiber over c: the slice z2 = c of the assembled metric
    sub = hsclab.restrict(g1, {2: c})
    rep = hsclab.scan_chart(sub, grid_per_axis=7, dirs=8, starts=2, iters=60)
    origin = hsclab.gaussian_curvature_1d(sub, 0j)
    print(f"  fiber over {c}: minimum {rep.min_hsc:+.3e} "
          f"(zero only at the fiber origin: K(0) = {origin:+.3e})")

csv = hsclab.scan_to_csv(base)
print(f"\nscan reports export as CSV ({len(csv.splitlines()) - 1} rows); "
      "the CLI writes them with `hsc-lab scan --csv`")
