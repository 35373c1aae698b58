"""Second-order Wirtinger jets, two independent ways.

The algebraic route differentiates the expression symbolically on a
derivative tape (one first-order rule per node shape, d dbar being dbar
of the d node) and evaluates (value, d, dbar, ddbar); the oracle route
assembles the same slots from central divided differences on the 2n
real coordinates.  They agree to the oracle's truncation error, which
is the whole point: neither knows how the other works.  Each route also
reads a whole metric in one call, with the batch axes first, then the
entry axes (i, j), then the derivative axes.
"""

import numpy as np

import hsclab
from hsclab import dsl, wirtinger

point = np.array([0.35 - 0.2j, 0.1 + 0.4j])
src = "exp(z1*conj(z1))/(1+z2*conj(z2))^2"
expr = dsl.parse(src, 2)

algebraic = dsl.eval_jet(expr, 2, point.reshape(1, 2))
oracle = wirtinger.fd_jet(lambda z: dsl.eval_value(expr, z), point)

print(f"f = {src} at {point.tolist()}")
print(f"  value   algebraic {complex(algebraic.value[0]):.12f}")
print(f"          oracle    {complex(oracle.value):.12f}")
for k in range(2):
    print(f"  d/dz{k + 1}  algebraic {complex(algebraic.d[0, k]):+.10f}"
          f"   oracle {complex(oracle.d[k]):+.10f}")
gap = np.abs(algebraic.ddbar[0] - oracle.ddbar).max()
print(f"  mixed second-derivative block gap: {gap:.3e} "
      f"(oracle step {wirtinger.FD_STEP:g})")

# any parsed expression gets its jet the same way, at any batch of points
f = dsl.eval_jet(dsl.parse("(1+z1*conj(z1))^-2", 1), 1, [[0.5 + 0.1j]])
print("\njet of 1/(1+|z|^2)^2 at 0.5+0.1i:")
print(f"  value {f.value[0].real:.10f}, ddbar {f.ddbar[0, 0, 0].real:.10f} (both real)")

# a whole metric at once: the tape on the entry matrix, the oracle on the
# plain evaluator of that matrix
spec = dsl.catalog("warp_demo")
whole = dsl.eval_jet(spec.entries, spec.n, point)
whole_fd = wirtinger.fd_jet(lambda z: dsl.metric_values(spec, z), point)
print(f"\nwarp_demo at the same point: ddbar has shape {whole.ddbar.shape} "
      f"(i, j, k, l) on both routes; largest gap "
      f"{max(np.abs(a - b).max() for a, b in zip(whole, whole_fd)):.3e}")
print(f"  g_11 = {whole.value[0, 0].real:.10f}, "
      f"d g_11/dz2 = {complex(whole.d[0, 0, 1]):+.10f}")

print("\nthe tape refuses division at a zero:")
try:
    dsl.eval_jet(dsl.parse("1/z1", 1), 1, [[0j]])
except hsclab.SingularPointError as exc:
    print(f"  SingularPointError: {exc}")
