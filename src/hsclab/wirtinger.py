"""Second-order Wirtinger jets.

A function f of n complex variables that is smooth but not holomorphic
(it may depend on both z_k and conj(z_k)) carries, at a point, the data

    value            f
    d[k]             df/dz_k
    dbar[k]          df/dzbar_k
    ddbar[k][l]      d^2 f / dz_k dzbar_l

with the Wirtinger operators d/dz = (d/dx - i d/dy)/2 and
d/dzbar = (d/dx + i d/dy)/2.  Pure second derivatives (d^2/dz_k dz_l and
its conjugate) are deliberately not carried: the curvature formulas this
package evaluates only consume the mixed block.  `Jet2` is the record of
these four slots that both jet routes return: the derivative tape of
`dsl` and `fd_jet` here, which builds them from central finite
differences of a plain batch evaluator.  fd_jet is the independent
oracle the tape is tested against, so it must never share code with it:
this module imports numpy and the standard library only.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

# Division by a value closer to 0 than this, in the derivative tape,
# raises SingularPointError instead of returning garbage derivatives.
DIV_EPS = 1e-12

# Default central-difference step for fd_jet.  Second-order stencils at
# this step give ~1e-7 absolute accuracy on O(1) smooth functions.
FD_STEP = 1e-4


class SingularPointError(ArithmeticError):
    """A divisor has modulus below DIV_EPS."""


class Jet2(NamedTuple):
    """Truncated second-order Wirtinger jets of a function or of an array
    of them, such as the n x n entries of a metric.

    Fields hold numpy arrays: the points' batch shape B, then the
    entries' shape E (empty for one function), then the derivative axes.
    `value` has shape B+E, `d` and `dbar` have shape B+E+(n,), `ddbar`
    has shape B+E+(n,n) with ddbar[..., k, l] equal to
    d^2 f / dz_k dzbar_l.
    """

    value: np.ndarray
    d: np.ndarray
    dbar: np.ndarray
    ddbar: np.ndarray


@functools.cache
def _stencil(n: int) -> tuple:
    """The step-free part of fd_jet's stencil for n complex coordinates,
    built once per n: the unit offsets as (K, 2n) interleaved real and
    imaginary parts, the upper-triangle axis pairs (ia, ib) of the 2n
    real axes, the Hessian diagonal indices, and the slices that cut the
    off-centre samples into the +h, -h and four corner groups.
    Every call shares these arrays, so they are read-only."""
    m = 2 * n
    axes = np.concatenate([np.eye(n), 1j * np.eye(n)])
    ia, ib = np.triu_indices(m, 1)
    unit = np.concatenate([
        np.zeros((1, n)), axes, -axes,
        axes[ia] + axes[ib], axes[ia] - axes[ib],
        -axes[ia] + axes[ib], -axes[ia] - axes[ib]])
    arrays = (unit.view(np.float64), ia, ib, np.arange(m))
    for a in arrays:
        a.flags.writeable = False
    ends = np.cumsum([1, m, m, ia.size, ia.size, ia.size, ia.size]).tolist()
    cuts = tuple(slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:]))
    return arrays + (cuts,)


def fd_jet(f: Callable[[np.ndarray], np.ndarray], points,
           step: float = FD_STEP) -> Jet2:
    """Second-order central-difference jets of a batch evaluator.

    The function is sampled on the 2n real coordinates (x_k, y_k) with
    z_k = x_k + i y_k, and the Wirtinger slots are assembled from the
    real gradient and Hessian:

        d/dz_k      = (d/dx_k - i d/dy_k) / 2
        d/dzbar_k   = (d/dx_k + i d/dy_k) / 2
        d2/dz_k dzbar_l = (H[x_k,x_l] + H[y_k,y_l]
                           + i (H[x_k,y_l] - H[y_k,x_l])) / 4

    `f` maps complex points (..., n) to values (...) + E, E = () for one
    function and (n, n) for dsl.metric_values, or to a scalar that is
    broadcast; the slots have Jet2's layout.  `points` has shape (..., n)
    and `step` is the real step h.  The whole stencil (the centre, +-h
    along each real axis, and the four corners of each pair of axes)
    goes to `f` in one call, its sample axis then moved behind E.  Its unit
    offsets and index arrays come from `_stencil(n)`, built once per n;
    each call scales the offsets' real and imaginary parts by h as reals,
    which keeps every signed zero a per-call build would give.  This is
    the oracle implementation: it touches only `f` and the stencil, never
    the derivative tape.
    """
    pts = np.asarray(points, dtype=complex)
    n, b = pts.shape[-1], pts.ndim - 1
    m = 2 * n
    h = float(step)
    unit, ia, ib, diag, cuts = _stencil(n)
    offsets = (h * unit).view(complex)
    vals = np.asarray(f(pts[..., None, :] + offsets), dtype=complex)
    vals = np.moveaxis(np.broadcast_to(vals, pts.shape[:-1] + offsets.shape[:1]
                                       + vals.shape[b + 1:]), b, -1)
    f0 = vals[..., 0]
    fp, fm, fpp, fpm, fmp, fmm = (vals[..., c] for c in cuts)

    grad = (fp - fm) / (2 * h)
    hess = np.empty(vals.shape[:-1] + (m, m), dtype=complex)
    hess[..., diag, diag] = (fp - 2 * f0[..., None] + fm) / (h * h)
    hess[..., ia, ib] = hess[..., ib, ia] = (fpp - fpm - fmp + fmm) / (4 * h * h)

    dx, dy = grad[..., :n], grad[..., n:]
    d = (dx - 1j * dy) / 2.0
    dbar = (dx + 1j * dy) / 2.0
    ddbar = (hess[..., :n, :n] + hess[..., n:, n:]
             + 1j * (hess[..., :n, n:] - hess[..., n:, :n])) / 4.0
    return Jet2(f0.copy(), d, dbar, ddbar)
