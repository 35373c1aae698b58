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
package evaluates only consume the mixed block, and truncating keeps the
arithmetic O(n^2) per operation.

Jets propagate through +, -, *, /, integer powers, exp and complex
conjugation.  All slots may carry a leading batch shape so that one jet
object can represent the same function evaluated at many points at once;
every rule below is written with numpy broadcasting over that batch.

`fd_jet` builds the same data from central finite differences of a plain
batch evaluator, which receives the whole stencil at every point in one
call; the stencil's step-free part is built once per n.  It is the
independent oracle the algebraic rules are tested against, so it must
never share code with them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Division by a jet whose value is closer to 0 than this raises
# SingularPointError instead of returning garbage derivatives.
DIV_EPS = 1e-12

# Default central-difference step for fd_jet.  Second-order stencils at
# this step give ~1e-7 absolute accuracy on O(1) smooth functions.
FD_STEP = 1e-4


class SingularPointError(ArithmeticError):
    """Jet division hit a value with modulus below the configured epsilon."""


@dataclass(eq=False)
class Jet2:
    """Truncated second-order Wirtinger jet of one scalar function.

    Fields hold numpy arrays; a leading batch shape (possibly empty) is
    shared by all four slots.  `value` has shape B, `d` and `dbar` have
    shape B+(n,), `ddbar` has shape B+(n,n) with ddbar[..., k, l] equal
    to d^2 f / dz_k dzbar_l.
    """

    n: int
    value: np.ndarray
    d: np.ndarray
    dbar: np.ndarray
    ddbar: np.ndarray

    @property
    def batch_shape(self) -> tuple:
        return self.value.shape

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            self._check(other)
            return Jet2(self.n, self.value + other.value, self.d + other.d,
                        self.dbar + other.dbar, self.ddbar + other.ddbar)
        return Jet2(self.n, self.value + other, self.d.copy(),
                    self.dbar.copy(), self.ddbar.copy())

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet2(self.n, -self.value, -self.d, -self.dbar, -self.ddbar)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            self._check(other)
            f, g = self, other
            value = f.value * g.value
            d = f.d * g.value[..., None] + f.value[..., None] * g.d
            dbar = f.dbar * g.value[..., None] + f.value[..., None] * g.dbar
            # (fg)_{k lbar} = f_{k lbar} g + f_k g_{lbar} + f_{lbar} g_k + f g_{k lbar}
            ddbar = (f.ddbar * g.value[..., None, None]
                     + np.einsum("...k,...l->...kl", f.d, g.dbar)
                     + np.einsum("...k,...l->...kl", g.d, f.dbar)
                     + f.value[..., None, None] * g.ddbar)
            return Jet2(self.n, value, d, dbar, ddbar)
        c = np.asarray(other, dtype=complex)
        return Jet2(self.n, self.value * c, self.d * c[..., None],
                    self.dbar * c[..., None], self.ddbar * c[..., None, None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return self * (1.0 / complex(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        out = constant(self.n, 1.0, self.batch_shape)
        for _ in range(int(exponent)):
            out = out * self
        return out

    def reciprocal(self) -> "Jet2":
        """Jet of 1/f.  Raises SingularPointError when |f| < DIV_EPS."""
        v = self.value
        if np.any(np.abs(v) < DIV_EPS):
            raise SingularPointError(
                f"division by jet with value modulus {np.min(np.abs(v)):.3e}")
        inv = 1.0 / v
        inv2 = inv * inv
        d = -self.d * inv2[..., None]
        dbar = -self.dbar * inv2[..., None]
        ddbar = (-self.ddbar * inv2[..., None, None]
                 + 2.0 * np.einsum("...k,...l->...kl", self.d, self.dbar)
                 * (inv2 * inv)[..., None, None])
        return Jet2(self.n, inv, d, dbar, ddbar)

    def conjugate(self) -> "Jet2":
        """Jet of conj(f): swaps d with dbar and conjugate-transposes ddbar."""
        return Jet2(self.n, np.conjugate(self.value), np.conjugate(self.dbar),
                    np.conjugate(self.d),
                    np.conjugate(self.ddbar.swapaxes(-1, -2)))

    def exp(self) -> "Jet2":
        e = np.exp(self.value)
        d = e[..., None] * self.d
        dbar = e[..., None] * self.dbar
        ddbar = e[..., None, None] * (
            self.ddbar + np.einsum("...k,...l->...kl", self.d, self.dbar))
        return Jet2(self.n, e, d, dbar, ddbar)

    # -- internals -----------------------------------------------------

    def _check(self, other: "Jet2") -> None:
        if self.n != other.n:
            raise ValueError(f"jet dimension mismatch: {self.n} vs {other.n}")


def constant(n: int, value, batch_shape: tuple = ()) -> Jet2:
    """Jet of a constant: all derivative slots zero."""
    v = np.broadcast_to(np.asarray(value, dtype=complex), batch_shape).copy()
    return Jet2(n,
                v,
                np.zeros(batch_shape + (n,), dtype=complex),
                np.zeros(batch_shape + (n,), dtype=complex),
                np.zeros(batch_shape + (n, n), dtype=complex))


def seed(n: int, point, index: int) -> Jet2:
    """Jet of the coordinate function z_index at `point`; seed(...).conjugate()
    is the jet of conj(z_index).

    Parameters
    ----------
    n : number of complex coordinates.
    point : array-like of shape (..., n); a leading batch shape is kept.
    index : 0-based coordinate index.
    """
    pts = np.asarray(point, dtype=complex)
    if pts.shape == () and n == 1:
        pts = pts.reshape(1)
    if pts.shape[-1] != n:
        raise ValueError(f"point has {pts.shape[-1]} coordinates, expected {n}")
    if not 0 <= index < n:
        raise IndexError(f"coordinate index {index} out of range for n={n}")
    batch = pts.shape[:-1]
    d = np.zeros(batch + (n,), dtype=complex)
    d[..., index] = 1.0
    return Jet2(n, pts[..., index].copy(), d, np.zeros(batch + (n,), dtype=complex),
                np.zeros(batch + (n, n), dtype=complex))


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

    `f` maps complex points (..., n) to values (...), or to a scalar that
    is broadcast; `points` has shape (..., n) and `step` is the real step
    h.  The whole stencil (the centre, +-h along each real axis, and the
    four corners of each pair of axes) goes to `f` in one call.  Its unit
    offsets and index arrays come from `_stencil(n)`, built once per n;
    each call scales the offsets' real and imaginary parts by h as reals,
    which keeps every signed zero a per-call build would give.  This is
    the oracle implementation: it touches only `f` and the stencil, never
    the algebraic propagation rules above.
    """
    pts = np.asarray(points, dtype=complex)
    n = pts.shape[-1]
    m = 2 * n
    h = float(step)
    unit, ia, ib, diag, cuts = _stencil(n)
    offsets = (h * unit).view(complex)
    vals = np.broadcast_to(np.asarray(f(pts[..., None, :] + offsets), dtype=complex),
                           pts.shape[:-1] + offsets.shape[:1])
    f0 = vals[..., 0]
    fp, fm, fpp, fpm, fmp, fmm = (vals[..., c] for c in cuts)

    grad = (fp - fm) / (2 * h)
    hess = np.empty(pts.shape[:-1] + (m, m), dtype=complex)
    hess[..., diag, diag] = (fp - 2 * f0[..., None] + fm) / (h * h)
    hess[..., ia, ib] = hess[..., ib, ia] = (fpp - fpm - fmp + fmm) / (4 * h * h)

    dx, dy = grad[..., :n], grad[..., n:]
    d = (dx - 1j * dy) / 2.0
    dbar = (dx + 1j * dy) / 2.0
    ddbar = (hess[..., :n, :n] + hess[..., n:, n:]
             + 1j * (hess[..., :n, n:] - hess[..., n:, :n])) / 4.0
    return Jet2(n, f0.copy(), d, dbar, ddbar)
