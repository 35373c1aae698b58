"""Curvature tensors and holomorphic sectional curvature of Hermitian metrics.

The curvature components used throughout are, in local coordinates,

    R[i,j,k,l] = -d2g[i,j,k,l] + sum_{p,q} ginv[p,q] * dg[i,p,k] * dbarg[q,j,l]

where dg[i,p,k] is the z_k-derivative of entry (i,p), dbarg[q,j,l] the
zbar_l-derivative of entry (q,j), and ginv the plain matrix inverse of the
entry matrix.  With this index wiring the affine Fubini-Study chart
1/(1+|z|^2)^2 comes out at constant sectional value +4 and the unit-disk
hyperbolic metric 1/(1-|z|^2)^2 at -4, which pins the convention.

Sectional values are

    K(xi) = 2 * sum R[i,j,k,l] xi_i conj(xi_j) xi_k conj(xi_l)
              / (sum g[i,j] xi_i conj(xi_j))^2,

real by the pair symmetry R[i,j,k,l] = conj(R[j,i,l,k]) and invariant under
scaling of xi.  The numerator is evaluated once, in `quartic`, as the
quadratic form vec(X)^T . R.reshape(d^2, d^2) . vec(X) in the rank-one
matrix X = xi xi^H, and the denominator once, in `metric_norm2`.
`quartic` forms it as a BLAS matrix product, the row sums of (X @ R) * X,
over blocks of QUARTIC_BLOCK directions.  The block is fixed for memory,
not speed: one unblocked product over 1e4 directions holds two 1e4 x d^2
temporaries plus per-thread BLAS buffers, and raised the peak memory of
the minimizer-free acceptance checks from 50.9 to 54.4 MiB.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dsl
from .wirtinger import DIV_EPS, FD_STEP, SingularPointError, fd_jet

COND_LIMIT = 1e12
PAIR_SYMMETRY_TOL = 1e-10
IMAG_TOL = 1e-10
QUARTIC_BLOCK = 1024


class IllConditionedError(ArithmeticError):
    """Entry matrix condition number exceeds COND_LIMIT at some point."""


class PointOutsideBoxError(ValueError):
    pass


@dataclass(frozen=True)
class MetricJet:
    """Metric entries and their first/mixed-second derivatives at points.

    Arrays carry a leading batch shape: g is (..., n, n), dg and dbarg are
    (..., n, n, n) with the derivative index last, ddbarg is
    (..., n, n, n, n) indexed [i, j, k, l] for the z_k, zbar_l mixed
    derivative of entry (i, j).
    """

    n: int
    g: np.ndarray
    dg: np.ndarray
    dbarg: np.ndarray
    ddbarg: np.ndarray
    points: np.ndarray


@dataclass(frozen=True)
class CurvatureTensor:
    n: int
    R: np.ndarray  # (..., n, n, n, n) indexed [i, j, k, l]
    points: np.ndarray


def _metric_jet(spec: dsl.MetricSpec, pts: np.ndarray, entry_jet) -> MetricJet:
    """Place entry_jet(expr), a Jet2 over the batch of pts, for every entry."""
    if pts.shape[-1:] != (spec.n,):
        raise ValueError(f"points must have {spec.n} coordinates")
    n = spec.n
    batch = pts.shape[:-1]
    g = np.empty(batch + (n, n), dtype=complex)
    dg = np.empty(batch + (n, n, n), dtype=complex)
    dbarg = np.empty(batch + (n, n, n), dtype=complex)
    ddbarg = np.empty(batch + (n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            jet = entry_jet(spec.entries[i][j])
            g[..., i, j] = jet.value
            dg[..., i, j, :] = jet.d
            dbarg[..., i, j, :] = jet.dbar
            ddbarg[..., i, j, :, :] = jet.ddbar
    return MetricJet(n, g, dg, dbarg, ddbarg, pts)


def metric_jet(spec: dsl.MetricSpec, points) -> MetricJet:
    """Evaluate all entry jets at points (..., n); PointOutsideBoxError
    names the first point outside the box or not finite."""
    pts = np.asarray(points, dtype=complex)
    # _metric_jet rejects a wrong coordinate count.
    if pts.shape[-1:] == (spec.n,):
        flat = pts.reshape(-1, spec.n)
        outside = np.flatnonzero(~dsl.box_contains(spec.box, flat))
        if outside.size:
            row = flat[outside[0]]
            raise PointOutsideBoxError(f"point {row.tolist()} outside box of {spec.name}")
    return _metric_jet(spec, pts, lambda e: dsl.eval_jet(e, spec.n, pts))


def metric_jet_from_fd(spec: dsl.MetricSpec, points, step: float = FD_STEP) -> MetricJet:
    """Same arrays as metric_jet but via the finite-difference oracle."""
    pts = np.asarray(points, dtype=complex)
    return _metric_jet(spec, pts,
                       lambda e: fd_jet(partial(dsl.eval_value, e), pts, step=step))


def pair_symmetry_defect(R: np.ndarray) -> float:
    """max |R[i,j,k,l] - conj(R[j,i,l,k])|, the realness obstruction."""
    mirror = np.conjugate(np.swapaxes(np.swapaxes(R, -4, -3), -2, -1))
    return float(np.abs(R - mirror).max())


def check_tensor(g: np.ndarray, R: np.ndarray) -> None:
    """The checks of curvature() on a metric g (..., n, n) and its tensor
    R (..., n, n, n, n): IllConditionedError when a condition number of g
    exceeds COND_LIMIT, ArithmeticError when the pair-symmetry defect of R
    exceeds PAIR_SYMMETRY_TOL times max(1, max |R|)."""
    worst = float(np.max(np.linalg.cond(g)))
    if not np.isfinite(worst) or worst > COND_LIMIT:
        raise IllConditionedError(f"metric condition number {worst:.3e} exceeds {COND_LIMIT:.0e}")
    scale = max(1.0, float(np.abs(R).max())) if R.size else 1.0
    defect = pair_symmetry_defect(R)
    if defect > PAIR_SYMMETRY_TOL * scale:
        raise ArithmeticError(f"curvature pair-symmetry defect {defect:.3e} at scale {scale:.3e}")


def curvature(mj: MetricJet, check: bool = True) -> CurvatureTensor:
    """Curvature components from a MetricJet; see the module docstring.
    With check, check_tensor runs on the result."""
    g = mj.g
    eye = np.broadcast_to(np.eye(mj.n, dtype=complex), g.shape)
    try:
        ginv = np.linalg.solve(g, eye)
    except np.linalg.LinAlgError:
        # g is exactly singular somewhere, so its condition number there is
        # infinite and check_tensor names it
        if not check:
            raise
        ginv = np.full(g.shape, np.nan, dtype=complex)
    R = -mj.ddbarg + np.einsum("...pq,...ipk,...qjl->...ijkl", ginv, mj.dg, mj.dbarg)
    if check:
        check_tensor(g, R)
    return CurvatureTensor(mj.n, R, mj.points)


def quartic(R: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """R(xi, conj xi, xi, conj xi) per direction: R (..., d, d, d, d),
    dirs (..., m, d) -> (..., m), batch shapes broadcast.

    Each block of at most QUARTIC_BLOCK directions gives X = vec(xi xi^H)
    of shape (..., block, d^2), and the block's values are the row sums of
    (X @ R.reshape(d^2, d^2)) * X, written into one preallocated output.
    The block bounds the two (..., block, d^2) temporaries and the BLAS
    work buffers, so the peak memory of a long direction list stays that
    of one block; m <= QUARTIC_BLOCK runs the loop once.
    """
    d = dirs.shape[-1]
    m = dirs.shape[-2]
    Rm = R.reshape(R.shape[:-4] + (d * d, d * d))
    out = np.empty(np.broadcast_shapes(R.shape[:-4], dirs.shape[:-2]) + (m,),
                   dtype=np.result_type(R, dirs))
    for lo in range(0, m, QUARTIC_BLOCK):
        block = dirs[..., lo:lo + QUARTIC_BLOCK, :]
        X = (block[..., :, None] * np.conjugate(block)[..., None, :]).reshape(
            block.shape[:-1] + (d * d,))
        Y = X @ Rm
        Y *= X
        out[..., lo:lo + QUARTIC_BLOCK] = Y.sum(-1)
    return out


def metric_norm2(g: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """|xi|_g^2 per direction: g (..., d, d), dirs (..., m, d) -> (..., m)."""
    return (dirs @ g * np.conjugate(dirs)).sum(-1).real


def hsc_dirs(g: np.ndarray, R: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Batched K over m directions per point: g (...,d,d), R (...,d,d,d,d),
    dirs (..., m, d) -> (..., m); a (1, d) dirs broadcasts over points.

    Raises ArithmeticError when a numerator's imaginary part exceeds
    IMAG_TOL times max(1, |R|_F * |xi|_2^4), the Cauchy-Schwarz bound on
    the sum of the moduli of its summands, so the rounding of a large sum
    that cancels stays far below it; SingularPointError when a
    direction's metric norm is at most DIV_EPS.
    """
    dirs = np.asarray(dirs, dtype=complex)
    num = quartic(R, dirs)
    den = metric_norm2(g, dirs)
    d = R.shape[-1]
    r_norm = np.linalg.norm(R.reshape(R.shape[:-4] + (d ** 4,)), axis=-1)
    xi_sq = (dirs.real ** 2 + dirs.imag ** 2).sum(-1)
    scale = np.maximum(1.0, r_norm[..., None] * xi_sq ** 2)
    if np.any(np.abs(num.imag) > IMAG_TOL * scale):
        raise ArithmeticError("sectional numerator has a non-negligible imaginary part")
    if np.any(den <= DIV_EPS):
        raise SingularPointError("direction has vanishing metric norm")
    return 2.0 * num.real / den ** 2


def curvature_at(spec: dsl.MetricSpec, points):
    """Convenience: (MetricJet, CurvatureTensor) at points."""
    mj = metric_jet(spec, points)
    return mj, curvature(mj)


def entry_jet_1d(spec: dsl.MetricSpec, points) -> tuple:
    """(g, g_z, g_zbar, g_zzbar) of a one-coordinate metric at points.

    `points` is a complex scalar or an array of any shape; a scalar is a
    batch of one.  The slots are those of one metric_jet read of the
    flattened batch, so PointOutsideBoxError is metric_jet's.  Each slot
    is a Python complex for a scalar point and a complex array of the
    points' shape otherwise.
    """
    if spec.n != 1:
        raise ValueError("defined for one-coordinate metrics only")
    z = np.asarray(points, dtype=complex)
    mj = metric_jet(spec, z.reshape(-1, 1))
    return tuple(_shaped(s, z.shape) for s in (mj.g, mj.dg, mj.dbarg, mj.ddbarg))


def _shaped(values: np.ndarray, shape: tuple):
    """One value per point, in C order, in the points' shape: a Python
    scalar for a scalar point."""
    return values.item() if shape == () else values.reshape(shape)


def gaussian_from_jet(g, gz, gzbar, gzz):
    """-(2/g) * (d2 log g / dz dzbar) from the slots of entry_jet_1d.

    The log derivative expands through the jet slots as
    g_zzbar/g - g_z g_zbar/g^2, so no log primitive is needed.  Equals the
    sectional value of the same metric at the same points.  numpy arrays
    round differently from scalars, so a point whose bits must match a
    batch's comes as a one-point array.  SingularPointError if any
    |g| <= DIV_EPS.
    """
    if np.any(np.abs(g) <= DIV_EPS):
        raise SingularPointError("metric value vanishes at the point")
    return (-2.0 * gzz / g ** 2 + 2.0 * gz * gzbar / g ** 3).real


def gaussian_curvature_1d(spec: dsl.MetricSpec, points):
    """Gaussian curvature of a one-coordinate metric at points: a float
    for a scalar point, else a float array of the points' shape.  One
    entry_jet_1d call reads the flattened batch, a scalar as a batch of
    one, and gaussian_from_jet evaluates it as arrays."""
    return _shaped(gaussian_from_jet(*entry_jet_1d(spec, np.ravel(points))),
                   np.shape(points))


def restrict(spec: dsl.MetricSpec, fixed: dict, name: str | None = None) -> dsl.MetricSpec:
    """The induced metric on a coordinate slice: freeze some coordinates
    to constants and renumber the rest.

    The fiber of a fibration over a base point is the slice of the
    assembled metric that fixes the base coordinates.  Keys of `fixed` are
    1-based coordinate indices; values must lie in the box slice.
    """
    if not fixed:
        return spec if name is None else dataclasses.replace(spec, name=name)
    for k, v in fixed.items():
        if not 1 <= k <= spec.n:
            raise ValueError(f"coordinate index z{k} out of range 1..{spec.n}")
        r = spec.box[k - 1]
        if not r.contains(complex(v)):
            raise ValueError(f"value {v} for z{k} lies outside the box slice")
    kept = [k for k in range(1, spec.n + 1) if k not in fixed]
    if not kept:
        raise ValueError("cannot fix every coordinate (dimension would be 0)")
    renumber = {k: pos + 1 for pos, k in enumerate(kept)}

    def replace(k: int):
        if k in fixed:
            return dsl.Lit(complex(fixed[k]))
        return dsl.Var(renumber[k])

    entries = tuple(
        tuple(dsl.map_vars(spec.entries[i - 1][j - 1], replace) for j in kept)
        for i in kept)
    box = tuple(spec.box[k - 1] for k in kept)
    if name is None:
        frozen = ",".join(f"z{k}={dsl.to_source(dsl.Lit(complex(fixed[k])))}"
                          for k in sorted(fixed))
        name = f"{spec.name}[{frozen}]"
    return dsl.MetricSpec(name, len(kept), entries, box)
