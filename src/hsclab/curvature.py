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
scaling of xi.  The numerator is evaluated once, in `quartic`, and the
denominator once, in `metric_norm2`.  The numerator is a sesquilinear
form on the symmetric square Sym^2(C^d), Hermitian when R is pair
symmetric:

    sum R[i,j,k,l] xi_i conj(xi_j) xi_k conj(xi_l)
      = sum_{p,q} u_p A[p,q] conj(u_q)

in the D = d(d+1)/2 coordinates u_p = xi_i xi_k (p = (i, k), i <= k),
where A[p, q] sums R[a, b, c, e] over the orderings (a, c) of p and
(b, e) of q.  `quartic` gathers A^T from R once per call and evaluates
the form over blocks of POINT_BLOCK directions, the directions on the
last axis.  The block is fixed for memory, not speed:
one unblocked pass over 1e4 directions at d = 5 holds 5.1 MB of
temporaries (0.67 MB blocked, both traced), and the split-bound
acceptance suite would peak at 9.6 MB instead of 1.58 MB.

POINT_BLOCK caps points the same way.  curvature_at is the one route
from a metric and its points to (g, R): it reads the jets (one
dsl.eval_jet pass of the derivative tape over the spec's whole entry
matrix) and the tensor one block of at most POINT_BLOCK consecutive
points at a time (_point_blocks) and checks the whole batch at the end.
positivity._min_over_dirs and the statistics of check_tensor run over
the same blocks, so their temporaries are those of one block whatever
the grid; only g, R and the per-point outputs grow with it.  A point's
arithmetic does not depend on the other points of its batch, so every
result is bit for bit that of one unblocked pass.  An exactly singular
metric is turned into a NaN tensor in one place, curvature(), whose
failed solve gives the whole block NaN; check_tensor then names its
infinite condition number.  metric_jet and curvature are its layers,
kept for readers of the jets alone (entry_jet_1d) and for the
finite-difference oracle, which runs curvature on its own refined jets.
Each jet route reads a whole metric in one call (dsl.eval_jet of the
entries, fd_jet of dsl.metric_values): batch, entry, derivative axes.

Each blocked loop holds one block at a time: _point_blocks yields its
slices one by one, and quartic and curvature_at drop a block's
temporaries before the next block forms its own, so the peak of a pass
is one block's, not two.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import dsl
from .wirtinger import DIV_EPS, FD_STEP, SingularPointError, fd_jet

COND_LIMIT = 1e12
PAIR_SYMMETRY_TOL = 1e-10
IMAG_TOL = 1e-10
POINT_BLOCK = 1024


class IllConditionedError(ArithmeticError):
    """Entry matrix condition number exceeds COND_LIMIT at some point."""


class PointOutsideBoxError(ValueError):
    pass


class MetricJet(NamedTuple):
    """The Jet2 of a metric's entry matrix, under metric names.

    Arrays carry a leading batch shape: g is (..., n, n), dg and dbarg are
    (..., n, n, n) with the derivative index last, ddbarg is
    (..., n, n, n, n) indexed [i, j, k, l] for the z_k, zbar_l mixed
    derivative of entry (i, j).
    """

    g: np.ndarray
    dg: np.ndarray
    dbarg: np.ndarray
    ddbarg: np.ndarray


@dataclass(frozen=True)
class CurvatureTensor:
    R: np.ndarray  # (..., n, n, n, n) indexed [i, j, k, l]


def _in_box(spec: dsl.MetricSpec, points) -> np.ndarray:
    """points (..., n) as a complex array; ValueError unless the last axis
    holds n coordinates, and PointOutsideBoxError names the first point
    outside the box or not finite."""
    pts = np.asarray(points, dtype=complex)
    if pts.shape[-1:] != (spec.n,):
        raise ValueError(f"points must have {spec.n} coordinates")
    flat = pts.reshape(-1, spec.n)
    outside = np.flatnonzero(~dsl.box_contains(spec.box, flat))
    if outside.size:
        row = flat[outside[0]]
        raise PointOutsideBoxError(f"point {row.tolist()} outside box of {spec.name}")
    return pts


def metric_jet(spec: dsl.MetricSpec, points) -> MetricJet:
    """Evaluate all entry jets at points (..., n); PointOutsideBoxError
    names the first point outside the box or not finite.  All n^2 entries
    share one dsl.eval_jet pass."""
    return MetricJet(*dsl.eval_jet(spec.entries, spec.n, _in_box(spec, points)))


def _point_blocks(count: int) -> Iterator[slice]:
    """Yield slices of at most POINT_BLOCK consecutive rows (points or
    directions) that cover range(count), one at a time, so the loop holds
    O(1) memory whatever the count; one empty slice when count is 0, so
    that a pass over an empty batch still runs once."""
    for lo in range(0, max(count, 1), POINT_BLOCK):
        yield slice(lo, lo + POINT_BLOCK)


def metric_jet_from_fd(spec: dsl.MetricSpec, points, step: float = FD_STEP) -> MetricJet:
    """Same arrays as metric_jet but via the finite-difference oracle:
    one fd_jet call on the entry matrix (dsl.metric_values)."""
    pts = np.asarray(points, dtype=complex)
    if pts.shape[-1:] != (spec.n,):
        raise ValueError(f"points must have {spec.n} coordinates")
    return MetricJet(*fd_jet(partial(dsl.metric_values, spec), pts, step=step))


def pair_symmetry_defect(R: np.ndarray) -> float:
    """max |R[i,j,k,l] - conj(R[j,i,l,k])|, the realness obstruction; 0 on
    an empty batch."""
    mirror = np.conjugate(np.swapaxes(np.swapaxes(R, -4, -3), -2, -1))
    return float(np.abs(R - mirror).max(initial=0.0))


def _tensor_scale(R: np.ndarray) -> float:
    """max(1, max |R|), the scale of the pair-symmetry rule."""
    return float(np.abs(R).max(initial=1.0))


def _pair_rule(defect: float, scale: float) -> bool:
    """The pair-symmetry rule on a defect and a scale; False on a NaN."""
    return bool(defect <= PAIR_SYMMETRY_TOL * scale)


def pair_symmetric(R: np.ndarray) -> bool:
    """The pair-symmetry rule: the defect of R is at most PAIR_SYMMETRY_TOL
    times max(1, max |R|).  False when R holds a NaN or an infinity."""
    return _pair_rule(pair_symmetry_defect(R), _tensor_scale(R))


def _cond(g: np.ndarray) -> np.ndarray:
    """2-norm condition number s_max / s_min of each matrix of g (..., n, n):
    inf where g is singular, NaN where it cannot be computed (a NaN entry).

    n = 1 gives 1, inf where g = 0.  n = 2 is the closed form
    (F + sqrt(F^2 - 4 D^2)) / (2 D) in F = |g|_F^2 = s1^2 + s2^2 and
    D = |det g| = s1 s2, since F^2 - 4 D^2 = (s1^2 - s2^2)^2; it is
    evaluated in q = 2 D / F, so F^2 never forms, and holds while F and D
    stay in the double range (entries of modulus about 1e-154 to 1e154).
    n >= 3 runs np.linalg.cond, an SVD per matrix; one that does not
    converge is NaN.
    """
    n = g.shape[-1]
    if n >= 3:
        try:
            return np.linalg.cond(g)
        except np.linalg.LinAlgError:
            return np.full(g.shape[:-2], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 1:
            s = np.abs(g[..., 0, 0])
            return np.where(s == 0, np.inf, s / s)
        F = (g.real ** 2 + g.imag ** 2).sum((-2, -1))
        D = np.abs(g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0])
        q = 2.0 * D / F
        # rounding can leave 1 - q^2 a few ulps below 0; NaN stays NaN
        root = np.sqrt(np.maximum((1.0 - q) * (1.0 + q), 0.0))
        return np.where(D == 0, np.inf, (1.0 + root) / q)


def _tensor_stats(g: np.ndarray, R: np.ndarray) -> np.ndarray:
    """What the rule of check_tensor reads from a batch: its worst
    condition number (_cond, at least 1), its pair-symmetry defect and
    _tensor_scale.  Each is a maximum over points, so np.max over the
    stats of the parts of a batch gives those of the whole, and a NaN in
    any part stays NaN."""
    return np.array([np.max(_cond(g), initial=1.0), pair_symmetry_defect(R),
                     _tensor_scale(R)])


def check_tensor(g: np.ndarray, R: np.ndarray) -> None:
    """The checks of curvature() on a metric g (..., n, n) and its tensor
    R (..., n, n, n, n): IllConditionedError when a condition number of g
    (_cond: closed form for n <= 2, an SVD for n >= 3) exceeds COND_LIMIT
    or is not finite, a NaN one from a NaN entry included; ArithmeticError
    when R breaks pair_symmetric.  An empty batch passes.  The statistics
    are taken over _point_blocks blocks of the flattened batch, and the
    messages print the whole batch's maxima."""
    n = g.shape[-1]
    g = g.reshape((-1, n, n))
    R = R.reshape((-1,) + (n,) * 4)
    worst, defect, scale = np.max(
        [_tensor_stats(g[rows], R[rows]) for rows in _point_blocks(g.shape[0])], axis=0)
    if not np.isfinite(worst) or worst > COND_LIMIT:
        raise IllConditionedError(f"metric condition number {worst:.3e} exceeds {COND_LIMIT:.0e}")
    if not _pair_rule(defect, scale):
        raise ArithmeticError(f"curvature pair-symmetry defect {defect:.3e} "
                              f"exceeds {PAIR_SYMMETRY_TOL:.0e} * max(1, max |R|)")


def curvature(jet, check: bool = True) -> CurvatureTensor:
    """Curvature components from the four slots of a metric's jet (a
    MetricJet, or the Jet2 of an entry matrix), read by position; see
    the module docstring.  With check, check_tensor runs on the result.

    The package's only singular-metric fallback: where the solve fails,
    g is exactly singular at some point of the batch, and the whole
    tensor is NaN; the infinite condition number there fails
    check_tensor, run here with check and by the caller without."""
    g, dg, dbarg, ddbarg = jet
    eye = np.broadcast_to(np.eye(g.shape[-1], dtype=complex), g.shape)
    try:
        ginv = np.linalg.solve(g, eye)
    except np.linalg.LinAlgError:
        ginv = np.full(g.shape, np.nan, dtype=complex)
    R = -ddbarg + np.einsum("...pq,...ipk,...qjl->...ijkl", ginv, dg, dbarg)
    if check:
        check_tensor(g, R)
    return CurvatureTensor(R)


@cache
def _sym_basis(d: int) -> tuple:
    """The symmetric-square coordinates of quartic, built once per d.

    pairs lists the D = d(d+1)/2 pairs p = (i, k), i <= k, of
    u_p = xi_i xi_k, in np.triu_indices order.  Entry R[a, b, c, e]
    belongs to A^T[q, p] for the pair p of {a, c} and the pair q of
    {b, e}, so each entry of A^T sums one, two or four entries of R,
    and each entry of R lands in exactly one of them.  order lists the
    flat positions in R.reshape(d^4) grouped by their entry of A^T, the
    groups in the C order of A^T (D, D) and C order within a group, and
    starts holds where each group begins: A^T is one np.add.reduceat.
    Every call shares the arrays, so they are read-only.
    """
    pairs = tuple((i, k) for i in range(d) for k in range(i, d))
    pair = np.empty((d, d), dtype=np.intp)
    for p, (i, k) in enumerate(pairs):
        pair[i, k] = pair[k, i] = p
    a, b, c, e = np.indices((d,) * 4).reshape(4, -1)
    target = pair[b, e] * len(pairs) + pair[a, c]
    order = np.argsort(target, kind="stable")
    starts = np.searchsorted(target[order], np.arange(len(pairs) ** 2))
    for arr in (order, starts):
        arr.flags.writeable = False
    return order, starts, pairs


def quartic(R: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """R(xi, conj xi, xi, conj xi) per direction: R (..., d, d, d, d),
    dirs (..., m, d) -> (..., m), batch shapes broadcast.

    The quartic is the form sum_{p,q} u_p A[p,q] conj(u_q) of the module
    docstring, in u_p = xi_i xi_k (i <= k, D = d(d+1)/2 coordinates).
    A^T (..., D, D) is gathered once per call from R through the cached
    _sym_basis(d), each entry of R read once; no symmetry of R is
    assumed, so a tensor that is not pair symmetric keeps its imaginary
    part.  The directions are read along the last axis (swapaxes(dirs)),
    contiguous for a column-major draw such as dsl._complex_normal's.
    Each _point_blocks block of at most POINT_BLOCK directions forms
    u (..., D, block) and v = A^T @ u, and writes the sums of
    v * conj(u) over the D axis into one preallocated output.  Each block
    drops its u and v before the next block forms its own, so the peak
    memory of a long direction list is that of one block: 0.67 MB traced
    beyond the inputs for 1e4 directions at d = 5, where two blocks' u
    and v at once reach 0.90 MB.  m <= POINT_BLOCK runs the loop once.
    """
    d = dirs.shape[-1]
    m = dirs.shape[-2]
    order, starts, pairs = _sym_basis(d)
    D, batch = len(pairs), R.shape[:-4]
    At = np.add.reduceat(np.take(R.reshape(batch + (d ** 4,)), order, axis=-1),
                         starts, axis=-1).reshape(batch + (D, D))
    cols = np.swapaxes(dirs, -1, -2)
    out = np.empty(np.broadcast_shapes(batch, dirs.shape[:-2]) + (m,),
                   dtype=np.result_type(R, dirs))
    for rows in _point_blocks(m):
        block = cols[..., rows]
        u = np.empty(block.shape[:-2] + (D,) + block.shape[-1:], dtype=block.dtype)
        for p, (i, k) in enumerate(pairs):
            np.multiply(block[..., i, :], block[..., k, :], out=u[..., p, :])
        v = At @ u
        v *= np.conjugate(u, out=u)
        out[..., rows] = v.sum(-2)
        del u, v  # the next block's u and v must not meet these
    return out


def metric_norm2(g: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """|xi|_g^2 per direction: g (..., d, d), dirs (..., m, d) -> (..., m)."""
    return (dirs @ g * np.conjugate(dirs)).sum(-1).real


def hsc_dirs(g: np.ndarray, R: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Batched K over m directions per point: g (...,d,d), R (...,d,d,d,d),
    dirs (..., m, d) -> (..., m); a (1, d) dirs broadcasts over points.

    Raises ArithmeticError when a numerator's imaginary part exceeds
    IMAG_TOL times max(1, |R|_F * |xi|_2^4); SingularPointError when a
    direction's metric norm is at most DIV_EPS.  The scale bounds the
    sum of the moduli of quartic's summands u_p A[p, q] conj(u_q) to
    within a factor 2: by Cauchy-Schwarz that sum is at most
    |A|_F |u|_2^2, where |A|_F <= 2 |R|_F (each entry of A sums at most
    four entries of R, each entry of R is used once; the ratio is at most
    1.67 over the tensors selftest evaluates) and
    |u|_2^2 = sum_{i<=k} |xi_i|^2 |xi_k|^2 <= |xi|_2^4.  So the rounding
    of a large sum that cancels stays far below the threshold.
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
    """(g, R) at points (..., n): g (..., n, n) and R (..., n, n, n, n),
    with the values and checks of curvature(metric_jet(spec, points)).

    The coordinate count and the box are checked on all points first;
    then the jets and the tensor are evaluated one _point_blocks block of
    the flattened batch at a time into preallocated arrays, each block's
    jet dropped before the next block's jets are read, and
    check_tensor runs on the whole batch at the end.  A block where g is
    exactly singular gets curvature()'s NaN tensor, the only
    singular-metric fallback, and its infinite condition number fails
    the check.  So the errors, their order and their messages are those
    of the unblocked pair, except that the SingularPointError of a
    divisor in the entries' derivative tape prints the smallest modulus
    of its block.
    """
    pts = _in_box(spec, points)
    n = spec.n
    batch, pts = pts.shape[:-1], pts.reshape(-1, n)
    g = np.empty(pts.shape[:1] + (n, n), dtype=complex)
    R = np.empty(pts.shape[:1] + (n,) * 4, dtype=complex)
    for rows in _point_blocks(pts.shape[0]):
        jet = dsl.eval_jet(spec.entries, n, pts[rows])
        g[rows] = jet[0]
        R[rows] = curvature(jet, check=False).R
        del jet  # the next block's jets must not meet this block's
    check_tensor(g, R)
    return g.reshape(batch + (n, n)), R.reshape(batch + (n,) * 4)


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
    return tuple(_shaped(s, z.shape) for s in metric_jet(spec, z.reshape(-1, 1)))


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


def restrict(spec: dsl.MetricSpec, fixed: dict) -> dsl.MetricSpec:
    """The induced metric on a coordinate slice: freeze some coordinates
    to constants and renumber the rest.

    The fiber of a fibration over a base point is the slice of the
    assembled metric that fixes the base coordinates; warp reads its
    metric and tensor as the fiber blocks of the assembled pair.  Keys
    of `fixed` are 1-based coordinate indices; values must lie in the
    box slice.
    """
    if not fixed:
        return spec
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
    frozen = ",".join(f"z{k}={dsl.to_source(dsl.Lit(complex(fixed[k])))}"
                      for k in sorted(fixed))
    return dsl.MetricSpec(f"{spec.name}[{frozen}]", len(kept), entries, box)
