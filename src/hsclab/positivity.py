"""Direction minimization of sectional values, chart scans, and witnesses.

The direction minimizer is chosen by the metric dimension d alone:

* d = 1 ("closed_form"): K does not depend on the direction, so it is
  evaluated at the metric-unit direction 1/sqrt(g_11).
* d = 2 ("exact"): in a g-orthonormal frame (xi = T eta with T = L^{-H}
  for conj(g) = L L^H) the rank-one matrix eta eta^H of a unit eta is
  (I + r.sigma)/2 for a point r of the Bloch sphere S^2 (Pauli matrices
  sigma), and K becomes the quadratic c + b.r + r^T A r on S^2.  Its
  global minimum is a trust-region boundary problem (More & Sorensen
  1983; Gander, Golub & von Matt 1989): one 3x3 eigendecomposition of A,
  then the secular equation sum beta_i^2/(lam_i - mu)^2 = 1 for mu below
  the smallest eigenvalue, in closed form in the hard case and by a few
  monotone Newton passes elsewhere.  No randomness is involved.
* d >= 3 ("descent"): rank-one matrices no longer fill a sphere.  A batch
  of random metric-unit directions measures the landscape, then
  multi-start projected coordinate descent (shrinking real/imaginary
  axis steps, renormalizing to metric norm 1 after every move, accepting
  only improvements) refines the minimum.  All randomness derives from
  per-point generator streams seeded as [seed, point_index, purpose], so
  reports are reproducible and adding directions or starts only extends
  the candidate set: minima are monotone non-increasing in dirs, starts,
  and iterations at a fixed seed.  The result is an upper bound.

On every path the reported per-point value is hsc_dirs at the returned
direction, so each value is attained by its direction and passes the
kernel's imaginary-part and vanishing-norm guards.  The one exception is
the d = 2 route of _affine_min_over_dirs, which serves the Newton passes
of warp.lambda_search: its values are read off the Bloch quadratic.

Per-point passes run over blocks of at most curvature.POINT_BLOCK points:
scan_chart and min_hsc_at_point take (g, R) from
curvature.curvature_at, and _min_over_dirs minimizes one block of
rows at a time (_min_over_rows, which can also build each block's rows
on the fly), passing each block its slice of the global point indices,
so descent's streams and the indices in error messages do not depend on
the block.  A scan of several charts of one dimension (_scan_stack,
whose one-chart case is scan_chart) runs one minimizer pass over their
points stacked, each under its own chart's grid index, so each chart's
values are bit for bit those of its own scan.  g, R and the per-point
outputs grow with the grid; the jets, the gate's temporaries, frames,
Bloch quadratics, probes and descent states are those of one block.
The d = 2 quadratics that _affine_min_over_dirs builds once per lam
search, a few hundred bytes per point, are not blocked.

Grid passes run on torus orbits where they can.  When dsl.grid_orbits
accepts a chart (every entry g_ij has torus charge e_j - e_i and every
box Rect is a square centred at 0), U = diag(e^{i theta}) is a
holomorphic isometry: g(Up) is unitarily congruent to g(p), R transforms
by U too, and K(Up, U xi) = K(p, xi).  Grid points on the same circles
|z_k| form one orbit, so scan_chart and warp.lambda_search evaluate the
first point of each orbit in grid order, under its own grid index, and
spread its value over the orbit (_grid_classes).  A representative's
value is bit for bit that of a full-grid pass at that point.  For
d <= 2 the other points of its orbit differ from their full-grid values
only by rounding; for d >= 3 they take its descent value, an upper
bound like theirs, where a full-grid pass ran their own streams.  The condition number and pair-symmetry defect that
check_tensor gates on are the same along an orbit, so gating the
representatives decides as gating the grid.  A chart the detector
refuses runs every grid point, with no copy.

ScanReport and NegativeWitness reach JSON through dsl.report_dict: their
compare=False per-point arrays are not reported.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import dsl
from .curvature import _point_blocks, curvature_at, hsc_dirs, metric_norm2

NEG_THRESHOLD = -1e-8
DEFAULT_GRID = 9
DEFAULT_DIRS = 64
DEFAULT_STARTS = 8
DEFAULT_ITERS = 200
STEP_INIT = 0.25
STEP_MIN = 1e-7


def _complex_dirs(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    # one draw call so a longer batch extends, not reshuffles, a short one
    arr = rng.standard_normal((count, 2 * d))
    return arr[:, :d] + 1j * arr[:, d:]


def _unit(g: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Normalize dirs (..., m, d) to metric norm 1 under g (..., d, d)."""
    return dirs / np.sqrt(np.maximum(metric_norm2(g, dirs), 1e-300))[..., None]


def _descend(g: np.ndarray, R: np.ndarray, dirs0: np.ndarray, iters: int):
    """Lockstep coordinate descent on K over the metric unit sphere.

    g (N, d, d), R (N, d, d, d, d), dirs0 (N, d).  Each row descends
    independently; returns (values, dirs) with values non-increasing over
    iterations.
    """
    N, d = dirs0.shape
    dirs = _unit(g, dirs0[:, None, :])[:, 0, :]
    val = hsc_dirs(g, R, dirs[:, None])[:, 0]
    step = np.full(N, STEP_INIT)
    # proposal slot 0 is the current direction so ties never move
    moves = np.zeros((4 * d, d), dtype=complex)
    for a in range(d):
        moves[2 * a, a] = 1.0
        moves[2 * a + 1, a] = -1.0
        moves[2 * d + 2 * a, a] = 1.0j
        moves[2 * d + 2 * a + 1, a] = -1.0j
    # rows whose step has shrunk below STEP_MIN are frozen and leave the
    # working set; rows never interact, so this changes nothing else
    active = np.arange(N)
    for _ in range(iters):
        if active.size == 0:
            break
        cur = dirs[active][:, None, :]
        props = np.concatenate(
            [cur, cur + step[active][:, None, None] * moves[None]], axis=1)
        props = _unit(g[active], props)
        vals = hsc_dirs(g[active], R[active], props)
        best = np.argmin(vals, axis=1)
        rows = np.arange(active.size)
        improved = vals[rows, best] < val[active]
        dirs[active] = np.where(improved[:, None], props[rows, best], dirs[active])
        val[active] = np.where(improved, vals[rows, best], val[active])
        new_step = np.where(improved, step[active], step[active] * 0.5)
        step[active] = new_step
        active = active[new_step >= STEP_MIN]
    return val, dirs


def minimizer_for(d: int) -> str:
    """Name of the direction minimizer that runs for a d x d metric."""
    return {1: "closed_form", 2: "exact"}.get(d, "descent")


def _orthonormal_frame(g, point_indices):
    """T (P, d, d) with T = L^{-H} for conj(g) = L L^H (d <= 2), so that
    xi = T eta has metric norm |eta|.

    Closed form, no LAPACK: l11 = sqrt(Re cg_00), l21 = cg_10 / l11 and
    l22 = sqrt(Re cg_11 - |l21|^2) from the lower triangle of cg = conj(g),
    as in a Cholesky factorization, give
    L^{-1} = [[1/l11, 0], [-l21/l11/l22, 1/l22]] ([[1/l11]] at d = 1).
    Raises ArithmeticError naming the first point where a pivot square
    Re cg_00 or Re cg_11 - |l21|^2 is not positive (NaN included), that
    is, where g is not positive definite.
    """
    cg = np.conjugate(g)
    Linv = np.zeros_like(cg)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sqrt(p) > 0 exactly where the pivot square p > 0; NaN fails
        l11 = np.sqrt(cg[:, 0, 0].real)
        Linv[:, 0, 0] = 1.0 / l11
        good = l11 > 0
        if g.shape[-1] == 2:
            l21 = cg[:, 1, 0] / l11
            l22 = np.sqrt(cg[:, 1, 1].real - (l21.real ** 2 + l21.imag ** 2))
            Linv[:, 1, 0] = -l21 / l11 / l22
            Linv[:, 1, 1] = 1.0 / l22
            good &= l22 > 0
    if not good.all():
        row = int(np.argmin(good))
        raise ArithmeticError(
            f"metric is not positive definite at point index {int(point_indices[row])}")
    return np.conjugate(np.swapaxes(Linv, -1, -2))


# Eigenvalues within SECULAR_ULPS ulps of lam_1 (at the scale max(|lam|,
# |beta|)) form one cluster.  A point's Newton solve ends once its step is
# below SECULAR_ULPS ulps of lam_1 - mu or its residual |y| - 1 is below
# SECULAR_ULPS ulps.
SECULAR_ULPS = 8
# A cap on Newton passes; monotone quadratic convergence needs far fewer.
SECULAR_NEWTON_PASSES = 64


def _sphere_quadratic(T, R):
    """K over unit eta as (1, r)^T Q (1, r) on the Bloch sphere: Q (P, 4, 4)
    real symmetric, with c = Q[0, 0], b = 2 Q[0, 1:], A = Q[1:, 1:].

    W = T (x) conj(T) maps vec(eta eta^H) to vec(xi xi^H) (row-major vec),
    and vec((I + r.sigma)/2) = Pauli @ (1, r) / 2 with the columns
    vec(I) = (1, 0, 0, 1), vec(sigma_1) = (0, 1, 1, 0),
    vec(sigma_2) = (0, -i, i, 0), vec(sigma_3) = (1, 0, 0, -1).  The
    basis change B = W @ Pauli is written out column by column, equal to
    the matrix product, with no per-point BLAS call.
    """
    P = T.shape[0]
    W = (T[:, :, None, :, None] * np.conjugate(T)[:, None, :, None, :]).reshape(P, 4, 4)
    B = np.empty_like(W)  # vec(xi xi^H) = B @ (1, r) / 2
    B[..., 0] = W[..., 0] + W[..., 3]
    B[..., 1] = W[..., 1] + W[..., 2]
    B[..., 2] = 1j * (W[..., 2] - W[..., 1])
    B[..., 3] = W[..., 0] - W[..., 3]
    H = np.swapaxes(B, -1, -2) @ R.reshape(P, 4, 4) @ B
    # K = 2 vec(X)^T M vec(X) = (1, r)^T (H / 2) (1, r); real by pair symmetry
    return 0.25 * (H + np.swapaxes(H, -1, -2)).real


def _secular_step(beta, gap, t):
    """One Newton pass on 1/|y| - 1 in the shift t = lam_1 - mu.

    y_i = -beta_i / (gap_i + t) with gap = lam - lam_1; a zero gap at t = 0
    (the cluster at lam_1 with vanishing beta) contributes no term.  With
    s = |y|^2 >= 1 the step s (sqrt(s) - 1) / sum_i y_i^2 / (gap_i + t) is
    >= 0 and stays at or below the root (More & Sorensen 1983).  Returns
    (new t, sqrt(s) - 1 at the old t).
    """
    d = gap + t[:, None]
    y2 = np.zeros_like(d)
    np.divide(beta, d, out=y2, where=d > 0)
    y2 **= 2
    s = y2.sum(-1)
    ds = np.divide(y2, d, out=np.zeros_like(d), where=d > 0).sum(-1)
    residual = np.sqrt(s) - 1.0
    return t + s * residual / ds, residual


def _sphere_minimizer(Q):
    """Unit r (P, 3) minimizing c + b.r + r^T A r from Q of _sphere_quadratic.

    With A = V diag(lam) V^T and beta = V^T b / 2, the minimizer is
    r = V y, y_i = -beta_i / (lam_i - mu), where mu <= lam_1 solves the
    secular equation s(mu) = sum beta_i^2 / (lam_i - mu)^2 = 1.
    Eigenvalues within a few ulps of lam_1 are one cluster at lam_1.  In
    the (near-)hard case, where beta vanishes on that cluster to rounding
    and the far terms give s(lam_1) <= 1, the root is mu = lam_1 in closed
    form and the cluster components of y are 0.  Every other point starts
    at mu = lam_1 - |beta_cluster| / 2, where s >= 1, and runs Newton on the
    concave 1/|y(mu)| - 1 (_secular_step), which falls monotonically to
    the root from there, clamped at lam_1 - |beta|, until its step is below
    a few ulps of lam_1 - mu or |y| - 1 is at rounding level, where the
    step only follows the rounding of s.  y_1 is then filled to unit norm
    with the sign of -beta_1, which is exact in the hard case (beta_1 = 0,
    mu = lam_1) and avoids dividing by a vanishing lam_1 - mu near it.
    """
    lam, V = np.linalg.eigh(Q[:, 1:, 1:])
    beta = np.einsum("pki,pk->pi", V, Q[:, 0, 1:])
    bnorm = np.linalg.norm(beta, axis=-1)
    ulps = SECULAR_ULPS * np.finfo(float).eps
    tol = ulps * np.maximum(np.abs(lam).max(-1), bnorm)
    gap = lam - lam[:, :1]
    cluster = gap <= tol[:, None]
    gap[cluster] = 0.0
    bc = np.linalg.norm(np.where(cluster, beta, 0.0), axis=-1)
    far = np.divide(beta, gap, out=np.zeros_like(gap), where=~cluster)
    hard = (bc <= tol) & ((far ** 2).sum(-1) <= 1.0)
    # t = lam_1 - mu: 0 in the hard case, else the Newton start
    t = np.where(hard, 0.0, 0.5 * bc)
    active = np.flatnonzero(~hard)
    for _ in range(SECULAR_NEWTON_PASSES):
        if active.size == 0:
            break
        old = t[active]
        new, residual = _secular_step(beta[active], gap[active], old)
        new = np.minimum(new, bnorm[active])
        t[active] = new
        active = active[(np.abs(new - old) > ulps * new) & (np.abs(residual) > ulps)]
    d = gap + t[:, None]
    y = np.zeros_like(lam)
    np.divide(-beta[:, 1:], d[:, 1:], out=y[:, 1:], where=d[:, 1:] > 0)
    rest = 1.0 - (y[:, 1:] ** 2).sum(-1)
    y[:, 0] = np.where(beta[:, 0] > 0, -1.0, 1.0) * np.sqrt(np.maximum(rest, 0.0))
    r = np.einsum("pij,pj->pi", V, y)
    return r / np.linalg.norm(r, axis=-1, keepdims=True)


def _bloch_to_unit(r):
    """A unit eta (P, 2) with eta eta^H = (I + r.sigma)/2, read off the
    column of that matrix with the larger diagonal entry."""
    off = 0.5 * (r[:, 0] + 1j * r[:, 1])
    top = np.sqrt(0.5 * (1.0 + np.abs(r[:, 2])))
    eta = np.empty((r.shape[0], 2), dtype=complex)
    upper = r[:, 2] >= 0
    eta[:, 0] = np.where(upper, top, np.conjugate(off) / top)
    eta[:, 1] = np.where(upper, off / top, top)
    return eta


def _exact_min(g, R, point_indices):
    """Global direction minimum for d <= 2; returns (values, dirs)."""
    T = _orthonormal_frame(g, point_indices)
    if g.shape[-1] == 1:
        xi = T[:, :, 0]
    else:
        eta = _bloch_to_unit(_sphere_minimizer(_sphere_quadratic(T, R)))
        xi = np.einsum("pij,pj->pi", T, eta)
    return hsc_dirs(g, R, xi[:, None, :])[:, 0], xi


def _min_over_dirs(g, R, dirs, starts, iters, seed, point_indices):
    """Per-point direction minimum for stacked points, by minimizer_for(d).

    g (P, d, d), R (P, d⁴); returns (values (P,), dirs (P, d)).  dirs,
    starts, iters and seed steer only the d >= 3 descent, which needs
    dirs + starts >= 1 (else ValueError).  The points run in
    curvature._point_blocks blocks, each with its slice of the global
    point_indices, so descent's per-point streams and the point index of
    _orthonormal_frame's error do not depend on the block.
    """
    return _min_over_rows(lambda rows: (g[rows], R[rows]), g.shape[-1],
                          dirs, starts, iters, seed, point_indices)


def _min_over_rows(rows_at, d, dirs, starts, iters, seed, point_indices):
    """_min_over_dirs on rows that rows_at(rows) builds one block at a
    time: (g, R) of the rows of a curvature._point_blocks slice, for
    len(point_indices) rows of a d x d metric in all.  A caller whose
    rows are derived from smaller arrays (the rescaled pairs of
    warp.lambda_search) holds one block of them, not all."""
    descent = minimizer_for(d) == "descent"
    if descent and dirs + starts == 0:
        raise ValueError("descent needs at least one probe direction or start")
    count = len(point_indices)
    values = np.empty(count)
    xi = np.empty((count, d), dtype=complex)
    for rows in _point_blocks(count):
        g, R = rows_at(rows)
        if descent:
            values[rows], xi[rows] = _probe_and_descend(
                g, R, dirs, starts, iters, seed, point_indices[rows])
        else:
            values[rows], xi[rows] = _exact_min(g, R, point_indices[rows])
    return values, xi


def _affine_min_over_dirs(g, R_fixed, R_rate, dirs, starts, iters, seed,
                          point_indices):
    """Direction minima of the affine tensor family R_fixed + c * R_rate
    over g-unit directions, for g (P, d, d) fixed and per-point scales c,
    at the points of global indices point_indices (an array).

    Returns solve(c, rows) -> (values, slopes, dirs) on the points rows
    (an index array into the P points) at their scales c (len(rows),):
    the minimum m of K over g-unit xi, the slope K(R_rate) at the
    minimizing xi, and xi.  For minimizer_for(d) == "exact" (d = 2) the
    frame of g and the Bloch quadratics Q_fixed and Q_rate of both
    tensors are built once, here: _sphere_quadratic is linear in R, so
    the quadratic at c is Q_fixed + c * Q_rate, and m and the slope are
    its value and Q_rate's at the minimizing r (the Bloch form carries
    the factor 2 of hsc_dirs).  Any other d runs _min_over_dirs on the
    assembled tensor, with point_indices[rows] seeding the descent, and
    reads the slope through hsc_dirs.
    """
    if minimizer_for(g.shape[-1]) != "exact":
        def solve(c, rows):
            R = R_fixed[rows] + c[:, None, None, None, None] * R_rate[rows]
            m, xi = _min_over_dirs(g[rows], R, dirs, starts, iters, seed,
                                   point_indices[rows])
            return m, hsc_dirs(g[rows], R_rate[rows], xi[:, None])[:, 0], xi
        return solve

    T = _orthonormal_frame(g, point_indices)
    Q_fixed, Q_rate = _sphere_quadratic(T, R_fixed), _sphere_quadratic(T, R_rate)

    def solve(c, rows):
        Q = Q_fixed[rows] + c[:, None, None] * Q_rate[rows]
        r = _sphere_minimizer(Q)
        r1 = np.concatenate([np.ones((r.shape[0], 1)), r], axis=1)
        xi = np.einsum("pij,pj->pi", T[rows], _bloch_to_unit(r))
        return (np.einsum("pi,pij,pj->p", r1, Q, r1),
                np.einsum("pi,pij,pj->p", r1, Q_rate[rows], r1), xi)
    return solve


def _probe_and_descend(g, R, dirs, starts, iters, seed, point_indices):
    """Best of random probes and multi-start descent (an upper bound)."""
    P, d = g.shape[0], g.shape[-1]
    probe = np.empty((P, dirs, d), dtype=complex)
    start_dirs = np.empty((P, starts, d), dtype=complex)
    for row, pidx in enumerate(point_indices):
        probe[row] = _complex_dirs(np.random.default_rng([seed, int(pidx), 0]), dirs, d)
        start_dirs[row] = _complex_dirs(np.random.default_rng([seed, int(pidx), 1]), starts, d)
    probe = _unit(g, probe)
    probe_vals = hsc_dirs(g, R, probe)

    flat_g = np.repeat(g, starts, axis=0)
    flat_R = np.repeat(R, starts, axis=0)
    ref_vals, ref_dirs = _descend(flat_g, flat_R, start_dirs.reshape(P * starts, d), iters)
    ref_vals = ref_vals.reshape(P, starts)
    ref_dirs = ref_dirs.reshape(P, starts, d)

    cand_vals = np.concatenate([probe_vals, ref_vals], axis=1)
    cand_dirs = np.concatenate([probe, ref_dirs], axis=1)
    best = np.argmin(cand_vals, axis=1)
    rows = np.arange(P)
    return cand_vals[rows, best], cand_dirs[rows, best]


@dataclass(frozen=True)
class ScanReport:
    """One chart scan.  == compares the reported fields only: the
    per-point arrays `points` and `per_point_min` (the CSV rows) stay out
    of it and out of repr.  points_scanned counts the grid points and
    orbits_evaluated the points computed: one per torus orbit on a chart
    dsl.grid_orbits accepts, else every grid point."""

    name: str
    n: int
    min_hsc: float
    witness_point: tuple
    witness_dir: tuple
    points_scanned: int
    orbits_evaluated: int
    dirs_per_point: int
    starts: int
    iters: int
    grid_per_axis: int
    margin: float
    seed: int
    minimizer: str
    points: np.ndarray = field(repr=False, compare=False)
    per_point_min: np.ndarray = field(repr=False, compare=False)

    as_dict = dsl.report_dict


def scan_to_csv(report: ScanReport) -> str:
    """One row per scanned point: index, re/im of each coordinate, min K."""
    return points_to_csv(report.points, report.per_point_min, "min_hsc")


def points_to_csv(points, values, column: str) -> str:
    """One row per point of points (P, n): index, re/im of each
    coordinate, then values (P,) under the header column."""
    n = points.shape[1]
    cols = ["index"]
    for k in range(1, n + 1):
        cols += [f"re{k}", f"im{k}"]
    cols.append(column)
    table = np.empty((points.shape[0], 2 * n + 1))
    table[:, 0:2 * n:2] = points.real
    table[:, 1:2 * n:2] = points.imag
    table[:, -1] = values
    # Each cell is repr of a Python float, computed once per distinct bit
    # pattern in its column (a grid column holds a few); keying on the
    # bits keeps -0.0 apart from 0.0.
    cells = []
    for col in table.T:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        cells.append(text[inverse].tolist())
    lines = [",".join(cols)]
    lines += [f"{idx}," + ",".join(row) for idx, row in enumerate(zip(*cells))]
    return "\n".join(lines) + "\n"


def min_hsc_at_point(spec: dsl.MetricSpec, point):
    """Direction minimum at one point, (value, metric-unit witness
    direction), with the scan's default budgets and seed 0."""
    g, R = curvature_at(spec, np.asarray(point, dtype=complex).reshape(1, -1))
    vals, wdirs = _min_over_dirs(g, R, DEFAULT_DIRS, DEFAULT_STARTS, DEFAULT_ITERS,
                                 0, [0])
    return float(vals[0]), wdirs[0]


def _grid_classes(spec: dsl.MetricSpec, per_axis: int, pts=None):
    """The box grid of spec and the part of it a per-point pass evaluates:
    (pts, sub, idx, inverse) with pts (P, n) the grid, sub = pts[idx] the
    points to evaluate, idx their grid indices in grid order and inverse
    the map back, so that values[inverse] holds one value per grid point.
    On a chart dsl.grid_orbits accepts, idx holds one representative per
    torus orbit; on any other every point, as sub = pts, idx = range(P)
    and inverse = slice(None), so nothing is copied.  pts, when given,
    is that grid, dsl.box_grid(spec.box, per_axis), built once for specs
    on one box."""
    if pts is None:
        pts = dsl.box_grid(spec.box, per_axis)
    orbits = dsl.grid_orbits(spec, per_axis)
    if orbits is None:
        return pts, pts, range(pts.shape[0]), slice(None)
    reps, inverse = orbits
    return pts, pts[reps], reps, inverse


def scan_chart(spec: dsl.MetricSpec, box=None, grid_per_axis: int = DEFAULT_GRID,
               dirs: int = DEFAULT_DIRS, seed: int = 0,
               starts: int = DEFAULT_STARTS, iters: int = DEFAULT_ITERS) -> ScanReport:
    """Direction-minimize on a full grid over all 2n real axes of the box:
    spec.box, or `box` in its place.

    On a torus-invariant chart (dsl.grid_orbits, module docstring) the
    jets, the tensor, its checks and the minimizer run on the first point
    of each grid orbit, under its own grid index, so its value and
    direction are bit for bit those of a full-grid pass there, and the
    rest of the orbit copies its value.  Any other chart runs every grid
    point.  points, per_point_min and points_scanned cover the whole
    grid; orbits_evaluated counts the points computed.

    dirs, starts, iters and seed steer only the descent minimizer (d >= 3),
    which needs dirs + starts >= 1 (else ValueError); the report names the
    minimizer that ran.  The winner is the first index of np.argmin over
    the per-point values, in grid order (lexicographic in
    (re_1, im_1, re_2, ...)); it is always an evaluated point.  Points
    that are tied mathematically but lie on different orbits usually
    differ in the last ulp, so which of them wins follows rounding, not
    grid order.
    """
    if box is not None:
        spec = dataclasses.replace(spec, box=box)
    return _scan_stack([spec], grid_per_axis, dirs, seed, starts, iters)[0]


def _joined(parts):
    """parts[0] when it is the only part, else the parts concatenated."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _scan_stack(specs, grid_per_axis, dirs, seed, starts, iters) -> list:
    """One ScanReport per spec of specs, in order, each bit for bit that
    of scan_chart(spec, ...); scan_chart is the case of one spec.

    The specs must share one dimension.  Each spec gets its own grid
    classes (_grid_classes, one box_grid shared by the specs on a box),
    curvature_at jets and tensor checks, one spec after the other, so
    their errors come in spec order.  Then one _min_over_dirs pass runs
    on the evaluated points of all specs stacked, each point under its
    own spec's grid index, so descent's streams are those of a scan of
    its spec alone.
    """
    classes, gs, Rs, grids = [], [], [], {}
    for spec in specs:
        if spec.box not in grids:
            grids[spec.box] = dsl.box_grid(spec.box, grid_per_axis)
        classes.append(_grid_classes(spec, grid_per_axis, grids[spec.box]))
        g, R = curvature_at(spec, classes[-1][1])
        gs.append(g)
        Rs.append(R)
    g, R = _joined(gs), _joined(Rs)
    del gs, Rs  # the stacked copies replace the parts
    vals, wdirs = _min_over_dirs(g, R, dirs, starts, iters, seed,
                                 _joined([idx for _, _, idx, _ in classes]))
    reports, lo = [], 0
    for spec, (pts, _, idx, inverse) in zip(specs, classes):
        v, w = vals[lo:lo + len(idx)], wdirs[lo:lo + len(idx)]
        lo += len(idx)
        best = int(np.argmin(v))
        reports.append(ScanReport(
            name=spec.name, n=spec.n, min_hsc=float(v[best]),
            witness_point=tuple(pts[idx[best]]), witness_dir=tuple(w[best]),
            points_scanned=int(pts.shape[0]), orbits_evaluated=len(idx),
            dirs_per_point=dirs, starts=starts,
            iters=iters, grid_per_axis=grid_per_axis, margin=abs(float(v[best])),
            seed=seed, minimizer=minimizer_for(spec.n), points=pts,
            per_point_min=v[inverse]))
    return reports


@dataclass(frozen=True)
class NegativeWitness:
    value: float
    point: tuple
    direction: tuple
    points_scanned: int
    threshold: float
    seed: int
    stage: int

    as_dict = dsl.report_dict


_WITNESS_STAGES = ((5, 32, 4, 120), (9, 64, 8, 200), (13, 96, 8, 200))


def check_witness_budget(n: int, budget: int) -> None:
    """Raise ValueError when budget is below the first witness stage's
    points on an n-coordinate chart."""
    first = _WITNESS_STAGES[0][0] ** (2 * n)
    if budget < first:
        raise ValueError(f"budget {budget} is below the {first} points of the "
                         f"first witness stage for {n} coordinates")


def find_negative_witness(spec: dsl.MetricSpec, budget: int = 50000,
                          seed: int = 0, threshold: float = NEG_THRESHOLD):
    """Search scans of increasing resolution for K < threshold.

    A stage runs only if its grid fits in what is left of `budget` points,
    so at most `budget` points are scanned; a budget below the first
    stage's size raises ValueError.  Returns a NegativeWitness or None
    once no further stage fits.  None is an absence of evidence, not a
    positivity proof.
    """
    check_witness_budget(spec.n, budget)
    scanned = 0
    for stage, (grid, dirs, starts, iters) in enumerate(_WITNESS_STAGES):
        if scanned + grid ** (2 * spec.n) > budget:
            break
        rep = scan_chart(spec, grid_per_axis=grid, dirs=dirs,
                         seed=seed + stage, starts=starts, iters=iters)
        scanned += rep.points_scanned
        if rep.min_hsc < threshold:
            return NegativeWitness(
                value=rep.min_hsc, point=rep.witness_point,
                direction=rep.witness_dir, points_scanned=scanned,
                threshold=threshold, seed=seed, stage=stage)
    return None
