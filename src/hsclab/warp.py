"""Warped product metrics on holomorphic fibrations.

A fibration (dsl.FibrationSpec) is a coordinate chart with s fiber
coordinates followed by m base coordinates.  Given a fiber metric block
(which may depend on the base coordinates: the warp) and a base metric,
the assembled family

    g(lam) = blockdiag(fiber, (mu0 + lam) * base)

is studied as lam grows: growth of the curvature numerator along base
directions, curvature decrease on coordinate submanifolds, and the
smallest lam making the holomorphic sectional curvature positive at
every grid point of the chart (lambda_search).

The family is affine in its scale c = mu0 + lam, and so is its curvature
tensor R[i,j,k,l] (curvature module docstring).  The off-diagonal blocks
are zero and the base block c * base depends on the base coordinates only,
so g^{-1} = blockdiag(fiber^{-1}, base^{-1} / c) and every entry jet of a
mixed (fiber, base) pair vanishes.  Hence, exactly:

    R[fiber, fiber, k, l]  does not depend on c,
    R[base, base, k, l]    = c * (its value at c = 1),
    R[i, j, k, l]          = 0 for a mixed pair (i, j).

In the base block both -d2g and dg . g^{-1} . dbarg carry one factor c.
lambda_search evaluates the jets and the tensor once, at c = 1
(curvature_at on f.metric(1.0)), and rescales them per lam
(_rescaled_rows, checked per lam by _at_scale), while scan_chart and
base_growth_check read each assembled metric on its own, so
base_growth_check checks the same linear growth independently.

So along a direction xi the numerator at scale c is A(xi) + c * B(xi),
with B from the base rows alone.  lambda_search solves for each grid
point's threshold by Newton on the concave minimum over xi of that
numerator, from the scale-1 tensor.  For d = 2 the numerator over
g1-unit directions is a quadratic on the Bloch sphere (positivity
module docstring) that is affine in c too, so each pass reads the
minimum and its slope off two quadratics built once per search; for
d >= 3 a pass runs descent on the rescaled tensor and reads both
through hsc_dirs.  Base rows have no fiber k or l entries, so B is
the base block's own numerator: where the base curvature is positive,
B >= 0 and positivity at a point's threshold persists for every larger
lam; where a fiber direction has a numerator <= 0, no lam makes the
point positive.

Every bundled fibration is torus invariant (dsl.grid_orbits): z_k ->
e^{i theta_k} z_k is a holomorphic isometry of the assembled metric at
every scale, so a point's threshold depends only on |z_1|, ..., |z_n|.
lambda_search then evaluates one grid point per torus orbit, like
positivity.scan_chart, whose base scan check_hypotheses runs; a chart
the detector refuses is searched point by point.

The fiber over a base point c, the slice fixing the base coordinates at
c (curvature.restrict), has at a fiber point p the metric and tensor
g[:s, :s] and R[:s, :s, :s, :s] of the assembled pair at (p, c), at every
scale.  check_hypotheses and the counterexample report read their
sampled fibers so (_sampled_fiber_minima), and lambda_search its proof
of failure.

The search refuses charts that fail its standing hypotheses (positive
base curvature, positive fiber curvature on sampled fibers), and then
any grid point proved never positive; the bundled counterexample family
paper_G_fibration() shows why: its fiber curvature vanishes at one point
of every fiber, and no lam rescues positivity there.  Both bundled
fibrations, the assembled metric (FibrationSpec.metric) and the
fibration file form are defined once, in dsl; this module holds the
numerics only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsl
from .curvature import (check_tensor, curvature_at, gaussian_curvature_1d, hsc_dirs,
                        metric_jet, metric_norm2, quartic, restrict)
from .dsl import FibrationSpec, _c2pair, _require_positive, _vec_dict
from .positivity import (DEFAULT_DIRS, DEFAULT_ITERS, DEFAULT_STARTS, NEG_THRESHOLD,
                         _affine_min_over_dirs, _grid_classes, _min_over_dirs,
                         _min_over_rows, check_witness_budget, find_negative_witness,
                         scan_chart)

LAMBDA_START = 1e-3
LAMBDA_MAX = float(2 ** 30)
# A point's Newton solve in lambda_search ends once its step is at most
# NEWTON_RTOL of its iterate; lambda_star is the largest per-point
# threshold times 1 + STAR_MARGIN.
NEWTON_RTOL = 1e-13
STAR_MARGIN = 1e-9
HYPOTHESIS_MARGIN = 1e-8
# The lams of base_growth_check.
GROWTH_LAMBDAS = (1e2, 1e3, 1e4)


# ---------------------------------------------------------------------------
# Fibration charts


def warp_demo_fibration() -> FibrationSpec:
    """Bundled example: one warped fiber coordinate over a positively
    curved one-dimensional base; assembling it at mu0=0, lam=1 reproduces
    the catalog metric warp_demo."""
    return dsl.WARP_DEMO_FIBRATION


def paper_G_fibration() -> FibrationSpec:
    """Bundled counterexample: the catalog's paper_G(lam) assembled at lam,
    with base paper_base; its fiber over a base point c is
    restrict(catalog("paper_G(1)"), {2: c})."""
    return dsl.PAPER_G_FIBRATION


def _scale(f: FibrationSpec, lam: float) -> float:
    """The base block's factor mu0 + lam; ValueError unless positive and
    finite."""
    scale = f.mu0 + float(lam)
    if not 0 < scale < np.inf:
        raise ValueError("mu0 + lam must be positive and finite")
    return scale


def assemble(f: FibrationSpec, lam: float) -> dsl.MetricSpec:
    """The warped product metric at parameter lam:
    blockdiag(fiber, (mu0 + lam) * base), see FibrationSpec.metric."""
    scale = _scale(f, lam)
    name = f.name if (scale == 1.0 and f.mu0 == 0.0) else \
        f"{f.name}@{dsl._fmt_real(float(lam))}"
    return f.metric(scale, name)


def _rescaled_rows(f: FibrationSpec, g1, R1, scales):
    """rows -> (g, R) on the stacked pairs of the scales in scales: row r
    is point r % P of the scale-1 pair curvature_at(f.metric(1.0, f.name),
    points) of P points, at scale scales[r // P].  By the identity of the
    module docstring, g[:, s:, s:] and R[:, s:, s:, :, :] of each row are
    multiplied by its scale and every other entry stays.  A call builds
    the rows of one slice only."""
    P, scales = g1.shape[0], np.asarray(scales, dtype=float)

    def rows_at(rows):
        r = np.arange(*rows.indices(len(scales) * P))
        c = scales[r // P]
        g, R = g1[r % P], R1[r % P]
        g[:, f.s:, f.s:] *= c[:, None, None]
        R[:, f.s:, f.s:, :, :] *= c[:, None, None, None, None]
        return g, R
    return rows_at


def _at_scale(f: FibrationSpec, g1, R1, lam: float):
    """The metric and curvature tensor of assemble(f, lam) at the points of
    the scale-1 pair (P, n, n) and (P, n, n, n, n), rescaled by
    _rescaled_rows.  Runs the checks of curvature_at (check_tensor) on
    the rescaled pair and refuses a scale that is not positive and finite
    like assemble."""
    g, R = _rescaled_rows(f, g1, R1, [_scale(f, lam)])(slice(None))
    check_tensor(g, R)
    return g, R


def _grid_minima(f: FibrationSpec, g1, R1, lams, dirs, starts, iters, seed,
                 point_indices) -> list:
    """The grid minimum of K at each lam of lams, on the scale-1 pair g1, R1
    at the points of grid indices point_indices.  First each lam's
    rescaled pair is checked by _at_scale, in lam order, one pair at a
    time; then one positivity._min_over_rows pass minimizes the pairs of
    all lams stacked, built one block of rows at a time by
    _rescaled_rows, every point under its own grid index, so each lam's
    minimum is bit for bit that of _min_over_dirs on its own pair."""
    for lam in lams:
        _at_scale(f, g1, R1, lam)
    scales = [_scale(f, lam) for lam in lams]
    vals, _ = _min_over_rows(_rescaled_rows(f, g1, R1, scales), f.n, dirs, starts,
                             iters, seed, np.tile(point_indices, len(scales)))
    return [float(v) for v in vals.reshape(len(scales), -1).min(axis=1)]


# ---------------------------------------------------------------------------
# Positivity search in lam


class HypothesisViolationError(RuntimeError):
    """A standing hypothesis of the positivity search failed.

    side is "fiber" or "base"; witness locates the failure.
    """

    def __init__(self, side: str, value: float, witness):
        self.side = side
        self.value = value
        self.witness = witness
        super().__init__(
            f"{side} curvature hypothesis fails: min {value:.6g} at {witness}")


class ThresholdNotReachedError(RuntimeError):
    """A grid point of lambda_search is never positive up to LAMBDA_MAX."""


@dataclass(frozen=True)
class LambdaSearchResult:
    """The exact grid threshold of lambda_search and the checks around it.

    newton_passes counts the passes of the per-point solve,
    orbits_evaluated the points it ran on (one per torus orbit, or every
    grid point), and witness_point is the first grid point with the
    largest threshold.  thresholds holds each grid point's lam threshold,
    in the order of points; like ScanReport.per_point_min, both arrays
    are compare=False, which keeps them out of == and out of as_dict
    (dsl.report_dict), so that results compare by their reported fields.
    """

    lambda_star: float
    min_hsc_at_star: float
    history: tuple
    persistence: tuple
    seed: int
    positive_at_start: bool
    newton_passes: int
    orbits_evaluated: int
    witness_point: tuple
    points: np.ndarray = field(repr=False, compare=False)
    thresholds: np.ndarray = field(repr=False, compare=False)

    as_dict = dsl.report_dict


def _fiber(f: FibrationSpec, c) -> dsl.MetricSpec:
    """The fiber over the base point c (m,), as a slice of the scale-1
    assembled metric; the fiber block does not depend on the scale."""
    return restrict(f.metric(1.0, f.name),
                    {f.s + 1 + a: complex(z) for a, z in enumerate(c)})


def _sampled_fiber_minima(f: FibrationSpec, count: int, rng, grid_per_axis: int,
                          seed: int, dirs: int = DEFAULT_DIRS,
                          starts: int = DEFAULT_STARTS, iters: int = DEFAULT_ITERS):
    """(base points (count, m), minima (count,), witness fiber points
    (count, s)) of the fibers over count base points, drawn one
    box_sample call at a time and scanned on the grid of f.box[:s]: each
    is scan_chart's on its slice up to rounding, witness and NaN included.

    The fiber points are the grid classes of the first fiber.  A frozen
    base coordinate has charge 0, so the detector judges every fiber
    alike, and on an accepted one (p, c) -> (U p, c) is an isometry of
    the assembled metric.  One _min_over_rows pass minimizes the fiber
    blocks of curvature_at(f.metric(1.0, f.name), .) at every (fiber
    point, base point) pair, evaluated and gated one block at a time."""
    total, s = f.metric(1.0, f.name), f.s
    base_points = np.concatenate([dsl.box_sample(f.box[s:], rng, 1)
                                  for _ in range(count)])
    pts, sub, idx, _ = _grid_classes(_fiber(f, base_points[0]), grid_per_axis)
    idx = np.asarray(idx)
    at = np.empty((count, len(idx), f.n), dtype=complex)
    at[:, :, :s] = sub
    at[:, :, s:] = base_points[:, None, :]
    at = at.reshape(-1, f.n)

    def fiber_rows(rows):
        g, R = curvature_at(total, at[rows])
        return g[:, :s, :s], R[:, :s, :s, :s, :s]

    vals = _min_over_rows(fiber_rows, s, dirs, starts, iters, seed,
                          np.tile(idx, count))[0].reshape(count, -1)
    best = np.argmin(vals, axis=1)
    return base_points, vals[np.arange(count), best], pts[idx[best]]


def check_hypotheses(f: FibrationSpec, fiber_samples: int = 5, seed: int = 0,
                     grid_per_axis: int = 7, dirs: int = 16, starts: int = 2,
                     iters: int = 80) -> dict:
    """Sampled prechecks for the positivity search.

    Base: the base metric must have strictly positive minimal curvature
    on its chart.  Fiber: the induced fiber metric over each sampled base
    point must too.  Each minimum must exceed HYPOTHESIS_MARGIN (a NaN
    minimum does not); otherwise HypothesisViolationError names the
    failing side with a witness point.

    The base scan (scan_chart) runs first.  The fibers are then scanned
    together (_sampled_fiber_minima), gated by check_tensor on the
    assembled metric at scale 1, and judged in draw order; an error on a
    fiber drawn after the first failing one comes first.
    """
    _require_positive(fiber_samples=fiber_samples)
    scan_options = dict(grid_per_axis=grid_per_axis, dirs=dirs, seed=seed,
                        starts=starts, iters=iters)
    base_scan = scan_chart(f.base_spec(), **scan_options)
    if not base_scan.min_hsc > HYPOTHESIS_MARGIN:
        raise HypothesisViolationError("base", base_scan.min_hsc,
                                       _vec_dict(base_scan.witness_point))
    points, minima, witnesses = _sampled_fiber_minima(
        f, fiber_samples, np.random.default_rng([seed, 17]), **scan_options)
    for c, value, w in zip(points, minima, witnesses):
        if not value > HYPOTHESIS_MARGIN:
            raise HypothesisViolationError(
                "fiber", float(value),
                {"base_point": _vec_dict(c), "fiber_point": _vec_dict(w)})
    return {
        "base_min_hsc": base_scan.min_hsc,
        "fiber_min_hsc": float(minima.min()),
        "fiber_samples": fiber_samples,
        "seed": seed,
    }


def lambda_search(f: FibrationSpec, bisections: int = 6,
                  grid_per_axis: int = 5, dirs: int = 24, starts: int = 4,
                  iters: int = 120, seed: int = 0,
                  skip_hypotheses: bool = False) -> LambdaSearchResult:
    """Smallest lam at which every grid point has strictly positive minimal
    curvature, from one Newton solve per grid point.

    Fix the scale-1 metric g1 as the normalization.  At scale c = mu0 + lam
    the numerator along a g1-unit xi is A(xi) + c*B(xi), where B comes from
    the base rows R[..., s:, s:, :, :] of the scale-1 tensor (module
    docstring), so a point's value m(c) = min over xi of that numerator is
    concave in c, with slope B(xi*) at the minimizing xi* (Dinkelbach 1967).
    m <= 0 with B(xi*) <= 0 proves the point never positive, since a
    concave m then stays <= 0; the proof is tried first at each point's
    best fiber direction, where B = 0, which checks the fiber hypothesis
    at every grid point.  The other points start at LAMBDA_START; each
    pass computes m, B(xi*) and xi* on the points still active
    (positivity._affine_min_over_dirs) and steps c <- c - m / B(xi*), so
    the iterates rise monotonically to the point's threshold.  For d = 2
    the frame of g1 and the Bloch-sphere quadratics of the fiber and base
    rows are built once per search, and m and B(xi*) are values of the
    quadratic at the pass's scale and of the base rows' quadratic at the
    minimizing sphere point; for d >= 3 both come through hsc_dirs.  A
    point leaves when it is positive, when its step is at most
    NEWTON_RTOL of its iterate, when it is proved never positive, or when
    its iterate passes LAMBDA_MAX.  Points of the last two kinds raise
    ThresholdNotReachedError naming the first of them in grid order and
    its witness direction.

    lambda_star is the largest per-point threshold times 1 + STAR_MARGIN,
    or LAMBDA_START when every point is positive there (positive_at_start:
    then it only bounds the threshold from above).  Only the reported
    minima are evaluated on the scale-1 pair rescaled to their lams:
    history holds (LAMBDA_START, its grid minimum) and, unless
    positive_at_start, (lambda_star, min_hsc_at_star); persistence holds
    the grid minima at 2*lambda_star and 4*lambda_star.  _grid_minima
    first checks each lam's rescaled pair like curvature_at (_at_scale),
    in lam order, and then minimizes all of them in one stacked pass
    whose rows are built one block at a time, so a later lam's check
    can fail before an earlier lam is minimized.

    On a torus-invariant chart (dsl.grid_orbits) the jets, the fiber
    proof, the Newton passes and the four checked grid minima run on one
    representative per grid orbit, the first point of the orbit in grid
    order, under its own grid index (descent's streams included), so its
    threshold is bit for bit that of a full-grid search there.  U =
    diag(e^{i theta}) is an isometry at every scale, so the threshold,
    the condition number and the pair-symmetry defect are the same along
    an orbit, and the checks on the representatives decide as on the
    grid.  points and thresholds cover the whole grid, each point taking
    its representative's threshold; orbits_evaluated counts the
    representatives (every grid point on a chart the detector refuses).
    ThresholdNotReachedError counts grid points; the first failing grid
    point is the first failing representative, since an orbit's first
    point comes first.

    For d = 2 every pass is the exact direction minimum.  For d >= 3 it is
    probe plus descent (dirs, starts, iters, seed), an upper bound, so the
    thresholds are only as good as descent.  The hypothesis scans run
    check_hypotheses at its own grid and descent budgets, not at the
    search's; only seed is passed on.  bisections is ignored; it is
    accepted so that existing callers keep working.  perfbench's
    LamSearchDemo reads history and persistence and passes bisections=1
    in smoke mode, so their deletion belongs with a benchmark change.
    """
    if not skip_hypotheses:
        check_hypotheses(f, seed=seed)
    total = f.metric(1.0, f.name)
    pts, sub, idx, inverse = _grid_classes(total, grid_per_axis)
    g1, R1 = curvature_at(total, sub)
    s = f.s
    R_fiber, R_base = R1.copy(), np.zeros_like(R1)
    R_fiber[:, s:, s:] = 0
    R_base[:, s:, s:] = R1[:, s:, s:]
    P = len(idx)
    # the proof of failure at each point's best fiber direction, where B = 0
    fiber_min, fiber_dir = _min_over_dirs(g1[:, :s, :s], R1[:, :s, :s, :s, :s],
                                          dirs, starts, iters, seed, idx)
    never = fiber_min <= 0
    capped = np.zeros(P, dtype=bool)
    wdir = np.zeros_like(sub)
    wdir[:, :s] = fiber_dir
    lam = np.full(P, LAMBDA_START)
    active = np.flatnonzero(~never)
    at_start, passes = False, 0
    solve = _affine_min_over_dirs(g1, R_fiber, R_base, dirs, starts, iters, seed,
                                  np.asarray(idx))
    while active.size:
        passes += 1
        old = lam[active]
        m, slope, xi = solve(f.mu0 + old, active)
        wdir[active] = xi
        if passes == 1:
            at_start = not never.any() and bool(np.all(m > 0))
        rising = (m <= 0) & (slope > 0)
        with np.errstate(over="ignore"):
            new = np.where(rising, old - m / np.where(rising, slope, 1.0), old)
        never[active[(m <= 0) & ~rising]] = True
        capped[active[new > LAMBDA_MAX]] = True
        lam[active] = new
        active = active[rising & (new <= LAMBDA_MAX)
                        & (new - old > NEWTON_RTOL * new)]
    if never.any() or capped.any():
        # the first failing point in grid order is the first failing
        # representative, its orbit's first point; the counts are of grid points
        first = int(np.flatnonzero(never | capped)[0])
        raise ThresholdNotReachedError(
            f"{int(never[inverse].sum())} grid point(s) never positive and "
            f"{int(capped[inverse].sum())} not positive up to lam = {LAMBDA_MAX:g}; "
            f"first at point {_vec_dict(pts[idx[first]])}, "
            f"witness direction {_vec_dict(wdir[first])}")

    star = LAMBDA_START if at_start else float(lam.max()) * (1.0 + STAR_MARGIN)
    lams = [LAMBDA_START] + ([] if at_start else [star]) + [2.0 * star, 4.0 * star]
    reported = tuple(zip(lams, _grid_minima(f, g1, R1, lams, dirs, starts, iters,
                                            seed, idx)))
    history, persistence = reported[:-2], reported[-2:]
    return LambdaSearchResult(
        lambda_star=star, min_hsc_at_star=history[-1][1],
        history=history, persistence=persistence,
        seed=seed, positive_at_start=at_start, newton_passes=passes,
        orbits_evaluated=P, witness_point=tuple(pts[idx[int(np.argmax(lam))]]),
        points=pts, thresholds=lam[inverse])


# ---------------------------------------------------------------------------
# Curvature decrease on coordinate submanifolds


def submanifold_decreasing_check(spec: dsl.MetricSpec, fixed: dict,
                                 trials: int = 1000, seed: int = 0) -> dict:
    """Holomorphic sectional curvature does not increase when restricting
    to a coordinate slice: for tangent directions of the slice, the
    restricted curvature is at most the ambient one (slack 1e-9 relative).
    A NaN margin counts as a violation.
    """
    _require_positive(trials=trials)
    sub = restrict(spec, fixed)
    kept = [k for k in range(1, spec.n + 1) if k not in fixed]
    rng = np.random.default_rng([seed, 23])
    pts_sub = dsl.box_sample(sub.box, rng, trials)
    dirs_sub = dsl._complex_normal(rng, (trials, sub.n))

    pts_amb = np.zeros((trials, spec.n), dtype=complex)
    dirs_amb = np.zeros((trials, spec.n), dtype=complex)
    for col, k in enumerate(kept):
        pts_amb[:, k - 1] = pts_sub[:, col]
        dirs_amb[:, k - 1] = dirs_sub[:, col]
    for k, v in fixed.items():
        pts_amb[:, k - 1] = complex(v)

    k_sub = hsc_dirs(*curvature_at(sub, pts_sub), dirs_sub[:, None, :])[:, 0]
    k_amb = hsc_dirs(*curvature_at(spec, pts_amb), dirs_amb[:, None, :])[:, 0]

    scale = np.maximum(1.0, np.abs(k_amb))
    margin = (k_amb - k_sub) / scale
    return {
        "trials": trials, "seed": seed,
        "violations": int(np.sum(~(margin >= -1e-9))),
        "worst_margin": float(margin.min()),
        "fixed": {str(k): _c2pair(complex(v)) for k, v in fixed.items()},
    }


# ---------------------------------------------------------------------------
# Growth of the curvature numerator along base directions


def base_growth_check(f: FibrationSpec, seed: int = 0) -> dict:
    """The curvature numerator along a fixed base direction grows at
    least linearly in lam (log-log slope >= 0.8 over GROWTH_LAMBDAS).

    The point is drawn from the box.  The direction has zero fiber
    components, random base components, and is normalized once against
    the lam = 1 metric; it is deliberately not renormalized per lam, so
    the statement is about the raw numerator of the assembled family.
    """
    rng = np.random.default_rng([seed, 31])
    point = dsl.box_sample(f.box, rng, 1)[0]
    pts = point.reshape(1, f.n)
    xi = np.zeros((1, f.n), dtype=complex)
    xi[0, f.s:] = dsl._complex_normal(rng, (f.m,))
    g1 = metric_jet(assemble(f, 1.0), pts).g[0]
    xi = xi / np.sqrt(metric_norm2(g1, xi))[:, None]
    lams = list(GROWTH_LAMBDAS)
    nums = []
    for lam in lams:
        _, R = curvature_at(assemble(f, lam), pts)
        nums.append(float(quartic(R[0], xi)[0].real))
    if not np.min(nums) > 0:  # a NaN anywhere fails too
        raise ArithmeticError("curvature numerator not positive along the base")
    slope = float(np.polyfit(np.log(lams), np.log(nums), 1)[0])
    return {
        "point": _vec_dict(point),
        "lam_values": lams, "numerators": nums,
        "slope": slope, "ok": slope >= 0.8, "seed": seed,
    }


# ---------------------------------------------------------------------------
# The bundled counterexample family


def family_negativity_report(lam_values=(0.5, 1.0, 5.0, 50.0),
                             fiber_samples: int = 20, seed: int = 0,
                             budget: int = 20000) -> dict:
    """Full numerical story of the counterexample family paper_G(lam),
    assembled from paper_G_fibration().

    (a) The base metric has strictly positive curvature on its chart.
    (b) Induced fiber metrics have nonnegative curvature, vanishing at
        the fiber origin, on sampled fibers (the fiber block does not
        depend on lam), scanned as in check_hypotheses; the origin
        values are gaussian_curvature_1d on each slice, a second route.
    (c) Still, for every lam in lam_values the assembled metric admits a
        direction of negative holomorphic sectional curvature.

    "ok" is the verdict on all three (fiber minima >= -1e-8, |K| <= 1e-9 at
    origins); a NaN minimum or origin value anywhere makes it False.

    A fiber_samples below 1, a lam the catalog rejects (KeyError) or a
    budget below the first witness stage (ValueError) is refused before
    any scan runs.
    """
    _require_positive(fiber_samples=fiber_samples)
    specs = [dsl.catalog(f"paper_G({dsl._fmt_real(float(lam))})")
             for lam in lam_values]
    f = paper_G_fibration()
    check_witness_budget(f.n, budget)
    base_scan = scan_chart(f.base_spec(), grid_per_axis=11, seed=seed)
    points, minima, _ = _sampled_fiber_minima(
        f, fiber_samples, np.random.default_rng([seed, 41]), grid_per_axis=11, seed=seed)
    fibers = [{"base_point": _c2pair(c[0]),
               "min_hsc": float(value),
               "origin_hsc": gaussian_curvature_1d(_fiber(f, c), 0j)}
              for c, value in zip(points, minima)]
    witnesses = []
    for lam, spec in zip(lam_values, specs):
        w = find_negative_witness(spec, budget=budget, seed=seed)
        witnesses.append({
            "lam": float(lam),
            "witness": None if w is None else w.as_dict(),
        })
    fiber_min = float(np.min([fib["min_hsc"] for fib in fibers]))
    origin_max = float(np.max(np.abs([fib["origin_hsc"] for fib in fibers])))
    all_negative = all(w["witness"] is not None
                       and w["witness"]["value"] < NEG_THRESHOLD for w in witnesses)
    return {
        "base": {"min_hsc": base_scan.min_hsc,
                 "positive": base_scan.min_hsc > 0},
        "fibers": fibers,
        "fiber_min": fiber_min,
        "fiber_origin_max_abs": origin_max,
        "witnesses": witnesses,
        "all_negative": all_negative,
        "seed": seed,
        "ok": bool(base_scan.min_hsc > 0 and fiber_min >= -1e-8
                   and origin_max <= 1e-9 and all_negative),
    }
