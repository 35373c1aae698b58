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
(_unit_curvature), and rescales them per lam (_at_scale), while assemble,
scan_chart and base_growth_check keep the assembled route, so
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
from .curvature import (check_tensor, curvature, gaussian_curvature_1d,
                        hsc_dirs, metric_jet, metric_norm2, quartic, restrict)
from .dsl import FibrationSpec, _c2pair, _require_positive, _vec_dict
from .positivity import (NEG_THRESHOLD, _affine_min_over_dirs, _min_over_dirs,
                         check_witness_budget, find_negative_witness, scan_chart)

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


def _unit_curvature(f: FibrationSpec, points):
    """(g, R) of the scale-1 metric blockdiag(fiber, base) at points
    (P, n), from one jet pass and one curvature pass, checked."""
    mj = metric_jet(f.metric(1.0, f.name), points)
    return mj.g, curvature(mj).R


def _at_scale(f: FibrationSpec, g1, R1, lam: float):
    """The metric and curvature tensor of assemble(f, lam), from the
    scale-1 pair of _unit_curvature by the identity of the module
    docstring: g[..., s:, s:] and R[..., s:, s:, :, :] are multiplied by
    the scale mu0 + lam, every other entry stays.  Runs the checks of
    curvature() (check_tensor) on the rescaled pair and refuses a scale
    that is not positive and finite like assemble."""
    scale = _scale(f, lam)
    g, R = g1.copy(), R1.copy()
    g[..., f.s:, f.s:] *= scale
    R[..., f.s:, f.s:, :, :] *= scale
    check_tensor(g, R)
    return g, R


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

    newton_passes counts the passes of the per-point solve and
    witness_point is the grid point with the largest threshold.
    thresholds holds each grid point's lam threshold, in the order of
    points; like ScanReport.per_point_min, both arrays are compare=False,
    which keeps them out of == and out of as_dict (dsl.report_dict), so
    that results compare by their reported fields.
    """

    lambda_star: float
    min_hsc_at_star: float
    history: tuple
    persistence: tuple
    seed: int
    positive_at_start: bool
    newton_passes: int
    witness_point: tuple
    points: np.ndarray = field(repr=False, compare=False)
    thresholds: np.ndarray = field(repr=False, compare=False)

    as_dict = dsl.report_dict


def _sampled_fiber_scans(f: FibrationSpec, count: int, rng, **scan_options):
    """Yield (base point, fiber metric, its scan) for count base points
    drawn one at a time from the base box; lazily, so an early stop draws
    no more.  The fiber metric is the slice of the assembled metric over
    the base point; its block does not depend on the scale, so the scale-1
    metric serves."""
    total = f.metric(1.0, f.name)
    for _ in range(count):
        c = dsl.box_sample(f.box[f.s:], rng, 1)[0]
        sub = restrict(total, {f.s + 1 + a: complex(z) for a, z in enumerate(c)})
        yield c, sub, scan_chart(sub, **scan_options)


def check_hypotheses(f: FibrationSpec, fiber_samples: int = 5, seed: int = 0,
                     grid_per_axis: int = 7, dirs: int = 16, starts: int = 2,
                     iters: int = 80) -> dict:
    """Sampled prechecks for the positivity search.

    Base: the base metric must have strictly positive minimal curvature
    on its chart.  Fiber: the induced fiber metric over each sampled base
    point must too.  Each minimum must exceed HYPOTHESIS_MARGIN (a NaN
    minimum does not); otherwise HypothesisViolationError names the
    failing side with a witness point.
    """
    _require_positive(fiber_samples=fiber_samples)
    scan_options = dict(grid_per_axis=grid_per_axis, dirs=dirs, seed=seed,
                        starts=starts, iters=iters)
    base_scan = scan_chart(f.base_spec(), **scan_options)
    if not base_scan.min_hsc > HYPOTHESIS_MARGIN:
        raise HypothesisViolationError("base", base_scan.min_hsc,
                                       _vec_dict(base_scan.witness_point))
    fiber_mins = []
    for c, _, sub_scan in _sampled_fiber_scans(
            f, fiber_samples, np.random.default_rng([seed, 17]), **scan_options):
        if not sub_scan.min_hsc > HYPOTHESIS_MARGIN:
            raise HypothesisViolationError(
                "fiber", sub_scan.min_hsc,
                {"base_point": _vec_dict(c),
                 "fiber_point": _vec_dict(sub_scan.witness_point)})
        fiber_mins.append(sub_scan.min_hsc)
    return {
        "base_min_hsc": base_scan.min_hsc,
        "fiber_min_hsc": min(fiber_mins),
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
    minima are evaluated on the scale-1 pair rescaled by _at_scale, each
    checked like curvature(): history holds (LAMBDA_START, its grid
    minimum) and, unless positive_at_start, (lambda_star, min_hsc_at_star);
    persistence holds the grid minima at 2*lambda_star and 4*lambda_star.

    For d = 2 every pass is the exact direction minimum.  For d >= 3 it is
    probe plus descent (dirs, starts, iters, seed), an upper bound, so the
    thresholds are only as good as descent.  bisections is ignored; it is
    accepted so that existing callers keep working.  perfbench's
    LamSearchDemo reads history and persistence and passes bisections=1
    in smoke mode, so their deletion belongs with a benchmark change.
    """
    if not skip_hypotheses:
        check_hypotheses(f, seed=seed)
    pts = dsl.box_grid(f.box, grid_per_axis)
    g1, R1 = _unit_curvature(f, pts)
    s = f.s
    R_fiber, R_base = R1.copy(), np.zeros_like(R1)
    R_fiber[:, s:, s:] = 0
    R_base[:, s:, s:] = R1[:, s:, s:]
    P = pts.shape[0]
    # the proof of failure at each point's best fiber direction, where B = 0
    fiber_min, fiber_dir = _min_over_dirs(g1[:, :s, :s], R1[:, :s, :s, :s, :s],
                                          dirs, starts, iters, seed, range(P))
    never = fiber_min <= 0
    capped = np.zeros(P, dtype=bool)
    wdir = np.zeros_like(pts)
    wdir[:, :s] = fiber_dir
    lam = np.full(P, LAMBDA_START)
    active = np.flatnonzero(~never)
    at_start, passes = False, 0
    solve = _affine_min_over_dirs(g1, R_fiber, R_base, dirs, starts, iters, seed)
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
        first = int(np.flatnonzero(never | capped)[0])
        raise ThresholdNotReachedError(
            f"{int(never.sum())} grid point(s) never positive and "
            f"{int(capped.sum())} not positive up to lam = {LAMBDA_MAX:g}; "
            f"first at point {_vec_dict(pts[first])}, "
            f"witness direction {_vec_dict(wdir[first])}")

    def scan_min(lam: float) -> float:
        g, R = _at_scale(f, g1, R1, lam)
        vals, _ = _min_over_dirs(g, R, dirs, starts, iters, seed,
                                 range(pts.shape[0]))
        return float(vals.min())

    history = [(LAMBDA_START, scan_min(LAMBDA_START))]
    if at_start:
        star = LAMBDA_START
    else:
        star = float(lam.max()) * (1.0 + STAR_MARGIN)
        history.append((star, scan_min(star)))
    return LambdaSearchResult(
        lambda_star=star, min_hsc_at_star=history[-1][1],
        history=tuple(history),
        persistence=tuple((k * star, scan_min(k * star)) for k in (2.0, 4.0)),
        seed=seed, positive_at_start=at_start, newton_passes=passes,
        witness_point=tuple(pts[int(np.argmax(lam))]),
        points=pts, thresholds=lam)


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
    dirs_sub = rng.standard_normal((trials, sub.n)) \
        + 1j * rng.standard_normal((trials, sub.n))

    pts_amb = np.zeros((trials, spec.n), dtype=complex)
    dirs_amb = np.zeros((trials, spec.n), dtype=complex)
    for col, k in enumerate(kept):
        pts_amb[:, k - 1] = pts_sub[:, col]
        dirs_amb[:, k - 1] = dirs_sub[:, col]
    for k, v in fixed.items():
        pts_amb[:, k - 1] = complex(v)

    mj_sub = metric_jet(sub, pts_sub)
    k_sub = hsc_dirs(mj_sub.g, curvature(mj_sub).R, dirs_sub[:, None, :])[:, 0]
    mj_amb = metric_jet(spec, pts_amb)
    k_amb = hsc_dirs(mj_amb.g, curvature(mj_amb).R, dirs_amb[:, None, :])[:, 0]

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
    xi[0, f.s:] = rng.standard_normal(f.m) + 1j * rng.standard_normal(f.m)
    g1 = metric_jet(assemble(f, 1.0), pts).g[0]
    xi = xi / np.sqrt(metric_norm2(g1, xi))[:, None]
    lams = list(GROWTH_LAMBDAS)
    nums = []
    for lam in lams:
        R = curvature(metric_jet(assemble(f, lam), pts)).R[0]
        nums.append(float(quartic(R, xi)[0].real))
    if min(nums) <= 0:
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
        depend on lam).
    (c) Still, for every lam in lam_values the assembled metric admits a
        direction of negative holomorphic sectional curvature.

    "ok" is the verdict on all three (fiber minima >= -1e-8, |K| <= 1e-9 at origins).

    A fiber_samples below 1, a lam the catalog rejects (KeyError) or a
    budget below the first witness stage (ValueError) is refused before
    any scan runs.
    """
    _require_positive(fiber_samples=fiber_samples)
    specs = [dsl.catalog(f"paper_G({dsl._fmt_real(float(lam))})")
             for lam in lam_values]
    f = paper_G_fibration()
    check_witness_budget(f.n, budget)
    scan_options = dict(grid_per_axis=11, dirs=2, seed=seed, starts=1, iters=1)
    base_scan = scan_chart(f.base_spec(), **scan_options)
    fibers = [{"base_point": _c2pair(c[0]),
               "min_hsc": rep.min_hsc,
               "origin_hsc": gaussian_curvature_1d(sub, 0j)}
              for c, sub, rep in _sampled_fiber_scans(
                  f, fiber_samples, np.random.default_rng([seed, 41]),
                  **scan_options)]
    witnesses = []
    for lam, spec in zip(lam_values, specs):
        w = find_negative_witness(spec, budget=budget, seed=seed)
        witnesses.append({
            "lam": float(lam),
            "witness": None if w is None else w.as_dict(),
        })
    fiber_min = min(fib["min_hsc"] for fib in fibers)
    origin_max = max(abs(fib["origin_hsc"]) for fib in fibers)
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
