"""Warped product metrics on holomorphic fibrations.

A fibration (dsl.FibrationSpec) is a coordinate chart with s fiber
coordinates followed by m base coordinates.  Given a fiber metric block
(which may depend on the base coordinates: the warp) and a base metric,
the assembled family

    g(lam) = blockdiag(fiber, (mu0 + lam) * base)

is studied as lam grows: inverse block asymptotics, growth of the
curvature numerator along base directions, curvature decrease on
coordinate submanifolds, and a search (certify.threshold_search) for the
smallest lam making the holomorphic sectional curvature positive on the chart.

The family is affine in its scale c = mu0 + lam, and so is its curvature
tensor R[i,j,k,l] (curvature module docstring).  The off-diagonal blocks
are zero and the base block c * base depends on the base coordinates only,
so g^{-1} = blockdiag(fiber^{-1}, base^{-1} / c) and every entry jet of a
mixed (fiber, base) pair vanishes.  Hence, exactly:

    R[fiber, fiber, k, l]  does not depend on c,
    R[base, base, k, l]    = c * (its value at c = 1),
    R[i, j, k, l]          = 0 for a mixed pair (i, j).

In the base block both -d2g and dg . g^{-1} . dbarg carry one factor c.
warped_curvature evaluates the jets and the tensor once, at c = 1, and
rescales them per lam; lambda_search runs on it, while assemble,
scan_chart and base_growth_check keep the assembled route, so
base_growth_check checks the same linear growth independently.

The search refuses charts that fail its standing hypotheses (positive
base curvature, positive fiber curvature on sampled fibers); the bundled
counterexample family paper_G_fibration() shows why: its fiber curvature
vanishes at one point of every fiber, and no lam rescues positivity there.
Both bundled fibrations are defined once, in dsl.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from . import dsl
from .certify import threshold_search
from .curvature import (check_tensor, curvature, gaussian_curvature_1d,
                        hsc_dirs, metric_jet, metric_norm2, quartic, restrict)
from .dsl import FibrationSpec
from .positivity import (NEG_THRESHOLD, _c2pair, _min_over_dirs,
                         check_witness_budget, find_negative_witness,
                         scan_chart)

LAMBDA_START = 1e-3
LAMBDA_MAX = float(2 ** 30)
MU0_MAX_EXPONENT = 40
HYPOTHESIS_MARGIN = 1e-8
# The lams of inverse_asymptotics and base_growth_check.
ASYMPTOTICS_LAMBDAS = tuple(np.geomspace(1e2, 1e6, 5))
GROWTH_LAMBDAS = (1e2, 1e3, 1e4)


# ---------------------------------------------------------------------------
# Fibration charts


def fibration_to_dict(f: FibrationSpec) -> dict:
    return {
        "name": f.name, "s": f.s, "m": f.m,
        "fiber_entries": [[dsl.to_source(e) for e in row] for row in f.fiber_entries],
        "base_entries": [[dsl.to_source(e) for e in row] for row in f.base_entries],
        "mu0": f.mu0,
        "box": [[r.re_min, r.re_max, r.im_min, r.im_max] for r in f.box],
    }


def fibration_from_dict(d: dict) -> FibrationSpec:
    s, m = int(d["s"]), int(d["m"])
    fiber = tuple(tuple(dsl.parse(src, s + m) for src in row)
                  for row in d["fiber_entries"])
    base = tuple(tuple(dsl.parse(src, m) for src in row)
                 for row in d["base_entries"])
    box = tuple(dsl.Rect(*map(float, r)) for r in d["box"])
    return FibrationSpec(str(d["name"]), s, m, fiber, base, float(d["mu0"]), box)


def save_fibration(f: FibrationSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fibration_to_dict(f), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_fibration(path) -> FibrationSpec:
    with open(path, encoding="utf-8") as fh:
        return fibration_from_dict(json.load(fh))


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


def _require_positive(**counts) -> None:
    """ValueError naming the first count below 1: no trials or samples
    would make a check pass vacuously or leave nothing to take a minimum of."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _scale(f: FibrationSpec, lam: float) -> float:
    """The base block's factor mu0 + lam; ValueError unless positive."""
    scale = f.mu0 + float(lam)
    if not scale > 0:
        raise ValueError("mu0 + lam must be positive")
    return scale


def assemble(f: FibrationSpec, lam: float, name: str | None = None) -> dsl.MetricSpec:
    """The warped product metric at parameter lam:
    blockdiag(fiber, (mu0 + lam) * base), see FibrationSpec.warped_entries."""
    scale = _scale(f, lam)
    if name is None:
        name = f.name if (scale == 1.0 and f.mu0 == 0.0) else \
            f"{f.name}@{dsl._fmt_real(float(lam))}"
    return dsl.MetricSpec(name, f.n, f.warped_entries(scale), f.box)


def mu0_search(f: FibrationSpec, samples: int = 300, seed: int = 0) -> float:
    """Smallest mu0 in 2^0, 2^1, ..., 2^MU0_MAX_EXPONENT (threshold_search
    with no bisection) such that the assembled metric at lam = 0 validates
    on sampled points."""
    def validates(mu0: float) -> float:
        try:
            dsl.validate(assemble(dataclasses.replace(f, mu0=mu0), 0.0),
                         samples=samples, seed=seed)
            return 1.0
        except dsl.MetricError:
            return -1.0

    return threshold_search(validates, 1.0, 2.0 ** MU0_MAX_EXPONENT, 0)[0]


def _unit_scale(f: FibrationSpec) -> dsl.MetricSpec:
    """blockdiag(fiber, base): the assembled metric at scale mu0 + lam = 1."""
    return dsl.MetricSpec(f.name, f.n, f.warped_entries(1.0), f.box)


def warped_curvature(f: FibrationSpec, points):
    """lam -> (g, R), the metric and curvature tensor of assemble(f, lam)
    at points (P, n), from one jet pass and one curvature pass.

    Both are evaluated once, at scale mu0 + lam = 1, and rescaled per lam
    by the identity of the module docstring: g[..., s:, s:] and
    R[..., s:, s:, :, :] are multiplied by the scale, every other entry
    stays.  Each call runs the checks of curvature() (check_tensor) on the
    rescaled pair and refuses a non-positive mu0 + lam like assemble.
    """
    mj = metric_jet(_unit_scale(f), points)
    R1 = curvature(mj).R
    s = f.s

    def at(lam: float):
        scale = _scale(f, lam)
        g, R = mj.g.copy(), R1.copy()
        g[..., s:, s:] *= scale
        R[..., s:, s:, :, :] *= scale
        check_tensor(g, R)
        return g, R

    return at


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


@dataclass(frozen=True)
class LambdaSearchResult:
    lambda_star: float
    min_hsc_at_star: float
    history: tuple
    persistence: tuple
    seed: int
    positive_at_start: bool

    def as_dict(self) -> dict:
        return {
            "lambda_star": self.lambda_star,
            "min_hsc_at_star": self.min_hsc_at_star,
            "history": [[l, v] for l, v in self.history],
            "persistence": [[l, v] for l, v in self.persistence],
            "seed": self.seed,
            "positive_at_start": self.positive_at_start,
        }


def _sampled_fiber_scans(f: FibrationSpec, count: int, rng, **scan_options):
    """Yield (base point, fiber metric, its scan) for count base points
    drawn one at a time from the base box; lazily, so an early stop draws
    no more.  The fiber metric is the slice of the assembled metric over
    the base point; its block does not depend on the scale, so the scale-1
    metric serves."""
    total = _unit_scale(f)
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
    point must too.  Raises HypothesisViolationError naming the failing
    side with a witness point.
    """
    _require_positive(fiber_samples=fiber_samples)
    scan_options = dict(grid_per_axis=grid_per_axis, dirs=dirs, seed=seed,
                        starts=starts, iters=iters)
    base_scan = scan_chart(f.base_spec(), **scan_options)
    if base_scan.min_hsc <= HYPOTHESIS_MARGIN:
        raise HypothesisViolationError("base", base_scan.min_hsc,
                                       [_c2pair(z) for z in base_scan.witness_point])
    fiber_mins = []
    for c, _, sub_scan in _sampled_fiber_scans(
            f, fiber_samples, np.random.default_rng([seed, 17]), **scan_options):
        if sub_scan.min_hsc <= HYPOTHESIS_MARGIN:
            raise HypothesisViolationError(
                "fiber", sub_scan.min_hsc,
                {"base_point": [_c2pair(z) for z in c],
                 "fiber_point": [_c2pair(z) for z in sub_scan.witness_point]})
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
    """Smallest lam (threshold_search from LAMBDA_START up to LAMBDA_MAX)
    with strictly positive scanned minimal curvature of the assembled metric.

    Every lam is scanned on the same grid with the same seed and budget, so
    the recorded history is comparable across lam.  The returned
    lambda_star is the positive end of the final bracket, or only an upper
    bound on the threshold when positive_at_start; persistence holds the
    re-scanned minima at 2*lambda_star and 4*lambda_star.

    The grid's jets and curvature are evaluated once (warped_curvature):
    the assembled metric is block diagonal with a base block that depends
    on the base coordinates only, so each lam's tensor is the scale-1
    tensor with its base rows multiplied by mu0 + lam.  Per lam, the
    rescaled pair passes the checks of curvature() and then the direction
    minimizer of scan_chart, with the same options and point indices.
    """
    if not skip_hypotheses:
        check_hypotheses(f, seed=seed)
    pts = dsl.box_grid(f.box, grid_per_axis)
    tensors = warped_curvature(f, pts)

    def scan_min(lam: float) -> float:
        g, R = tensors(lam)
        vals, _ = _min_over_dirs(g, R, dirs, starts, iters, seed,
                                 range(pts.shape[0]))
        return float(vals.min())

    hi, hi_val, history, at_start = threshold_search(
        scan_min, LAMBDA_START, LAMBDA_MAX, bisections)
    persistence = tuple((m * hi, scan_min(m * hi)) for m in (2.0, 4.0))
    return LambdaSearchResult(lambda_star=hi, min_hsc_at_star=hi_val,
                              history=tuple(history),
                              persistence=persistence, seed=seed,
                              positive_at_start=at_start)


# ---------------------------------------------------------------------------
# Inverse block asymptotics


def _fit_or_zero(lams, vals):
    """Log-log slope, or None when the series is exactly zero (below
    1e-14): decoupled blocks produce identically zero entries."""
    v = np.asarray(vals, dtype=float)
    if np.all(v < 1e-14):
        return None
    if np.any(v <= 0):
        raise ArithmeticError("cannot fit a slope through zero values")
    return float(np.polyfit(np.log(np.asarray(lams, dtype=float)), np.log(v), 1)[0])


def inverse_asymptotics(h0, s: int) -> dict:
    """Large-lam block structure of inv(h0 + lam * blockdiag(0, I)).

    The fiber block of the inverse tends to inv(fiber block of h0) with
    error O(1/lam); lam times the base diagonal of the inverse tends to 1
    with error O(1/lam); mixed entries are O(1/lam) and base off-diagonal
    entries O(1/lam^2).  Reports the fitted log-log slopes (None for
    identically zero series, which occur when the blocks decouple) and
    whether each is within 0.2 of its expected order, over
    ASYMPTOTICS_LAMBDAS.
    """
    h0 = np.asarray(h0, dtype=complex)
    n = h0.shape[0]
    if not (0 < s < n):
        raise ValueError("need 0 < s < n")
    if np.abs(h0 - h0.conj().T).max() > 1e-12 * max(1.0, np.abs(h0).max()):
        raise ValueError("h0 must be Hermitian")
    lams = [float(l) for l in ASYMPTOTICS_LAMBDAS]
    bump = np.zeros((n, n))
    bump[s:, s:] = np.eye(n - s)
    fiber_inv = np.linalg.inv(h0[:s, :s])
    off_base = ~np.eye(n - s, dtype=bool)
    err_fiber, err_base_diag, val_cross, val_base_off = [], [], [], []
    for lam in lams:
        hinv = np.linalg.inv(h0 + lam * bump)
        err_fiber.append(np.abs(hinv[:s, :s] - fiber_inv).max())
        err_base_diag.append(np.abs(lam * np.diagonal(hinv[s:, s:]) - 1).max())
        val_cross.append(np.abs(hinv[:s, s:]).max())
        val_base_off.append(np.abs(hinv[s:, s:][off_base]).max()
                            if n - s > 1 else 0.0)
    series = {
        "fiber_error": (err_fiber, -1.0),
        "base_diag_error": (err_base_diag, -1.0),
        "cross_value": (val_cross, -1.0),
        "base_offdiag_value": (val_base_off, -2.0),
    }
    out = {"lam_values": lams, "s": s, "n": n}
    ok = True
    for key, (vals, expected) in series.items():
        slope = _fit_or_zero(lams, vals)
        within = slope is None or abs(slope - expected) <= 0.2
        ok = ok and within
        out[key] = {"values": [float(v) for v in vals],
                    "slope": slope, "expected_slope": expected,
                    "within_0.2": within}
    out["ok"] = ok
    return out


def determinant_split_check(dim: int = 6, trials: int = 1000, seed: int = 0) -> dict:
    """det(H) = det(P) * det(S - R inv(P) Q) for the 2x2 block partition
    of random Hermitian positive definite matrices; relative error must
    stay below 1e-9."""
    _require_positive(trials=trials)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, dim + 1))
        s = int(rng.integers(1, n))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a @ a.conj().T + n * np.eye(n)
        p, q = h[:s, :s], h[:s, s:]
        r, t = h[s:, :s], h[s:, s:]
        lhs = np.linalg.det(h)
        rhs = np.linalg.det(p) * np.linalg.det(t - r @ np.linalg.solve(p, q))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return {"trials": trials, "seed": seed, "worst_rel_error": float(worst),
            "ok": bool(worst <= 1e-9)}


# ---------------------------------------------------------------------------
# Curvature decrease on coordinate submanifolds


def submanifold_decreasing_check(spec: dsl.MetricSpec, fixed: dict,
                                 trials: int = 1000, seed: int = 0) -> dict:
    """Holomorphic sectional curvature does not increase when restricting
    to a coordinate slice: for tangent directions of the slice, the
    restricted curvature is at most the ambient one (slack 1e-9 relative).
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
        "violations": int(np.sum(margin < -1e-9)),
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
        "point": [_c2pair(z) for z in point],
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
