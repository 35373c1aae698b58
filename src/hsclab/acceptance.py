"""End-to-end acceptance checks.

Each check runs one advertised guarantee of the package at its stated
tolerance and returns a JSON-able detail dict.  run_core executes the
nine numerical checks; run_all additionally reruns the core and
byte-compares the canonical reports, so determinism is itself a checked
guarantee.  Reports carry no timestamps or timings: repeated runs with
the same seed must be byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__, certify, dsl, positivity, warp, wirtinger
from .curvature import (MetricJet, curvature, entry_jet_1d, gaussian_curvature_1d,
                        gaussian_from_jet, hsc_dirs, metric_jet, metric_jet_from_fd,
                        restrict)

ONE_DIM_CATALOG = ("flat(1)", "poincare", "fs_affine", "paper_base")


def _worst(values) -> float:
    """The largest of values, NaN if any is NaN.  Python's max keeps its
    running value against a NaN, so a NaN in a compared route would pass
    a check; here it fails the check's `<=` test."""
    return float(np.max(values))


def _hsc_at(spec, rng, count):
    pts = dsl.box_sample(spec.box, rng, count)
    mj = metric_jet(spec, pts)
    dirs = rng.standard_normal((count, 1, spec.n)) \
        + 1j * rng.standard_normal((count, 1, spec.n))
    return hsc_dirs(mj.g, curvature(mj).R, dirs)[:, 0]


def check_constant_curvature(seed: int) -> dict:
    """Hyperbolic disk metric has constant value -4, projective line
    metric in an affine chart +4, on 100 random points and directions."""
    rng = np.random.default_rng([seed, 1])
    errs = {}
    for name, target in (("poincare", -4.0), ("fs_affine", 4.0)):
        vals = _hsc_at(dsl.catalog(name), rng, 100)
        errs[name] = float(np.abs(vals - target).max())
    return {"ok": bool(_worst(list(errs.values())) <= 1e-8), "max_abs_error": errs,
            "tolerance": 1e-8, "points": 100}


def check_base_formula(seed: int) -> dict:
    """The bundled base metric has curvature 2/(1 + |z|^2), strictly
    positive on its chart."""
    rng = np.random.default_rng([seed, 2])
    spec = dsl.catalog("paper_base")
    pts = dsl.box_sample(spec.box, rng, 100)
    mj = metric_jet(spec, pts)
    dirs = np.ones((100, 1, 1), dtype=complex)
    vals = hsc_dirs(mj.g, curvature(mj).R, dirs)[:, 0]
    target = 2.0 / (1.0 + np.abs(pts[:, 0]) ** 2)
    err = float(np.abs(vals - target).max())
    return {"ok": bool(err <= 1e-8 and vals.min() > 0),
            "max_abs_error": err, "min_value": float(vals.min()),
            "tolerance": 1e-8, "points": 100}


def check_counterexample_family(seed: int) -> dict:
    """Positive base, semi-positive fibers vanishing at the fiber origin,
    yet a negative direction exists for every lam in the family."""
    rep = warp.family_negativity_report(seed=seed)
    return {"ok": rep["ok"], "report": rep}


# Draws per round of the jet oracle.  A round stacks its draws into one
# fd_jet call per (n, step); the cap bounds the stencil samples a round
# holds at once.  On the oracle_certify workload, uncapped rounds (up to
# 1000 draws) raised peak RSS by about 2.5% and this cap by about 0.3%,
# at the same speed.
JET_ROUND = 128


def _draw_jet_cases(rng, count: int) -> dict:
    """`count` raw (n, expr, point) draws from rng, in order, grouped by n
    as (expr, point, arithmetic jet) triples.  A draw whose jet raises is
    dropped; every draw consumes the same rng calls either way."""
    by_n = {}
    for _ in range(count):
        n = int(rng.integers(1, 4))
        expr = dsl.random_expr(rng, n)
        pts = (rng.uniform(-0.8, 0.8, (1, n))
               + 1j * rng.uniform(-0.8, 0.8, (1, n)))
        try:
            with np.errstate(all="ignore"):
                jet = dsl.eval_jet(expr, n, pts)
        except (wirtinger.SingularPointError, ZeroDivisionError, OverflowError):
            continue
        by_n.setdefault(n, []).append((expr, pts, jet))
    return by_n


def _flat_slots(jet) -> np.ndarray:
    """A batch of jets' four slots side by side, one row per point."""
    rows = len(jet.value)
    return np.concatenate([s.reshape(rows, -1)
                           for s in (jet.value, jet.d, jet.dbar, jet.ddbar)], axis=1)


def _stacked_fd_jet(exprs, points, step):
    """fd_jet of expression b at point b, for every row b, in one call:
    the batch evaluator sends stencil row b to expression b."""
    def f(z):
        return np.stack([np.broadcast_to(dsl.eval_value(e, zb), zb.shape[:-1])
                         for e, zb in zip(exprs, z)])
    return wirtinger.fd_jet(f, points, step=step)


def _check_jet_group(cases) -> tuple:
    """Oracle check of one round's draws of one n: (the number of draws
    checked, the worst tolerance ratio among them, 0 for none).

    Draws whose jet is not finite or exceeds 1e6 in modulus are dropped;
    the oracle runs on the rest at both steps, and a draw whose two steps
    disagree beyond 1e-5 of its scale, or give NaN, is dropped too."""
    exprs, pts, jets = zip(*cases)
    arith = np.concatenate([_flat_slots(jet) for jet in jets])
    scale = np.abs(arith).max(axis=1)
    keep = np.flatnonzero(scale <= 1e6)  # a NaN or inf slot fails too
    if not keep.size:
        return 0, 0.0
    scale = np.maximum(1.0, scale[keep])
    fd1, fd2 = (_flat_slots(_stacked_fd_jet([exprs[i] for i in keep],
                                            np.concatenate(pts)[keep], step))
                for step in (1e-3, 5e-4))
    agree = np.abs(fd1 - fd2).max(axis=1) <= 1e-5 * scale  # NaN disagrees
    if not agree.any():
        return 0, 0.0
    a, f1, f2 = arith[keep][agree], fd1[agree], fd2[agree]
    refined = (4.0 * f2 - f1) / 3.0
    allowed = np.maximum(1e-6 * np.abs(a), 1e-8 * scale[agree, None])
    return int(agree.sum()), float((np.abs(a - refined) / allowed).max())


def check_jet_vs_divided_differences(seed: int) -> dict:
    """Arithmetic jets agree with the central-difference oracle on 1000
    random expressions: every slot within relative 1e-6, absolute floor
    1e-8 at the jet's scale.  Curvature computed from either jet route
    agrees within 1e-6 relative across the catalog, 100 points each.

    The oracle side is Richardson-extrapolated from steps 1e-3 and 5e-4,
    which removes the leading truncation term while keeping roundoff an
    order of magnitude under the floor.  Draws where the two raw steps
    disagree beyond 1e-5 of the jet scale, or give NaN, are redrawn:
    divided differences cannot certify anything there.  The redraw looks
    only at the oracle, so a genuine arithmetic-rule defect can never
    hide behind it.

    Draws come in rounds of at most JET_ROUND, each exactly the number
    still missing, so no round overshoots and the draw stream is the one
    a draw-by-draw loop would consume.  Each round makes one fd_jet call
    per (n, step) on its stacked points.
    """
    rng = np.random.default_rng([seed, 3])
    ratios = [0.0]
    checked = 0
    while checked < 1000:
        by_n = _draw_jet_cases(rng, min(1000 - checked, JET_ROUND))
        for cases in by_n.values():
            count, ratio = _check_jet_group(cases)
            checked += count
            ratios.append(ratio)
    worst_ratio = _worst(ratios)

    # fs(n) and ball(n), closed-form fixtures (K = +4, -4) with their own
    # tests, are left out; the fiber of paper_G is its slice z2 = 0.3+0.1i
    specs = [*map(dsl.catalog, ("flat(1)", "flat(2)", "poincare", "fs_affine",
                                "paper_base")),
             restrict(dsl.catalog("paper_G(1)"), {2: 0.3 + 0.1j}),
             *map(dsl.catalog, ("paper_G(1)", "paper_G(5)", "warp_demo"))]
    curv_errors = [0.0]
    for spec in specs:
        pts = dsl.box_sample(spec.box, rng, 100)
        r_arith = curvature(metric_jet(spec, pts)).R
        m1 = metric_jet_from_fd(spec, pts, step=1e-3)
        m2 = metric_jet_from_fd(spec, pts, step=5e-4)
        refined = MetricJet(m1.n, (4 * m2.g - m1.g) / 3,
                            (4 * m2.dg - m1.dg) / 3,
                            (4 * m2.dbarg - m1.dbarg) / 3,
                            (4 * m2.ddbarg - m1.ddbarg) / 3, m1.points)
        # finite-difference error alone breaks the 1e-10 pair symmetry here
        r_fd = curvature(refined, check=False).R
        scale = max(1.0, float(np.abs(r_arith).max()))
        curv_errors.append(float(np.abs(r_arith - r_fd).max()) / scale)
    worst_curv = _worst(curv_errors)
    ok = worst_ratio <= 1.0 and worst_curv <= 1e-6
    return {"ok": bool(ok), "worst_jet_tolerance_ratio": worst_ratio,
            "worst_curvature_rel_error": worst_curv,
            "expressions": 1000, "points_per_metric": 100}


def check_one_dim_equivalence(seed: int) -> dict:
    """For one-coordinate metrics the sectional value is the Gaussian
    curvature: both routes agree within 1e-9 on 100 points per metric."""
    rng = np.random.default_rng([seed, 4])
    diffs = [0.0]
    for name in ONE_DIM_CATALOG:
        spec = dsl.catalog(name)
        pts = dsl.box_sample(spec.box, rng, 100)
        mj = metric_jet(spec, pts)
        dirs = rng.standard_normal((100, 1, 1)) + 1j * rng.standard_normal((100, 1, 1))
        via_hsc = hsc_dirs(mj.g, curvature(mj).R, dirs)[:, 0]
        via_gauss = gaussian_curvature_1d(spec, pts[:, 0])
        diffs.append(float(np.abs(via_hsc - via_gauss).max()))
    worst = _worst(diffs)
    return {"ok": bool(worst <= 1e-9), "worst_abs_difference": worst,
            "tolerance": 1e-9, "points_per_metric": 100}


def check_split_bound_suite(seed: int) -> dict:
    """Weight identities are exact, the reference constant equals 312,
    the three product inequalities never fail on 1e5 random trials, and
    the certified quartic lower bound holds on 100 random tensors with
    the base bound at its certified minimum, 1e4 directions each.  A
    NaN slack or margin counts as a violation, and a NaN margin is the
    reported worst margin."""
    ident_ok = True
    rng = np.random.default_rng([seed, 5])
    for _ in range(30):
        k0 = float(rng.uniform(0.2, 10)); k1 = float(rng.uniform(0.2, 10))
        n = int(rng.integers(2, 7)); s = int(rng.integers(1, n))
        ident = certify.weight_identities(k0, k1, n, s)
        ident_ok = ident_ok and ident["terms_equalized"] \
            and ident["constraint_sum_is_half_ratio"] and ident["ratio_formula_matches"]
    scale_ok = True
    ref = certify.choose_weights(3.7, 1.3, 5, 2).required_ratio
    for _ in range(20):
        t = float(2.0 ** rng.integers(-20, 21))
        scale_ok = scale_ok and \
            certify.choose_weights(3.7 * t, 1.3 * t, 5, 2).required_ratio == ref
    w812 = certify.choose_weights(8.0, 1.0, 2, 1)
    anchor_ok = w812.required_ratio == 312.0

    prod = certify.product_inequality_check(w812.a, w812.b, w812.c, w812.d,
                                            trials=100000, seed=seed)

    bound_violations = 0
    worst_margin = np.inf
    all_positive = True
    for k in range(100):
        k0 = float(rng.uniform(0.5, 8)); k1 = float(rng.uniform(0.2, 4))
        n = int(rng.integers(2, 6)); s = int(rng.integers(1, n))
        w = certify.choose_weights(k0, k1, n, s)
        tensor = certify.random_block_tensor(k0, k1, w.base_required, n, s,
                                             seed=int(rng.integers(0, 2**31)))
        rep = certify.split_bound_check(tensor, w, trials=10000,
                                        seed=int(rng.integers(0, 2**31)))
        bound_violations += rep["violations"]
        worst_margin = np.min([worst_margin, rep["worst_margin"]])
        all_positive = all_positive and rep["all_strictly_positive"]
    ok = (ident_ok and scale_ok and anchor_ok and prod["violations"] == 0
          and bound_violations == 0 and all_positive)
    return {"ok": bool(ok), "identities_exact": bool(ident_ok),
            "scale_invariance_exact": bool(scale_ok),
            "reference_constant": w812.required_ratio,
            "reference_constant_is_312": bool(anchor_ok),
            "product_inequality": prod,
            "bound_violations": int(bound_violations),
            "bound_worst_margin": float(worst_margin),
            "bound_all_strictly_positive": bool(all_positive),
            "tensors": 100, "directions_per_tensor": 10000}


# The lams of the pencil suite's formula check.
PENCIL_SUITE_LAMBDAS = (1e-3, 0.1, 1.0, 17.0)


def _pencil_coefficients(gspec, hspec, point) -> tuple:
    """(a2, a1, a0) of the pencil numerator a2*lam^2 + a1*lam + a0 at the
    point, from the entry jets read here, independently of certify."""
    g, gz, gzbar, gzz = entry_jet_1d(gspec, point)
    h, hz, hzbar, hzz = entry_jet_1d(hspec, point)
    a2 = h.real ** 3 * gaussian_from_jet(h, hz, hzbar, hzz)
    a1 = 2 * (-h.real * gzz - g.real * hzz + gz * hzbar + hz * gzbar).real
    a0 = g.real ** 3 * gaussian_from_jet(g, gz, gzbar, gzz)
    return a2, a1, a0


def _threshold_check(gspec, hspec, point, a1, direct=None) -> tuple:
    """(threshold, closed-form branch, confirmed) of
    pencil_positive_threshold at the point.  The branch is "zero" without
    a root above 0, else "a1_negative" or "a1_nonnegative" by the sign of
    a1.  A positive threshold is confirmed when the direct curvature of
    pencil_spec is negative at thr * (1 - 1e-6) and positive at
    thr * (1 + 1e-6); a zero one when positive_at_start holds and every
    value of direct, the direct curvature at the point at the suite's
    lams, is positive."""
    thr = certify.pencil_positive_threshold(gspec, hspec, point)
    t = thr["threshold"]
    if t == 0.0:
        return t, "zero", bool(thr["positive_at_start"] and direct is not None
                               and np.all(direct > 0))
    below, above = (gaussian_curvature_1d(certify.pencil_spec(gspec, hspec, lam), point)
                    for lam in (t * (1 - 1e-6), t * (1 + 1e-6)))
    branch = "a1_negative" if a1 < 0 else "a1_nonnegative"
    return t, branch, bool(below < 0 < above)


def check_pencil_suite(seed: int) -> dict:
    """Closed pencil formula matches direct curvature of the summed
    metric (50 pairs x 5 points x 4 lams, 1e-9); the positivity threshold
    of the hyperbolic/projective pair at 0 matches the textbook root of
    the pencil numerator within 1e-6; lam * K approaches the second
    metric's curvature within 1% at lam = 1e4.  The closed-form threshold
    is confirmed on the direct route (_threshold_check) at that point and
    at the first point with K(h) > 0 of each ordered pair; the report
    counts the closed-form branches these points took.

    All 50 pairs are drawn first; the points of pairs with the same
    ordered (g, h) then share one pencil_at call and, per lam, one
    pencil_spec and one gaussian_curvature_1d call."""
    rng = np.random.default_rng([seed, 6])
    groups = {}  # ordered (g, h) name pair -> its pairs' points, in draw order
    for _ in range(50):
        names = tuple(ONE_DIM_CATALOG[rng.integers(0, len(ONE_DIM_CATALOG))]
                      for _ in range(2))
        box = certify.pencil_spec(*map(dsl.catalog, names), 1.0).box[0]
        groups.setdefault(names, []).extend(
            complex(rng.uniform(box.re_min, box.re_max),
                    rng.uniform(box.im_min, box.im_max)) for _ in range(5))
    ref = dsl.catalog("poincare"), dsl.catalog("fs_affine")
    # Pencil numerator as a quadratic in lam; its positive root is the
    # independently computed threshold the closed form must reproduce.
    a2, a1, a0 = _pencil_coefficients(*ref, 0j)
    root = float((-a1 + np.sqrt(a1 * a1 - 4 * a2 * a0)) / (2 * a2))
    thr, *check = _threshold_check(*ref, 0j, a1)
    thr_err = abs(thr - root)
    checks = [check]

    errors = [0.0]
    for names, pts in groups.items():
        gs, hs = map(dsl.catalog, names)
        pts = np.array(pts)
        kh, phi = certify.pencil_at(gs, hs, pts)
        direct = np.empty((len(PENCIL_SUITE_LAMBDAS), len(pts)))
        for row, lam in enumerate(PENCIL_SUITE_LAMBDAS):
            closed = phi(lam)
            direct[row] = gaussian_curvature_1d(certify.pencil_spec(gs, hs, lam), pts)
            errors.append(float((np.abs(closed - direct[row])
                                 / np.maximum(1.0, np.abs(direct[row]))).max()))
        first = np.flatnonzero(kh > 0)[:1]
        for i in first:
            a1 = _pencil_coefficients(gs, hs, pts[i])[1]
            checks.append(_threshold_check(gs, hs, pts[i], a1, direct[:, i])[1:])
    worst = _worst(errors)
    branches = {b: sum(c[0] == b for c in checks)
                for b in ("a1_negative", "a1_nonnegative", "zero")}
    confirmed = sum(c[1] for c in checks)

    try:
        decay = certify.pencil_decay_check(*ref, 0j)
        decay_ok = True
    except ArithmeticError as exc:
        decay = {"error": str(exc)}
        decay_ok = False
    ok = (worst <= 1e-9 and thr_err <= 1e-6 and confirmed == len(checks)
          and decay_ok)
    return {"ok": bool(ok), "worst_formula_rel_error": worst,
            "numerator_root": root, "threshold": thr,
            "threshold_error": float(thr_err),
            "threshold_points": len(checks), "threshold_branches": branches,
            "thresholds_confirmed": int(confirmed), "decay": decay,
            "pairs": 50, "points_per_pair": 5}


def check_warp_suite(seed: int) -> dict:
    """Curvature never increases on coordinate slices (500 trials each on
    two slices of the counterexample family and of the assembled warp
    product; a NaN margin counts as a violation and as the worst margin);
    the curvature numerator grows along base directions; the positivity
    search returns a finite lam with a positive scanned minimum, negative
    at lam = 1e-3, persisting at twice and four times the threshold.  The
    assembled route (scan_chart of assemble(f, lam)) confirms the
    threshold: its grid minimum is negative at lambda_star * (1 - 1e-6)
    and positive at lambda_star.  It confirms the per-point thresholds t:
    t = LAMBDA_START exactly where the assembled scan there is positive,
    and at the witness point and every 25th grid point with a larger t the
    point's minimum is negative at t * (1 - 1e-6), positive at
    t * (1 + 1e-9).  The proof of persistence holds: the base rows of the
    tensor have no fiber entries and the base curvature is >= 0 on the
    grid, so no larger lam loses positivity."""
    f = warp.warp_demo_fibration()
    dec_violations = 0
    dec_worst = np.inf
    for spec in (dsl.catalog("paper_G(1)"), warp.assemble(f, 4.0)):
        for fixed in ({2: 0.3 + 0.2j}, {1: 0.25 - 0.35j}):
            rep = warp.submanifold_decreasing_check(spec, fixed, trials=500,
                                                    seed=seed)
            dec_violations += rep["violations"]
            dec_worst = np.min([dec_worst, rep["worst_margin"]])

    try:
        growth = warp.base_growth_check(f, seed=seed)
        growth_ok = growth["ok"]
    except ArithmeticError as exc:
        growth = {"error": str(exc)}
        growth_ok = False

    grid = 5  # lambda_search's default
    search = warp.lambda_search(f, grid_per_axis=grid, seed=seed)
    star = search.lambda_star
    # the threshold on the independent assembled route: negative just
    # below lambda_star, positive at it
    below, at_star = (positivity.scan_chart(warp.assemble(f, lam),
                                            grid_per_axis=grid).min_hsc
                      for lam in (star * (1 - 1e-6), star))
    # each point's threshold on the same route
    pts, th = search.points, search.thresholds
    start = positivity.scan_chart(warp.assemble(f, warp.LAMBDA_START),
                                  grid_per_axis=grid).per_point_min
    start_match = bool(np.array_equal(th == warp.LAMBDA_START, start > 0))
    bracketed = [p for p in [int(np.argmax(th))] + list(range(0, len(th), 25))
                 if th[p] > warp.LAMBDA_START]
    confirmed = sum(
        positivity.min_hsc_at_point(warp.assemble(f, th[p] * (1 - 1e-6)), pts[p])[0] < 0
        < positivity.min_hsc_at_point(warp.assemble(f, th[p] * (1 + 1e-9)), pts[p])[0]
        for p in bracketed)
    # the proof of persistence: the base rows of the tensor have no fiber
    # k or l entries, so B is the base block's own numerator, which is
    # >= 0 wherever the base metric's curvature is
    s = f.s
    R1 = curvature(metric_jet(warp.assemble(f, 1.0), pts)).R
    base_rows_pure = not (np.any(R1[:, s:, s:, :s]) or np.any(R1[:, s:, s:, :, :s]))
    base_min = positivity.scan_chart(f.base_spec(), grid_per_axis=grid).min_hsc
    search_ok = (np.isfinite(star)
                 and search.min_hsc_at_star > 0
                 and search.history[0][0] == 1e-3
                 and search.history[0][1] < -1e-8
                 and all(v > 0 for _, v in search.persistence)
                 and below < 0 < at_star
                 and start_match and confirmed == len(bracketed)
                 and base_rows_pure and base_min >= 0)
    ok = dec_violations == 0 and growth_ok and search_ok
    return {"ok": bool(ok),
            "decreasing_violations": int(dec_violations),
            "decreasing_worst_margin": float(dec_worst),
            "growth": growth, "search": search.as_dict(),
            "assembled_min_below_star": below,
            "assembled_min_at_star": at_star,
            "start_positive_points": int(np.sum(start > 0)),
            "start_positive_match": start_match,
            "thresholds_bracketed": len(bracketed),
            "thresholds_confirmed": int(confirmed),
            "base_rows_pure": bool(base_rows_pure),
            "base_min_hsc": base_min,
            "search_ok": bool(search_ok)}


def exact_minimum_specs() -> tuple:
    """The d = 2 charts the exact direction minimum is checked on."""
    f = warp.warp_demo_fibration()
    return ((dsl.catalog("paper_G(1)"), dsl.catalog("paper_G(50)"))
            + tuple(warp.assemble(f, lam) for lam in (0.01, 3.0, 100.0)))


def check_exact_direction_minimum(seed: int) -> dict:
    """The exact d = 2 direction minimum is a true minimum on five charts
    (the counterexample family at lam = 1 and 50, the warp demo at lam =
    0.01, 3 and 100), 16 random points each: it is never above probe plus
    multi-start descent at scan defaults, and no one of 2000 random
    directions per point goes below it, both within 1e-12 relative."""
    rng = np.random.default_rng([seed, 8])
    excess_descent, excess_brute = [-np.inf], [-np.inf]
    for spec in exact_minimum_specs():
        pts = dsl.box_sample(spec.box, rng, 16)
        mj = metric_jet(spec, pts)
        R = curvature(mj).R
        idx = range(len(pts))
        exact, _ = positivity._exact_min(mj.g, R, idx)
        descent, _ = positivity._probe_and_descend(
            mj.g, R, positivity.DEFAULT_DIRS, positivity.DEFAULT_STARTS,
            positivity.DEFAULT_ITERS, seed, idx)
        scale = np.maximum(1.0, np.abs(exact))
        excess_descent.append(float(((exact - descent) / scale).max()))
        dirs = rng.standard_normal((len(pts), 2000, 2)) \
            + 1j * rng.standard_normal((len(pts), 2000, 2))
        brute = hsc_dirs(mj.g, R, dirs).min(axis=1)
        excess_brute.append(float(((exact - brute) / scale).max()))
    above_descent, below_exact = _worst(excess_descent), _worst(excess_brute)
    ok = above_descent <= 1e-12 and below_exact <= 1e-12
    return {"ok": bool(ok), "worst_rel_excess_over_descent": above_descent,
            "worst_rel_excess_over_brute_force": below_exact,
            "tolerance": 1e-12, "points_per_metric": 16,
            "brute_force_directions": 2000}


CORE_CHECKS = (
    ("constant_curvature_models", check_constant_curvature),
    ("positive_base_formula", check_base_formula),
    ("counterexample_family", check_counterexample_family),
    ("jets_match_divided_differences", check_jet_vs_divided_differences),
    ("one_dimensional_equivalence", check_one_dim_equivalence),
    ("split_bound_certification", check_split_bound_suite),
    ("pencil_analysis", check_pencil_suite),
    ("warped_fibration_suite", check_warp_suite),
    ("exact_direction_minimum", check_exact_direction_minimum),
)

CHECK_NAMES = tuple(name for name, _ in CORE_CHECKS) + ("deterministic_reports",)


def canonical_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def run_core(seed: int = 0) -> dict:
    checks = []
    for name, fn in CORE_CHECKS:
        detail = fn(seed)
        checks.append({"name": name, "ok": bool(detail.pop("ok")),
                       "detail": detail})
    return {"schema": 1, "version": __version__, "seed": seed,
            "checks": checks, "ok": all(c["ok"] for c in checks)}


def run_all(seed: int = 0) -> dict:
    """Core checks plus determinism: the core is run twice and the two
    canonical reports must agree byte for byte."""
    first = run_core(seed)
    second = run_core(seed)
    same = canonical_bytes(first) == canonical_bytes(second)
    checks = list(first["checks"])
    checks.append({"name": "deterministic_reports", "ok": bool(same),
                   "detail": {"bytes": len(canonical_bytes(first)),
                              "identical": bool(same)}})
    return {"schema": 1, "version": __version__, "seed": seed,
            "checks": checks, "ok": all(c["ok"] for c in checks)}
