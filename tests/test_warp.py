"""Fibration assembly, hypothesis gating, and the lam positivity search."""

import dataclasses
import json
import re
import time
import warnings

import numpy as np
import pytest

from conftest import off_centre
from hsclab import dsl, positivity, warp
from hsclab.curvature import (IllConditionedError, curvature_at,
                              gaussian_curvature_1d, hsc_dirs, restrict)
from hsclab.dsl import FibrationSpec, load_fibration, save_fibration
from hsclab.positivity import _min_over_dirs, min_hsc_at_point
from hsclab.warp import (HypothesisViolationError, ThresholdNotReachedError,
                         _at_scale, assemble,
                         base_growth_check, check_hypotheses, lambda_search,
                         paper_G_fibration, submanifold_decreasing_check,
                         warp_demo_fibration)


def _flat_flat() -> FibrationSpec:
    box = (dsl.Rect(-0.5, 0.5, -0.5, 0.5),) * 2
    return FibrationSpec("trivial", 1, 1,
                         ((dsl.parse("1", 2),),), ((dsl.parse("1", 1),),),
                         0.0, box)


def test_assemble_block_layout():
    spec = assemble(_flat_flat(), 3.0)
    sources = [dsl.to_source(e) for row in spec.entries for e in row]
    assert sources == ["1", "0", "0", "3"]
    assert spec.n == 2


def test_assemble_requires_positive_total_scale():
    with pytest.raises(ValueError):
        assemble(_flat_flat(), 0.0)


def test_assemble_at_unit_scale_matches_catalog():
    spec = assemble(warp_demo_fibration(), 1.0)
    ref = dsl.catalog("warp_demo")
    assert spec.name == ref.name
    got = [dsl.to_source(e) for row in spec.entries for e in row]
    want = [dsl.to_source(e) for row in ref.entries for e in row]
    assert got == want


@pytest.mark.parametrize("lam", [0.5, 1, 5, 50])
def test_catalog_paper_G_is_the_assembled_fibration(lam):
    spec = dsl.catalog(f"paper_G({lam:g})")
    ref = assemble(paper_G_fibration(), lam)
    assert spec.entries == ref.entries
    assert spec.box == ref.box


def test_catalog_paper_base_and_fiber_come_from_the_fibration():
    f = paper_G_fibration()
    base = dsl.catalog("paper_base")
    assert (base.n, base.entries, base.box) == (f.m, f.base_entries, f.box[f.s:])
    # the fiber over c is the slice z2 = c of the assembled metric at any lam
    for lam in (1, 5):
        fiber = restrict(dsl.catalog(f"paper_G({lam})"), {2: 0.3 + 0.1j})
        want = tuple(tuple(dsl.map_vars(e, lambda k: dsl.Lit(0.3 + 0.1j) if k == 2
                                        else dsl.Var(k)) for e in row)
                     for row in f.fiber_entries)
        assert (fiber.n, fiber.entries, fiber.box) == (f.s, want, f.box[:f.s])


def test_fibration_round_trip(tmp_path):
    f = warp_demo_fibration()
    path = tmp_path / "fib.json"
    save_fibration(f, path)
    back = load_fibration(path)
    assert back.name == f.name and back.s == f.s and back.m == f.m
    assert back.mu0 == f.mu0 and back.box == f.box
    assert dsl.to_source(back.fiber_entries[0][0]) \
        == dsl.to_source(f.fiber_entries[0][0])


def test_fibration_shape_validation():
    box = (dsl.Rect(-0.5, 0.5, -0.5, 0.5),) * 2
    with pytest.raises(ValueError):
        dsl.fibration_from_dict({"name": "bad", "s": 1, "m": 1,
                                 "fiber_entries": [["1", "0"]],
                                 "base_entries": [["1"]],
                                 "mu0": 0.0,
                                 "box": [[-0.5, 0.5, -0.5, 0.5]] * 2})
    with pytest.raises(ValueError):
        FibrationSpec("bad", 0, 1, (), ((dsl.parse("1", 1),),), 0.0, box)
    for mu0 in (-1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="mu0"):
            dataclasses.replace(_flat_flat(), mu0=mu0)


def test_hypotheses_pass_on_demo():
    rep = check_hypotheses(warp_demo_fibration(), fiber_samples=3,
                           grid_per_axis=5, dirs=8, starts=1, iters=40)
    assert rep["base_min_hsc"] > 0
    assert rep["fiber_min_hsc"] > 0


def test_hypotheses_refuse_degenerate_fiber():
    """The bundled counterexample family: its fiber curvature vanishes at
    the center of every fiber, so the search must refuse the chart."""
    with pytest.raises(HypothesisViolationError) as err:
        check_hypotheses(paper_G_fibration(), fiber_samples=2,
                         grid_per_axis=5, dirs=8, starts=1, iters=40)
    assert err.value.side == "fiber"
    assert err.value.value <= warp.HYPOTHESIS_MARGIN
    # the first sampled fiber fails at its origin, where K vanishes
    assert repr(err.value.value) == "0.0"
    assert err.value.witness == {"base_point": [[-0.1871226766349648, 0.5060502167183413]],
                                 "fiber_point": [[0.0, 0.0]]}


def _warped_catalog_fiber(name: str, box=None) -> FibrationSpec:
    """The catalog metric name as the fiber block, warped by
    exp(|w|^2 / 4) in one base coordinate w, over the fs(1) base."""
    fiber = dsl.catalog(name)
    s = fiber.n
    factor = f"exp(z{s + 1}*conj(z{s + 1})/4)"
    entries = tuple(tuple(dsl.parse(f"{factor}*({dsl.to_source(e)})", s + 1) for e in row)
                    for row in fiber.entries)
    return FibrationSpec(f"warped_{name}", s, 1, entries,
                         ((dsl.parse("1/(1+z1*conj(z1))^2", 1),),), 0.0,
                         (box or fiber.box) + (dsl.Rect(-0.5, 0.5, -0.5, 0.5),))


@pytest.mark.parametrize("make, options", [
    (warp_demo_fibration, dict(grid_per_axis=7, dirs=16, seed=0, starts=2, iters=80)),
    (paper_G_fibration, dict(grid_per_axis=11, dirs=2, seed=0, starts=1, iters=1)),
    # d = 2 fibers: the exact minimizer
    (lambda: _warped_catalog_fiber("fs(2)"),
     dict(grid_per_axis=5, dirs=16, seed=0, starts=2, iters=80)),
    # d = 3 fibers off centre, every grid point under its own descent streams
    (lambda: _warped_catalog_fiber("fs(3)", off_centre(dsl.catalog("fs(3)").box)),
     dict(grid_per_axis=2, dirs=3, seed=1, starts=1, iters=5)),
])
def test_sampled_fiber_minima_are_those_of_each_slice(make, options):
    """The fiber blocks of one assembled curvature pass give, for every
    sampled fiber, the minimum and witness point of a scan of its slice
    alone, to rounding; on warp_demo bit for bit.  A warped fs(2) fiber
    has constant curvature, so its grid points tie and rounding picks
    the witness: there the witness must attain the slice's minimum."""
    f = make()
    total = f.metric(1.0, f.name)
    points, minima, witnesses = warp._sampled_fiber_minima(
        f, 3, np.random.default_rng([0, 17]), **options)
    rng = np.random.default_rng([0, 17])
    for c, value, w in zip(points, minima, witnesses):
        assert np.array_equal(c, dsl.box_sample(f.box[f.s:], rng, 1)[0])
        alone = positivity.scan_chart(
            restrict(total, {f.s + 1 + a: complex(z) for a, z in enumerate(c)}),
            **options)
        assert value == pytest.approx(alone.min_hsc, rel=1e-12, abs=0)
        at_w = alone.per_point_min[np.flatnonzero((alone.points == w).all(axis=1))]
        assert at_w.tolist() == pytest.approx([alone.min_hsc], rel=1e-12, abs=0)
        if f is warp_demo_fibration():
            assert np.float64(value).tobytes() == np.float64(alone.min_hsc).tobytes()
            assert w.tobytes() == np.array(alone.witness_point).tobytes()


@pytest.mark.parametrize("side", ["base", "fiber"])
def test_hypotheses_refuse_a_nan_minimum(monkeypatch, side):
    """A NaN minimum is not above HYPOTHESIS_MARGIN, so its side fails.
    The base minimum comes from scan_chart, the fiber minima from
    _sampled_fiber_minima; the NaN is put in the second fiber."""
    f = warp_demo_fibration()
    if side == "base":
        scan = warp.scan_chart

        def nan_scan(*args, **options):
            return dataclasses.replace(scan(*args, **options), min_hsc=float("nan"))

        monkeypatch.setattr(warp, "scan_chart", nan_scan)
    else:
        fibers = warp._sampled_fiber_minima

        def nan_in_second(*args, **options):
            points, minima, witnesses = fibers(*args, **options)
            minima[1] = np.nan
            return points, minima, witnesses

        monkeypatch.setattr(warp, "_sampled_fiber_minima", nan_in_second)
    with pytest.raises(HypothesisViolationError) as err:
        check_hypotheses(f, fiber_samples=3, grid_per_axis=5, dirs=8,
                         starts=1, iters=40)
    assert err.value.side == side and np.isnan(err.value.value)


def test_coordinate_slices_do_not_increase_curvature():
    rep = submanifold_decreasing_check(dsl.catalog("paper_G(1)"),
                                       {2: 0.3 + 0.2j}, trials=400, seed=3)
    assert rep["violations"] == 0


def test_nan_margin_counts_as_slice_violation(monkeypatch):
    """One NaN in the ambient (two-coordinate) curvature is a violation."""
    hsc = warp.hsc_dirs
    done = []

    def one_nan(g, R, dirs):
        out = hsc(g, R, dirs)
        if not done and np.shape(g)[-1] == 2:
            out[7, 0] = np.nan
            done.append(True)
        return out

    monkeypatch.setattr(warp, "hsc_dirs", one_nan)
    rep = submanifold_decreasing_check(dsl.catalog("paper_G(1)"),
                                       {2: 0.3 + 0.2j}, trials=400, seed=3)
    assert done and rep["violations"] >= 1
    assert np.isnan(rep["worst_margin"])


def test_base_direction_numerator_grows_linearly():
    rep = base_growth_check(warp_demo_fibration())
    assert rep["ok"]
    assert rep["slope"] == pytest.approx(1.0, abs=0.2)


def _fs2_base_fibration() -> FibrationSpec:
    """One warped fiber coordinate over the non-diagonal fs(2) base, at
    mu0 = 0.5 so that the scale mu0 + lam is not lam."""
    fs2 = dsl.catalog("fs(2)")
    fiber = dsl.parse("exp(z2*conj(z2) + z3*conj(z3)/2)/(1+z1*conj(z1))^2", 3)
    return FibrationSpec("fs2_base", 1, 2, ((fiber,),), fs2.entries, 0.5,
                         (dsl.Rect(-0.5, 0.5, -0.5, 0.5),) + fs2.box)


def _block_rel_error(got, want, s):
    """Worst error in the fiber and in the base block of the first two
    indices after the point axis, relative to that block's largest
    reference entry."""
    worst = 0.0
    for blk in (slice(0, s), slice(s, None)):
        ref = want[:, blk, blk]
        worst = max(worst, np.abs(got[:, blk, blk] - ref).max() / np.abs(ref).max())
    return worst


@pytest.mark.parametrize("lam", [1e-3, 0.3, 2.144, 100.0, 2.0 ** 20])
@pytest.mark.parametrize("make", [warp_demo_fibration, paper_G_fibration,
                                  _fs2_base_fibration])
def test_warped_curvature_matches_assembled_route(make, lam):
    f = make()
    pts = dsl.box_grid(f.box, 3)
    g, R = _at_scale(f, *curvature_at(f.metric(1.0, f.name), pts), lam)
    g_ref, R_ref = curvature_at(assemble(f, lam), pts)
    assert _block_rel_error(g, g_ref, f.s) <= 1e-12
    assert _block_rel_error(R, R_ref, f.s) <= 1e-12
    s = f.s
    assert not np.any(g[..., :s, s:]) and not np.any(g[..., s:, :s])
    assert not np.any(R[..., :s, s:, :, :]) and not np.any(R[..., s:, :s, :, :])


def test_warped_curvature_keeps_the_checks_of_the_assembled_route():
    f = warp_demo_fibration()
    pts = dsl.box_grid(f.box, 5)
    g1, R1 = curvature_at(f.metric(1.0, f.name), pts)
    with pytest.raises(IllConditionedError, match="3.620e"):
        _at_scale(f, g1, R1, 1e12)
    with pytest.raises(IllConditionedError, match="3.620e"):
        curvature_at(assemble(f, 1e12), pts)
    refused = "mu0 \\+ lam must be positive and finite"
    for lam in (0.0, float("inf")):
        with pytest.raises(ValueError, match=refused):
            _at_scale(f, g1, R1, lam)
        with pytest.raises(ValueError, match=refused):
            assemble(f, lam)
    with pytest.raises(ValueError, match="grid_per_axis"):
        lambda_search(f, grid_per_axis=1, skip_hypotheses=True)


def test_lambda_search_evaluates_jets_once(monkeypatch):
    """The search reads each entry jet of the scale-1 metric once, not
    once per lam."""
    calls = []
    eval_jet = dsl.eval_jet

    def counting(*args, **kwargs):
        calls.append(args[0])
        return eval_jet(*args, **kwargs)

    monkeypatch.setattr(dsl, "eval_jet", counting)
    f = warp_demo_fibration()
    res = lambda_search(f, skip_hypotheses=True)
    assert len(calls) == f.n ** 2
    assert res.lambda_star == pytest.approx(2.12243686161123, rel=1e-12)


@pytest.mark.parametrize("grid", [5, 9])
def test_lambda_search_newton_solve_is_exact_per_point(monkeypatch, grid):
    """At most 12 Newton passes whose per-point iterates never decrease;
    each point's threshold separates negative from positive minima on
    the assembled route."""
    f = warp_demo_fibration()
    pts = dsl.box_grid(f.box, grid)
    scales = {}
    inner = warp._affine_min_over_dirs

    def recording(*args):
        solve = inner(*args)

        def recorded(c, rows):
            # a Newton pass at the scales c = mu0 + lam of the points rows
            for p, scale in zip(rows, c):
                scales.setdefault(int(p), []).append(scale)
            return solve(c, rows)

        return recorded

    monkeypatch.setattr(warp, "_affine_min_over_dirs", recording)
    res = lambda_search(f, grid_per_axis=grid, skip_hypotheses=True)
    monkeypatch.undo()
    assert res.newton_passes <= 12
    assert max(len(v) for v in scales.values()) == res.newton_passes
    assert all(np.all(np.diff(v) >= 0) for v in scales.values())
    assert res.lambda_star == pytest.approx(
        res.thresholds.max() * (1 + warp.STAR_MARGIN), rel=1e-15)
    late = np.flatnonzero(res.thresholds > warp.LAMBDA_START)
    picks = np.random.default_rng(grid).choice(late, 16, replace=False)
    for p in picks:
        lam = res.thresholds[p]
        below = min_hsc_at_point(assemble(f, lam * (1 - 1e-6)), pts[p])[0]
        above = min_hsc_at_point(assemble(f, lam * (1 + 1e-9)), pts[p])[0]
        assert below < 0 < above, (p, lam, below, above)


def _per_pass_search(f, grid_per_axis=5, dirs=24, starts=4, iters=120, seed=0):
    """The pass loop of lambda_search as it was when each pass rescaled
    the base rows of the scale-1 tensor and ran the direction minimizer
    and hsc_dirs on the result: the reference for the per-search Bloch
    quadratics.  Returns (points, thresholds, passes, never, capped)."""
    pts = dsl.box_grid(f.box, grid_per_axis)
    g1, R1 = curvature_at(f.metric(1.0, f.name), pts)
    s = f.s
    R_base = np.zeros_like(R1)
    R_base[:, s:, s:] = R1[:, s:, s:]
    P = pts.shape[0]
    # the proof of failure at each point's best fiber direction, where B = 0
    fiber_min, fiber_dir = _min_over_dirs(g1[:, :s, :s], R1[:, :s, :s, :s, :s],
                                          dirs, starts, iters, seed, range(P))
    never = fiber_min <= 0
    capped = np.zeros(P, dtype=bool)
    wdir = np.zeros_like(pts)
    wdir[:, :s] = fiber_dir
    lam = np.full(P, warp.LAMBDA_START)
    active = np.flatnonzero(~never)
    at_start, passes = False, 0
    while active.size:
        passes += 1
        old = lam[active]
        R = R1[active]  # a copy: integer indexing
        R[:, s:, s:] *= (f.mu0 + old)[:, None, None, None, None]
        m, xi = _min_over_dirs(g1[active], R, dirs, starts, iters, seed, active)
        slope = hsc_dirs(g1[active], R_base[active], xi[:, None])[:, 0]
        wdir[active] = xi
        if passes == 1:
            at_start = not never.any() and bool(np.all(m > 0))
        rising = (m <= 0) & (slope > 0)
        with np.errstate(over="ignore"):
            new = np.where(rising, old - m / np.where(rising, slope, 1.0), old)
        never[active[(m <= 0) & ~rising]] = True
        capped[active[new > warp.LAMBDA_MAX]] = True
        lam[active] = new
        active = active[rising & (new <= warp.LAMBDA_MAX)
                        & (new - old > warp.NEWTON_RTOL * new)]
    return pts, lam, passes, never, capped


@pytest.mark.parametrize("grid", [5, 9])
def test_bloch_passes_match_the_per_pass_loop(grid):
    f = warp_demo_fibration()
    res = lambda_search(f, grid_per_axis=grid, skip_hypotheses=True)
    _, lam, passes, never, capped = _per_pass_search(f, grid_per_axis=grid)
    assert not never.any() and not capped.any()
    assert res.newton_passes == passes
    np.testing.assert_allclose(res.thresholds, lam, rtol=1e-12, atol=0)


def _cornered_fibration() -> FibrationSpec:
    """Fiber curvature negative at the fiber corners over Re z2 >~ 0.61
    for every lam (the fibration of the cli test of an unreached
    threshold)."""
    fiber = "exp(0.00124*z1*conj(z1)*exp(5*(z2+conj(z2))))/(1+z1*conj(z1))^2"
    box = (dsl.Rect(-0.67, 0.67, -0.67, 0.67),) * 2
    return FibrationSpec("cornered", 1, 1, ((dsl.parse(fiber, 2),),),
                         ((dsl.parse("1/(1+z1*conj(z1))", 1),),), 0.0, box)


@pytest.mark.parametrize("make, lam_max", [
    (paper_G_fibration, warp.LAMBDA_MAX),
    (_cornered_fibration, warp.LAMBDA_MAX),
    (warp_demo_fibration, 1.0)])
def test_bloch_passes_keep_the_failure_verdicts(monkeypatch, make, lam_max):
    monkeypatch.setattr(warp, "LAMBDA_MAX", lam_max)
    f = make()
    pts, _, _, never, capped = _per_pass_search(f)
    assert never.any() or capped.any()
    with pytest.raises(ThresholdNotReachedError) as err:
        lambda_search(f, skip_hypotheses=True)
    first = int(np.flatnonzero(never | capped)[0])
    assert str(err.value).startswith(
        f"{int(never.sum())} grid point(s) never positive and "
        f"{int(capped.sum())} not positive up to lam = {lam_max:g};")
    assert _named_point(str(err.value)) == list(pts[first])


def test_descent_passes_are_bit_identical_to_the_per_pass_loop():
    """d = 3 runs probe plus descent on R_fixed + c * R_rate, which
    equals the rescaled base rows bit for bit.  The box is moved off
    centre, so every grid point is evaluated, as in the loop."""
    f = _fs2_base_fibration()
    f = dataclasses.replace(f, box=off_centre(f.box))
    options = dict(grid_per_axis=2, dirs=4, starts=1, iters=10)
    res = lambda_search(f, skip_hypotheses=True, **options)
    _, lam, passes, never, capped = _per_pass_search(f, **options)
    assert not never.any() and not capped.any()
    assert res.newton_passes == passes
    assert np.array_equal(res.thresholds, lam)
    assert np.all(lam > warp.LAMBDA_START)


def test_default_search_reads_per_search_quadratics(monkeypatch):
    """The Newton passes share one frame and two Bloch quadratics per
    search: hsc_dirs runs only in the base scan, the one pass over the
    sampled fibers, the fiber proof and the one pass over the four
    reported grid minima, and _sphere_quadratic only for the two
    quadratics and those minima."""
    calls = {"hsc_dirs": 0, "_sphere_quadratic": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    counting(positivity, "hsc_dirs")
    counting(warp, "hsc_dirs")
    counting(positivity, "_sphere_quadratic")
    res = lambda_search(warp_demo_fibration())
    assert calls == {"hsc_dirs": 4, "_sphere_quadratic": 3}
    assert res.newton_passes == 6


def _named_point(message: str):
    """The grid point a ThresholdNotReachedError names, as complex numbers."""
    pairs = json.loads(re.search(r"first at point (\[.*?\]\]),", message)[1])
    return [complex(re_, im) for re_, im in pairs]


def test_paper_G_threshold_fails_at_the_fiber_origins():
    """The 25 grid points on the fiber origins z1 = 0 are proved never
    positive, at once, with no overflow on the way."""
    f = paper_G_fibration()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ThresholdNotReachedError,
                           match=r"^25 grid point\(s\) never positive and 0 ") as err:
            lambda_search(f, skip_hypotheses=True)
    assert time.perf_counter() - start < 1.0
    assert _named_point(str(err.value))[0] == 0


def test_lambda_search_names_points_past_the_cap(monkeypatch):
    monkeypatch.setattr(warp, "LAMBDA_MAX", 1.0)
    with pytest.raises(ThresholdNotReachedError,
                       match=r"0 grid point\(s\) never positive and [1-9]\d* "
                             r"not positive up to lam = 1;") as err:
        lambda_search(warp_demo_fibration(), skip_hypotheses=True)
    assert len(_named_point(str(err.value))) == 2


def test_lambda_search_finds_positive_threshold():
    options = dict(grid_per_axis=3, dirs=8, starts=1, iters=30, bisections=3,
                   skip_hypotheses=True)
    res = lambda_search(warp_demo_fibration(), **options)
    # reproducible, and comparable although it carries arrays
    assert lambda_search(warp_demo_fibration(), **options) == res
    assert np.isfinite(res.lambda_star) and res.lambda_star > 0
    assert res.min_hsc_at_star > 0
    lam0, val0 = res.history[0]
    assert lam0 == 1e-3 and val0 < -1e-8
    assert all(v > 0 for _, v in res.persistence)
    assert res.positive_at_start is False
    d = res.as_dict()
    assert d["lambda_star"] == res.lambda_star


def test_lambda_search_reports_positive_at_start():
    """A product of two sphere charts is positive for every lam > 0, so
    the search can only say the threshold is at most its start."""
    fs = "1/(1+z1*conj(z1))^2"
    box = (dsl.Rect(-0.5, 0.5, -0.5, 0.5),) * 2
    f = FibrationSpec("fs_x_fs", 1, 1, ((dsl.parse(fs, 2),),),
                      ((dsl.parse(fs, 1),),), 0.0, box)
    res = lambda_search(f, grid_per_axis=3, skip_hypotheses=True)
    assert res.positive_at_start is True
    assert res.lambda_star == warp.LAMBDA_START
    assert len(res.history) == 1 and res.min_hsc_at_star > 0
    assert res.as_dict()["positive_at_start"] is True


def test_lambda_search_cap_is_threshold_not_reached():
    with pytest.raises(ThresholdNotReachedError):
        lambda_search(_flat_flat(), grid_per_axis=2, skip_hypotheses=True)


def test_family_negativity_report_small():
    rep = warp.family_negativity_report(lam_values=(0.5, 2.0),
                                        fiber_samples=4, budget=3000)
    assert rep["all_negative"]
    assert rep["base"]["positive"]
    assert rep["fiber_min"] >= -1e-8
    assert rep["fiber_origin_max_abs"] <= 1e-9
    assert rep["ok"] is True
    vals = [w["witness"]["value"] for w in rep["witnesses"]]
    # negativity shrinks like 1/lam along the family
    assert vals[0] == pytest.approx(4.0 * vals[1], rel=1e-6)


def _nan_on_call(monkeypatch, module, name, call, put_nan):
    """Wrap module.name so that its output on the call-th call (from 1)
    goes through put_nan before it is returned."""
    inner = getattr(module, name)
    calls = []

    def wrapped(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(True)
        return put_nan(out) if len(calls) == call else out

    monkeypatch.setattr(module, name, wrapped)


def _nan_in_third_of_four(out):
    out = np.array(out, dtype=float)
    out[2 * len(out) // 4 + 1] = np.nan
    return out


@pytest.mark.parametrize("field", ["fiber_min", "fiber_origin_max_abs"])
def test_family_report_folds_a_later_nan(monkeypatch, field):
    """A NaN fiber minimum or origin value in the third of four fibers
    fails the report: the folds do not skip it."""
    if field == "fiber_min":
        # the fibers' minimizer pass comes second, after the base scan;
        # its rows are the four fibers' points in draw order
        _nan_on_call(monkeypatch, positivity, "hsc_dirs", 2, _nan_in_third_of_four)
    else:
        _nan_on_call(monkeypatch, warp, "gaussian_curvature_1d", 3, lambda out: np.nan)
    rep = warp.family_negativity_report(lam_values=(0.5, 2.0), fiber_samples=4,
                                        budget=3000)
    assert np.isnan(rep[field]) and rep["ok"] is False


def test_base_growth_refuses_a_later_nan_numerator(monkeypatch):
    _nan_on_call(monkeypatch, warp, "quartic", 2, lambda out: np.full_like(out, np.nan))
    with pytest.raises(ArithmeticError, match="numerator not positive along the base"):
        base_growth_check(warp_demo_fibration())


def test_family_report_refuses_bad_input_before_scanning(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before checking the input")

    monkeypatch.setattr(warp, "scan_chart", no_scan)
    with pytest.raises(ValueError, match="first witness stage"):
        warp.family_negativity_report(budget=600)
    with pytest.raises(KeyError):
        warp.family_negativity_report(lam_values=(1.0, -1.0))


def test_zero_counts_are_refused_before_any_work(monkeypatch):
    # no trials would pass vacuously, no fiber samples leave no minimum
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before checking the count")

    monkeypatch.setattr(warp, "scan_chart", no_scan)
    with pytest.raises(ValueError, match="fiber_samples must be at least 1, got 0"):
        warp.family_negativity_report(fiber_samples=0)
    with pytest.raises(ValueError, match="fiber_samples must be at least 1, got 0"):
        check_hypotheses(warp_demo_fibration(), fiber_samples=0)
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        submanifold_decreasing_check(dsl.catalog("paper_G(1)"), {2: 0j}, trials=0)
