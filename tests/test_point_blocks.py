"""Per-point passes run in blocks of at most curvature.POINT_BLOCK points.

The block bounds a scan's working memory and changes no bit of any
result: every point's arithmetic is independent of the other points of
its batch, and the gate's statistics are maxima over points.  The
product-inequality trials and the brute-force directions of the
acceptance suite run in blocks of the same size.  The tests that count
blocks or measure memory scan their charts on a box moved off centre,
which dsl.grid_orbits refuses, so every grid point is evaluated.
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from conftest import off_centre, scan_peak_above_kept, traced_peak
from hsclab import acceptance, certify, dsl, warp
from hsclab.curvature import IllConditionedError, check_tensor, metric_jet
from hsclab.positivity import scan_chart
from hsclab.wirtinger import SingularPointError

# the package attribute hsclab.curvature is the function curvature
curvature = importlib.import_module("hsclab.curvature")
positivity = importlib.import_module("hsclab.positivity")


def _record_rows(monkeypatch):
    """Wrap the four per-point passes; returns {name: [rows per call]}."""
    seen = {}

    def wrap(module, name, rows_of):
        inner = getattr(module, name)

        def recording(*args, **kwargs):
            seen.setdefault(name, []).append(rows_of(*args))
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)

    wrap(dsl, "eval_jet", lambda entries, n, pts: math.prod(pts.shape[:-1]))
    wrap(curvature, "curvature", lambda jet, *_: math.prod(jet[0].shape[:-2]))
    wrap(positivity, "_exact_min", lambda g, *_: g.shape[0])
    wrap(positivity, "_probe_and_descend", lambda g, *_: g.shape[0])
    return seen


def test_default_scan_runs_in_blocks(monkeypatch):
    seen = _record_rows(monkeypatch)
    spec = dsl.catalog("paper_G(1)")
    rep = scan_chart(spec, box=off_centre(spec.box))
    assert rep.points_scanned == rep.orbits_evaluated == 6561
    for name in ("eval_jet", "curvature", "_exact_min"):
        assert len(seen[name]) == 7 and sum(seen[name]) == 6561, name
        assert max(seen[name]) <= curvature.POINT_BLOCK, name
    assert "_probe_and_descend" not in seen


def test_descent_scan_runs_in_blocks(monkeypatch):
    monkeypatch.setattr(curvature, "POINT_BLOCK", 10)
    seen = _record_rows(monkeypatch)
    spec = dsl.catalog("fs(3)")
    scan_chart(spec, box=off_centre(spec.box), grid_per_axis=2, dirs=4, starts=1,
               iters=5)
    for name in ("eval_jet", "curvature", "_probe_and_descend"):
        assert len(seen[name]) == 7 and sum(seen[name]) == 64, name
        assert max(seen[name]) <= 10, name


def test_lambda_search_runs_in_blocks(monkeypatch):
    monkeypatch.setattr(curvature, "POINT_BLOCK", 100)
    seen = _record_rows(monkeypatch)
    f = warp.warp_demo_fibration()
    res = warp.lambda_search(dataclasses.replace(f, box=off_centre(f.box)))
    assert res.orbits_evaluated == 625
    assert set(seen) >= {"eval_jet", "curvature", "_exact_min"}
    # 625 grid points: the jet pass, the fiber proof and each checked grid
    # minimum each reach 625 rows in blocks
    assert seen["eval_jet"].count(100) >= 6
    assert all(rows <= 100 for counts in seen.values() for rows in counts)


def _scan_bytes(spec, **options):
    rep = scan_chart(spec, **options)
    return (rep.per_point_min.tobytes(), np.array(rep.witness_dir).tobytes(),
            json.dumps(rep.as_dict(), sort_keys=True))


@pytest.mark.parametrize("name,options", [
    ("paper_G(1)", dict(grid_per_axis=5)),
    ("ball(2)", dict(grid_per_axis=5)),
    ("fs(3)", dict(grid_per_axis=2, seed=0)),
])
def test_block_size_changes_no_bit_of_a_scan(monkeypatch, name, options):
    spec = dsl.catalog(name)
    results = []
    for block in (7, 10 ** 6):
        monkeypatch.setattr(curvature, "POINT_BLOCK", block)
        results.append(_scan_bytes(spec, **options))
    assert results[0] == results[1]


def test_block_size_changes_no_bit_of_a_lambda_search(monkeypatch):
    """Blocks of 7 rows cut the stacked fiber slices of check_hypotheses
    and the stacked grid minima across their parts."""
    results = []
    f = warp.warp_demo_fibration()
    for block in (7, 10 ** 6):
        monkeypatch.setattr(curvature, "POINT_BLOCK", block)
        res = warp.lambda_search(f)
        results.append((res.thresholds.tobytes(),
                        json.dumps(res.as_dict(), sort_keys=True),
                        json.dumps(warp.check_hypotheses(f, fiber_samples=7))))
    assert results[0] == results[1]


def test_stacked_grid_minima_hold_one_block_of_rows():
    """The four checked grid minima of a lam search run in one pass whose
    rescaled rows are built one block at a time: at grid 17 (1764
    orbits) the search's traced peak stays that of its jet pass, 8.02 MB,
    where four whole rescaled copies at once peak at 11.71 MB."""
    f = warp.warp_demo_fibration()
    warp.lambda_search(f, skip_hypotheses=True)  # one-time allocations
    peak = traced_peak(lambda: warp.lambda_search(f, grid_per_axis=17,
                                                  skip_hypotheses=True))
    assert peak < 1.05 * 8_020_000


def _metric_file(tmp_path, n, entries, box):
    """Save a diagonal metric of the given entry sources and load it back."""
    path = tmp_path / "metric.json"
    rows = tuple(tuple(dsl.parse(src if i == j else "0", n) for j in range(n))
                 for i, src in enumerate(entries))
    dsl.save_spec(dsl.MetricSpec("blocked", n, rows, box), path)
    return dsl.load_spec(path)


def _message(monkeypatch, block, error, fn):
    monkeypatch.setattr(curvature, "POINT_BLOCK", block)
    with pytest.raises(error) as info:
        fn()
    return str(info.value)


def test_gate_prints_the_worst_condition_of_the_grid(monkeypatch, tmp_path):
    # kappa = g22 / g11 grows with re1 and re2; grid order puts re1 = 0.5
    # (kappa >= e^30 > COND_LIMIT) at indices 54..80, so the first failing
    # block of 5 is 50..54, and the worst, e^32, lies in later blocks
    spec = _metric_file(tmp_path, 2, ["1", "exp(30*(z1+conj(z1))+2*(z2+conj(z2)))"],
                        (dsl.Rect(0, 0.5, 0, 0.5), dsl.Rect(0, 0.5, 0, 0.5)))
    scan = lambda: scan_chart(spec, grid_per_axis=3)  # noqa: E731
    unblocked = _message(monkeypatch, 10 ** 6, IllConditionedError, scan)
    assert _message(monkeypatch, 5, IllConditionedError, scan) == unblocked
    g = metric_jet(spec, dsl.box_grid(spec.box, 3)).g
    cond = np.linalg.cond(g)
    assert np.flatnonzero(cond > 1e12)[0] == 54 and cond[50:55].max() < cond.max()
    assert unblocked == f"metric condition number {cond.max():.3e} exceeds 1e+12"


def test_gate_fails_a_nan_in_a_later_block(monkeypatch):
    # exp(700) is finite but its mixed derivative overflows: R is NaN at
    # the five points of re1 = 1, the last of the grid
    hot = dsl.MetricSpec("hot", 1, ((dsl.parse("exp(350*(z1+conj(z1)))", 1),),),
                         (dsl.Rect(0.0, 1.0, 0.0, 0.01),))
    scan = lambda: scan_chart(hot, grid_per_axis=5)  # noqa: E731
    with np.errstate(all="ignore"):
        unblocked = _message(monkeypatch, 10 ** 6, ArithmeticError, scan)
        assert _message(monkeypatch, 4, ArithmeticError, scan) == unblocked
    assert unblocked.startswith("curvature pair-symmetry defect nan")
    # a NaN metric entry in the last block of check_tensor
    g = np.broadcast_to(np.eye(2, dtype=complex), (50, 2, 2)).copy()
    g[47, 1, 1] = np.nan
    g[3, 1, 1] = 1e-20  # a huge condition number in an earlier block hides nothing
    R = np.zeros((50, 2, 2, 2, 2), dtype=complex)
    msg = _message(monkeypatch, 5, IllConditionedError, lambda: check_tensor(g, R))
    assert msg == "metric condition number nan exceeds 1e+12"


def test_non_positive_point_is_named_by_its_global_index(monkeypatch, tmp_path):
    # g22 = 0.3 - 2 re1 is negative first at re1 = 0.5, grid index 54
    spec = _metric_file(tmp_path, 2, ["1", "0.3-(z1+conj(z1))"],
                        dsl._square_box(2, 0.5))
    scan = lambda: scan_chart(spec, grid_per_axis=3)  # noqa: E731
    unblocked = _message(monkeypatch, 10 ** 6, ArithmeticError, scan)
    assert unblocked == "metric is not positive definite at point index 54"
    assert _message(monkeypatch, 5, ArithmeticError, scan) == unblocked


def test_reciprocal_prints_the_smallest_modulus_of_its_block(monkeypatch):
    """The one message that follows the block: 1/f with f = 2 re - 2e-13 im
    is 1e-13 at index 3, 0 at index 4 and -1e-13 at index 5 of the grid.
    Unblocked, the batch minimum 0 is printed; in blocks of 4 the first
    block (indices 0..3) raises with its own minimum, 1e-13."""
    spec = dsl.MetricSpec(
        "pole", 1,
        ((dsl.parse("1/(z1+conj(z1)+0.0000000000001*i*(z1-conj(z1)))", 1),),),
        dsl._square_box(1, 0.5))
    scan = lambda: scan_chart(spec, grid_per_axis=3)  # noqa: E731
    assert _message(monkeypatch, 10 ** 6, SingularPointError, scan) == \
        "division by jet with value modulus 0.000e+00"
    assert _message(monkeypatch, 4, SingularPointError, scan) == \
        "division by jet with value modulus 1.000e-13"


def test_scan_memory_does_not_grow_with_the_grid():
    """28561 points against 6561: without blocks the difference is about
    37 MB of jet, tensor, gate and minimizer temporaries."""
    assert abs(scan_peak_above_kept(13) - scan_peak_above_kept(9)) < 1_000_000


# -- sampled acceptance checks ----------------------------------------------


def _unblocked_product_check(a, b, c, d, trials, seed):
    """product_inequality_check as one (trials, 6) draw and one pass."""
    rng = np.random.default_rng(seed)
    slacks = certify.product_inequality_slacks(
        a, b, c, d, rng.uniform(0.0, 3.0, size=(trials, 6)))
    return {"trials": trials, "seed": seed,
            "violations": int(np.sum(~(slacks >= -certify.BOUND_TOL))),
            "worst_slack": float(slacks.min())}


@pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2049, 100000])
def test_product_check_blocks_change_no_bit(trials):
    w = certify.choose_weights(8.0, 1.0, 2, 1)
    for seed in (0, 1, 2):
        assert certify.product_inequality_check(w.a, w.b, w.c, w.d, trials, seed) \
            == _unblocked_product_check(w.a, w.b, w.c, w.d, trials, seed)


def test_product_check_reports_a_nan_in_a_later_block(monkeypatch):
    slacks, calls = certify.product_inequality_slacks, []

    def nan_in_second(*args):
        out = slacks(*args)
        calls.append(len(out))
        if len(calls) == 2:
            out[5, 2] = np.nan
        return out

    monkeypatch.setattr(certify, "product_inequality_slacks", nan_in_second)
    rep = certify.product_inequality_check(1.0, 1.0, 1.0, 1.0, trials=2500)
    assert calls == [1024, 1024, 452]
    assert rep["violations"] == 1
    assert math.isnan(rep["worst_slack"])


def test_product_check_memory_does_not_grow_with_trials():
    """Holding every trial at once costs 96 bytes a trial: 8.6 MB more
    at 1e5 trials than at 1e4."""
    def peak(trials):
        return traced_peak(
            lambda: certify.product_inequality_check(1.0, 1.0, 1.0, 1.0, trials))
    certify.product_inequality_check(1.0, 1.0, 1.0, 1.0, 10000)  # one-time allocations
    assert abs(peak(100000) - peak(10000)) < 500_000


def test_brute_force_direction_blocks_change_no_bit(monkeypatch):
    blocked = [acceptance.check_exact_direction_minimum(seed) for seed in (0, 1)]
    # one block of all 2000 directions at 16 points: the whole-array route
    monkeypatch.setattr(acceptance, "POINT_BLOCK", 16 * 2000)
    whole = [acceptance.check_exact_direction_minimum(seed) for seed in (0, 1)]
    assert blocked == whole


def test_brute_force_directions_run_in_bounded_memory():
    """Evaluated whole, the 16 x 2000 directions and their quartic
    temporaries peak at 5.4 MB."""
    assert traced_peak(lambda: acceptance.check_exact_direction_minimum(0)) < 3_000_000


def test_point_blocks_hold_no_list_of_slices():
    """A list of every slice costs about 124 bytes a block: the product
    check's peak at 1e6 trials would be about 124 KB above its peak at
    1e4."""
    def peak(trials):
        return traced_peak(
            lambda: certify.product_inequality_check(1.0, 1.0, 1.0, 1.0, trials))
    peak(10_000)  # a first call's one-time allocations, about 0.9 MB, are not the blocks'
    assert abs(peak(1_000_000) - peak(10_000)) < 50_000


# the sampled direction checks draw every real part, then every imaginary
# part, into one complex array; the references below join two whole draws
# as a + 1j*b and normalize with one whole np.linalg.norm

def _whole_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _whole_draw_margins(t, trials, seed):
    """(fiber_margin, base_margin) of check_block_hypotheses, each half
    drawn whole."""
    rng = np.random.default_rng(seed)
    margins = []
    for side, lower in ((slice(None, t.s), t.fiber_lower), (slice(t.s, None), t.base_lower)):
        x = _whole_normal(rng, (trials, len(range(t.n)[side])))
        q = certify.quartic(t.R[side, side, side, side], x).real
        m = (np.abs(x) ** 2).sum(axis=1) ** 2
        margins.append(float(((q - lower * m) / np.maximum(1.0, np.abs(lower) * m)).min()))
    return margins


def _whole_draw_split_check(t, w, trials, seed):
    """split_bound_check with its directions drawn and normalized whole."""
    rng = np.random.default_rng(seed)
    xi = _whole_normal(rng, (trials, t.n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    num = certify.quartic(t.R, xi).real
    sf = (np.abs(xi[:, :t.s]) ** 2).sum(axis=1) ** 2
    sb = (np.abs(xi[:, t.s:]) ** 2).sum(axis=1) ** 2
    rhs = 0.5 * t.fiber_lower * sf + (t.base_lower - t.mixed_bound * w.required_ratio) * sb
    margin = (num - rhs) / np.maximum(1.0, np.abs(num) + np.abs(rhs))
    return {
        "trials": trials, "seed": seed,
        "violations": int(np.sum(~(margin >= -certify.BOUND_TOL))),
        "worst_margin": float(margin.min()),
        "min_quartic": float(num.min()),
        "all_strictly_positive": bool(np.all(num > 0)),
        "worst_direction": dsl._vec_dict(xi[int(np.argmin(margin))]),
    }


_DRAW_CASES = [(2, 1, 0), (3, 1, 7), (4, 2, 3), (5, 2, 11), (6, 4, 5)]


def _block_tensor(n, s, seed):
    w = certify.choose_weights(3.0, 1.0, n, s)
    return certify.random_block_tensor(3.0, 1.0, w.base_required, n, s, seed), w


@pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 10000])
def test_block_hypotheses_draws_change_no_bit(trials):
    for n, s, seed in _DRAW_CASES:
        t, _ = _block_tensor(n, s, seed)
        rep = certify.check_block_hypotheses(t, trials, seed)
        assert repr([rep["fiber_margin"], rep["base_margin"]]) == \
            repr(_whole_draw_margins(t, trials, seed)), (n, s, seed)


@pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 10000])
def test_split_check_draws_change_no_bit(trials):
    for n, s, seed in _DRAW_CASES:
        t, w = _block_tensor(n, s, seed)
        assert json.dumps(certify.split_bound_check(t, w, trials, seed)) == \
            json.dumps(_whole_draw_split_check(t, w, trials, seed)), (n, s, seed)


def test_split_check_reports_a_nan_margin_in_a_late_row(monkeypatch):
    quartic, seen = certify.quartic, []

    def nan_at_9500(R, dirs):
        out = quartic(R, dirs)
        seen.append(dirs[9500].copy())
        out[9500] = np.nan
        return out

    monkeypatch.setattr(certify, "quartic", nan_at_9500)
    t, w = _block_tensor(5, 2, 0)
    rep = certify.split_bound_check(t, w, 10000, 0)
    assert math.isnan(rep["worst_margin"]) and math.isnan(rep["min_quartic"])
    assert rep["violations"] == 1 and not rep["all_strictly_positive"]
    assert rep["worst_direction"] == dsl._vec_dict(seen[0])


def test_quartic_holds_one_block_of_temporaries():
    """Each block's X and Y are 410 KB at d = 5; holding the previous
    block's pair while the next forms peaks at 1.74 MB."""
    rng = np.random.default_rng(0)
    R = rng.standard_normal((5,) * 4) + 1j * rng.standard_normal((5,) * 4)
    dirs = _whole_normal(rng, (10000, 5))
    assert traced_peak(lambda: curvature.quartic(R, dirs)) < 1_300_000


@pytest.mark.parametrize("trials,bound", [(10000, 2_100_000), (100000, 16_000_000)])
def test_split_check_holds_one_complex_draw(trials, bound):
    """At n = 5, joining two whole draws as a + 1j*b peaks at 2.54 MB at
    1e4 trials, and one whole np.linalg.norm at 17.6 MB at 1e5 trials,
    where the 8 MB draw outweighs the quartic's blocks."""
    t, w = _block_tensor(5, 2, 0)
    assert traced_peak(lambda: certify.split_bound_check(t, w, trials, 0)) < bound


def test_scan_holds_one_block_of_jets():
    """Holding the previous block's MetricJet and quartic temporaries
    while the next block forms its own peaks at 1.875 MB above the kept
    arrays."""
    assert scan_peak_above_kept(9) < 1_500_000
