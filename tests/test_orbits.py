"""Torus orbits of a chart grid: the charge detector, the orbit classes,
and scans and lam searches that evaluate one point per orbit.

Every bundled metric is invariant under z_k -> e^{i theta_k} z_k, so K(p, .)
depends only on |p_1|, ..., |p_n|.  The references below evaluate every
grid point (curvature_at and _min_over_dirs on the whole grid, or the
search with dsl.grid_orbits refusing every chart)."""

import dataclasses
import time

import numpy as np
import pytest

from conftest import off_centre
from hsclab import dsl, positivity, warp
from hsclab.curvature import curvature_at, restrict
from hsclab.positivity import (_min_over_dirs, points_to_csv, scan_chart,
                               scan_to_csv)


def _mutated(spec, term: str) -> dsl.MetricSpec:
    """spec with term added to its first diagonal entry."""
    entries = [list(row) for row in spec.entries]
    entries[0][0] = dsl.Binary("+", entries[0][0], dsl.parse(term, spec.n))
    return dataclasses.replace(spec, name=f"{spec.name}+{term}",
                               entries=tuple(map(tuple, entries)))


def _full_grid(spec, grid, **options):
    """Every grid point's direction minimum and direction, as scan_chart
    computes them on a chart the detector refuses."""
    pts = dsl.box_grid(spec.box, grid)
    g, R = curvature_at(spec, pts)
    vals, wdirs = _min_over_dirs(g, R, options.get("dirs", positivity.DEFAULT_DIRS),
                                 options.get("starts", positivity.DEFAULT_STARTS),
                                 options.get("iters", positivity.DEFAULT_ITERS),
                                 options.get("seed", 0), range(len(pts)))
    return pts, vals, wdirs


def _refuse_every_chart(monkeypatch):
    """Make dsl.grid_orbits refuse every chart: the full-grid route."""
    monkeypatch.setattr(dsl, "grid_orbits", lambda spec, per_axis: None)


# -- the detector -------------------------------------------------------------

ACCEPTED = ("flat(1)", "flat(3)", "poincare", "fs_affine", "paper_base",
            "paper_G(1)", "paper_G(50)", "warp_demo", "fs(2)", "fs(3)",
            "ball(2)", "ball(3)")


@pytest.mark.parametrize("name", ACCEPTED)
def test_detector_accepts_every_bundled_metric(name):
    assert dsl.torus_invariant(dsl.catalog(name))


def test_detector_accepts_the_fiber_slices_of_the_hypothesis_scans():
    for f in (warp.paper_G_fibration(), warp.warp_demo_fibration()):
        total = f.metric(1.0, f.name)
        for c in (0j, 0.3 - 0.2j):
            assert dsl.torus_invariant(restrict(total, {2: c}))
        assert dsl.torus_invariant(f.base_spec())


@pytest.mark.parametrize("spec", [
    _mutated(dsl.catalog("poincare"), "0.01*(z1+conj(z1))"),
    _mutated(dsl.catalog("warp_demo"), "0.01*z1"),
    _mutated(dsl.catalog("poincare"), "0.01*exp(z1)"),
    _mutated(dsl.catalog("poincare"), "(z1-z1)"),
    dataclasses.replace(dsl.catalog("paper_G(1)"),
                        box=off_centre(dsl.catalog("paper_G(1)").box)),
    dataclasses.replace(dsl.catalog("poincare"), box=(dsl.Rect(-0.5, 0.5, -0.4, 0.4),)),
    _mutated(dsl.catalog("fs(2)"), "(0*z1+z2)*conj(z2)"),
], ids=["z1+conj(z1)", "+0.01*z1", "exp(z1)", "z1-z1", "off-centre", "non-square",
        "zero-in-a-sum"])
def test_detector_refuses(spec):
    assert not dsl.torus_invariant(spec)
    assert dsl.grid_orbits(spec, 5) is None


@pytest.mark.parametrize("src, charge", [
    ("z1*conj(z2)", (1, -1)),
    ("z1^3/z2", (3, -1)),
    ("conj(z1^-2)", (2, 0)),
    ("(z1+conj(z1))^0", (0, 0)),
    ("0*(z1+conj(z1))", None),
    ("0*z1+z2", None),
    ("exp(z1*conj(z1))*z2", (0, 1)),
    ("-z1+2*z1", (1, 0)),
    ("z1-z1", (1, 0)),
    ("z1+z2", None),
    ("exp(z1)", None),
    ("1/0", (0, 0)),
    # a constant c is e^{i 0.theta} c, zero included
    ("0", (0, 0)),
    ("0*z1", (1, 0)),
    ("0^0", (0, 0)),
    ("0^-1", (0, 0)),
])
def test_charge_rules(src, charge):
    assert dsl._charge(dsl.parse(src, 2), 2) == charge


def test_a_whole_zero_entry_is_exempt():
    """The off-diagonal zeros of a diagonal metric carry charge 0, not
    e_j - e_i, and are accepted as they stand."""
    for name in ("flat(2)", "paper_G(1)"):
        spec = dsl.catalog(name)
        assert spec.entries[0][1] == dsl.Lit(0j)
        assert dsl._charge(spec.entries[0][1], 2) == (0, 0)
        assert dsl.torus_invariant(spec)


@pytest.mark.parametrize("name", ["fs(3)", "ball(3)"])
def test_detector_accepts_the_slices_at_zero(name):
    """restrict puts the literal 0 where z3 stood; every summand it lands
    in is balanced in z3, so no charge changes."""
    assert dsl.torus_invariant(restrict(dsl.catalog(name), {3: 0j}))


# -- the orbit classes --------------------------------------------------------

@pytest.mark.parametrize("spec, grid, classes", [
    (dsl.catalog("paper_G(1)"), 9, 225),
    (dsl.catalog("ball(2)"), 13, 729),
    (dsl.catalog("fs(3)"), 5, 216),
    (warp.warp_demo_fibration().metric(1.0, "warp_demo"), 5, 36),
])
def test_class_counts(spec, grid, classes):
    reps, inverse = dsl.grid_orbits(spec, grid)
    assert len(reps) == classes and len(inverse) == grid ** (2 * spec.n)


def test_representatives_are_first_in_grid_order():
    spec = dsl.catalog("paper_G(1)")
    pts = dsl.box_grid(spec.box, 9)
    reps, inverse = dsl.grid_orbits(spec, 9)
    assert np.all(np.diff(reps) > 0)
    assert np.array_equal(inverse[reps], np.arange(len(reps)))
    assert np.all(reps[inverse] <= np.arange(len(pts)))
    # one orbit: the same circle in every coordinate
    np.testing.assert_allclose(np.abs(pts), np.abs(pts[reps][inverse]), rtol=0, atol=1e-15)


def test_benchmark_inputs_stay_on_the_orbit_path():
    """The scan of paper_G(1) at CLI defaults and the default lam search
    of warp_demo each evaluate one point per orbit."""
    rep = scan_chart(dsl.catalog("paper_G(1)"))
    assert (rep.points_scanned, rep.orbits_evaluated) == (6561, 225)
    res = warp.lambda_search(warp.warp_demo_fibration())
    assert (len(res.points), len(res.thresholds), res.orbits_evaluated) == (625, 625, 36)


# -- scans --------------------------------------------------------------------

@pytest.mark.parametrize("grid", [9, 13])
@pytest.mark.parametrize("name", ["paper_G(1)", "warp_demo", "ball(2)"])
def test_orbit_scan_matches_the_full_grid(name, grid):
    spec = dsl.catalog(name)
    rep = scan_chart(spec, grid_per_axis=grid)
    pts, ref, _ = _full_grid(spec, grid)
    reps, _ = dsl.grid_orbits(spec, grid)
    assert rep.orbits_evaluated == len(reps) < rep.points_scanned == len(pts)
    assert np.array_equal(rep.points, pts)
    # each representative is bit for bit its full-grid value, the rest
    # of its orbit within rounding
    assert np.array_equal(rep.per_point_min[reps], ref[reps])
    gap = np.abs(rep.per_point_min - ref) / np.maximum(1.0, np.abs(ref))
    assert gap.max() <= 1e-13
    best = int(np.argmin(rep.per_point_min))
    assert best in reps
    assert rep.min_hsc == rep.per_point_min[best]
    assert rep.witness_point == tuple(pts[best])


def test_descent_representatives_keep_their_streams():
    """d = 3: each representative runs descent on its own grid index's
    streams, so its value and direction are those of the full grid."""
    spec = dsl.catalog("fs(3)")
    options = dict(dirs=4, starts=1, iters=10, seed=3)
    rep = scan_chart(spec, grid_per_axis=3, **options)
    _, ref, ref_dirs = _full_grid(spec, 3, **options)
    reps, _ = dsl.grid_orbits(spec, 3)
    assert rep.orbits_evaluated == len(reps) == 27
    assert np.array_equal(rep.per_point_min[reps], ref[reps])
    best = int(np.argmin(rep.per_point_min))
    assert rep.witness_dir == tuple(ref_dirs[best])


@pytest.mark.parametrize("name, value", [("fs(3)", 4.0), ("ball(3)", -4.0)])
def test_three_coordinate_scans_meet_the_closed_form(name, value):
    start = time.perf_counter()
    rep = scan_chart(dsl.catalog(name), grid_per_axis=4)
    assert time.perf_counter() - start < 1.0
    assert (rep.points_scanned, rep.orbits_evaluated) == (4096, 27)
    assert np.abs(rep.per_point_min - value).max() <= 1e-12


@pytest.mark.parametrize("spec", [
    dataclasses.replace(dsl.catalog("paper_G(1)"),
                        box=off_centre(dsl.catalog("paper_G(1)").box)),
    _mutated(dsl.catalog("warp_demo"), "0.01*(z1+conj(z1))"),
    _mutated(dsl.catalog("fs(2)"), "(0*z1+z2)*conj(z2)"),
], ids=["off-centre", "mutated", "zero-in-a-sum"])
def test_refused_chart_scans_every_point(spec):
    rep = scan_chart(spec, grid_per_axis=5)
    pts, ref, ref_dirs = _full_grid(spec, 5)
    best = int(np.argmin(ref))
    assert rep.orbits_evaluated == rep.points_scanned == 625
    assert scan_to_csv(rep) == points_to_csv(pts, ref, "min_hsc")
    assert rep.per_point_min.tobytes() == ref.tobytes()
    assert (rep.min_hsc, rep.witness_point, rep.witness_dir) == \
        (float(ref[best]), tuple(pts[best]), tuple(ref_dirs[best]))


# -- lam searches -------------------------------------------------------------

def test_orbit_search_matches_the_full_grid(monkeypatch):
    f = warp.warp_demo_fibration()
    res = warp.lambda_search(f)
    _refuse_every_chart(monkeypatch)
    full = warp.lambda_search(f)
    assert (res.orbits_evaluated, full.orbits_evaluated) == (36, 625)
    assert np.array_equal(res.points, full.points)
    np.testing.assert_allclose(res.thresholds, full.thresholds, rtol=1e-13, atol=0)
    assert abs(res.lambda_star - full.lambda_star) <= 4e-16 * full.lambda_star
    assert res.positive_at_start == full.positive_at_start


def test_descent_search_seeds_each_representative_with_its_grid_index(monkeypatch):
    """d = 3: the Newton passes run descent on each representative's own
    streams, so its threshold is bit for bit the full grid's there."""
    from test_warp import _fs2_base_fibration
    f = _fs2_base_fibration()
    options = dict(grid_per_axis=3, dirs=4, starts=1, iters=10, skip_hypotheses=True)
    res = warp.lambda_search(f, **options)
    reps, _ = dsl.grid_orbits(f.metric(1.0, f.name), 3)
    _refuse_every_chart(monkeypatch)
    full = warp.lambda_search(f, **options)
    assert res.orbits_evaluated == len(reps) < full.orbits_evaluated == 729
    assert np.array_equal(res.thresholds[reps], full.thresholds[reps])


def _threshold_message(f, **options) -> str:
    with pytest.raises(warp.ThresholdNotReachedError) as err:
        warp.lambda_search(f, skip_hypotheses=True, **options)
    return str(err.value)


@pytest.mark.parametrize("make, cap", [(warp.paper_G_fibration, None),
                                       (warp.warp_demo_fibration, 1.0)])
def test_unreached_threshold_names_grid_points(monkeypatch, make, cap):
    """The message counts grid points and names the first failing one in
    grid order, as the full-grid search does."""
    if cap is not None:
        monkeypatch.setattr(warp, "LAMBDA_MAX", cap)
    orbits = _threshold_message(make())
    _refuse_every_chart(monkeypatch)
    assert orbits == _threshold_message(make())
