"""Curvature tensors and sectional values on metrics with known answers.

Closed-form references used below, all derivable by hand from
K = -(2/g) d2 log g / dz dzbar in one coordinate:

  * g = 1/(1-|z|^2)^2        ->  K = -4 everywhere
  * g = 1/(1+|z|^2)^2        ->  K = +4 everywhere
  * g = 1/(1+|z|^2)          ->  K = 2/(1+|z|^2)
  * g = A/(1+A^2|z|^4)       ->  K = 8A|z|^2/(1+A^2|z|^4)  (A > 0 constant)
  * g = B/(1+|z|^2)^2        ->  K = 4/B                   (B > 0 constant)
"""

import importlib
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import traced_peak
from hsclab import certify, dsl
from hsclab.acceptance import ONE_DIM_CATALOG
from hsclab.certify import pencil_spec
from hsclab.curvature import (COND_LIMIT, POINT_BLOCK, IllConditionedError,
                              PointOutsideBoxError, _cond, _sym_basis, check_tensor, curvature,
                              curvature_at, entry_jet_1d, gaussian_curvature_1d,
                              gaussian_from_jet, hsc_dirs, metric_jet, metric_jet_from_fd,
                              pair_symmetry_defect, quartic, restrict)
from hsclab.positivity import scan_chart
from hsclab.wirtinger import SingularPointError


def _sample(spec, count, seed):
    rng = np.random.default_rng(seed)
    return dsl.box_sample(spec.box, rng, count)


def _random_dirs(rng, count, n):
    d = rng.standard_normal((count, 1, n)) + 1j * rng.standard_normal((count, 1, n))
    return d


@pytest.mark.parametrize("name,value", [("poincare", -4.0), ("fs_affine", 4.0)])
def test_constant_curvature(name, value):
    spec = dsl.catalog(name)
    pts = _sample(spec, 50, 3)
    g, R = curvature_at(spec, pts)
    vals = hsc_dirs(g, R, _random_dirs(np.random.default_rng(4), 50, 1))
    np.testing.assert_allclose(vals[:, 0], value, atol=1e-9)


@pytest.mark.parametrize("name,value", [("fs(2)", 4.0), ("fs(3)", 4.0),
                                        ("ball(2)", -4.0), ("ball(3)", -4.0)])
def test_constant_curvature_non_diagonal(name, value):
    # fs(n) and ball(n) have off-diagonal entries and constant K = +4, -4
    spec = dsl.catalog(name)
    pts = _sample(spec, 40, 3)
    g, R = curvature_at(spec, pts)
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((40, 5, spec.n)) + 1j * rng.standard_normal((40, 5, spec.n))
    np.testing.assert_allclose(hsc_dirs(g, R, dirs), value, atol=1e-8)
    # n = 2 scans through the exact minimizer, n = 3 through descent
    rep = scan_chart(spec, grid_per_axis=3 if spec.n == 2 else 2, dirs=4,
                     starts=2, iters=40)
    assert rep.minimizer == ("exact" if spec.n == 2 else "descent")
    np.testing.assert_allclose(rep.per_point_min, value, atol=1e-8)


def test_flat_metric_has_zero_tensor():
    _, R = curvature_at(dsl.catalog("flat(2)"), _sample(dsl.catalog("flat(2)"), 20, 5))
    assert np.abs(R).max() < 1e-14


def test_base_metric_formula():
    spec = dsl.catalog("paper_base")
    pts = _sample(spec, 60, 6)
    vals = np.array([gaussian_curvature_1d(spec, p) for p in pts[:, 0]])
    np.testing.assert_allclose(vals, 2.0 / (1.0 + np.abs(pts[:, 0]) ** 2),
                               atol=1e-10)
    assert vals.min() > 0


def test_hsc_direction_scale_invariance():
    spec = dsl.catalog("paper_G(1)")
    pts = _sample(spec, 10, 7)
    g, R = curvature_at(spec, pts)
    rng = np.random.default_rng(8)
    d = rng.standard_normal((10, 1, 2)) + 1j * rng.standard_normal((10, 1, 2))
    k1 = hsc_dirs(g, R, d)
    k2 = hsc_dirs(g, R, (0.3 - 1.7j) * d)
    np.testing.assert_allclose(k1, k2, rtol=1e-10)


def _reference_hsc(g, R, xi):
    """K at one point, summed index by index; xi is one direction (d,) or
    an array of them (..., d)."""
    d = xi.shape[-1]
    c = np.conj(xi)
    num = 0j
    for i, j, k, l in itertools.product(range(d), repeat=4):
        num = num + R[i, j, k, l] * xi[..., i] * c[..., j] * xi[..., k] * c[..., l]
    den = sum(g[i, j] * xi[..., i] * c[..., j] for i in range(d) for j in range(d))
    return 2.0 * num.real / den.real ** 2


def _random_kernel_inputs(rng, points, d, shared):
    """Hermitian positive g per point and pair-symmetric, non-diagonal R,
    either one per point or one shared by all points."""
    a = rng.standard_normal((points, d, d)) + 1j * rng.standard_normal((points, d, d))
    g = a @ np.conj(np.swapaxes(a, -1, -2)) + d * np.eye(d)
    shape = ((d,) if shared else (points, d)) + (d,) * 3
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    R = 0.5 * (t + np.conj(np.swapaxes(np.swapaxes(t, -4, -3), -2, -1)))
    return g, R


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hsc_dirs_matches_index_reference(d, shared):
    rng = np.random.default_rng(100 + d)
    points, m = 5, 3
    g, R = _random_kernel_inputs(rng, points, d, shared)
    assert pair_symmetry_defect(R) < 1e-15
    dirs = rng.standard_normal((points, m, d)) + 1j * rng.standard_normal((points, m, d))
    got = hsc_dirs(g, R, dirs)
    want = np.array([[_reference_hsc(g[p], R if shared else R[p], dirs[p, q])
                      for q in range(m)] for p in range(points)])
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())
    # a single (1, d) direction broadcasts over the points
    one = hsc_dirs(g, R, dirs[0, :1])
    np.testing.assert_allclose(one[:, 0], [
        _reference_hsc(g[p], R if shared else R[p], dirs[0, 0])
        for p in range(points)], rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("d", [2, 3])
def test_hsc_dirs_blocked_direction_axis(d):
    # more directions than two kernel blocks, with a partial last block
    rng = np.random.default_rng(120 + d)
    points, m = 3, 2 * POINT_BLOCK + 3
    g, R = _random_kernel_inputs(rng, points, d, shared=True)
    _, Rs = _random_kernel_inputs(rng, points, d, shared=False)
    dirs = rng.standard_normal((points, m, d)) + 1j * rng.standard_normal((points, m, d))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    # a shared R with batched directions
    got = hsc_dirs(g, R, dirs)
    assert got.shape == (points, m)
    close(got, np.stack([_reference_hsc(g[p], R, dirs[p]) for p in range(points)]))
    # a batched R with one (1, m, d) direction list for every point
    got = hsc_dirs(g, Rs, dirs[:1])
    assert got.shape == (points, m)
    close(got, np.stack([_reference_hsc(g[p], Rs[p], dirs[0]) for p in range(points)]))
    # a shared R with a plain (m, d) array
    got = hsc_dirs(g[0], R, dirs[1])
    assert got.shape == (m,)
    close(got, _reference_hsc(g[0], R, dirs[1]))
    # no directions: the one empty block gives an empty result
    assert quartic(Rs, dirs[..., :0, :]).shape == (points, 0)


def test_hsc_dirs_guards():
    rng = np.random.default_rng(110)
    g, R = _random_kernel_inputs(rng, 4, 2, shared=False)
    dirs = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    zero = dirs.copy()
    zero[2, 1] = 0.0
    with pytest.raises(SingularPointError):
        hsc_dirs(g, R, zero)
    broken = R.copy()
    broken[1, 0, 0, 0, 0] += 1e-6j
    assert pair_symmetry_defect(broken) > 1e-7
    with pytest.raises(ArithmeticError, match="imaginary"):
        hsc_dirs(g, broken, dirs)


def test_hsc_dirs_imaginary_guard_scales_with_summands():
    # Pair-symmetric tensors with entries of order 1e7 whose quartic vanishes
    # at the chosen unit direction: the numerator is a near-total
    # cancellation, so its rounding is large against |num| but tiny
    # against |R|_F * |xi|^4, the size of the summands.
    rng = np.random.default_rng(130)
    points, d = 8, 3
    shape = (points,) + (d,) * 4
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    R = 1e7 * 0.5 * (t + np.conj(np.swapaxes(np.swapaxes(t, -4, -3), -2, -1)))
    xi = rng.standard_normal((points, 1, d)) + 1j * rng.standard_normal((points, 1, d))
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    eye = np.eye(d)
    unit = 0.5 * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye))
    for p in range(points):
        # unit(xi) = |xi|^4 = 1, so R - q*unit has a zero quartic at xi
        q = np.einsum("ijkl,i,j,k,l->", R[p], xi[p, 0], np.conj(xi[p, 0]),
                      xi[p, 0], np.conj(xi[p, 0])).real
        R[p] -= q * unit
    assert pair_symmetry_defect(R) == 0.0
    g = np.broadcast_to(np.eye(d, dtype=complex), (points, d, d))
    vals = hsc_dirs(g, R, xi)
    assert np.abs(vals).max() <= 1e-12 * np.abs(R).max()


def _reference_quartic(R, dirs):
    """sum R[i,j,k,l] xi_i conj(xi_j) xi_k conj(xi_l), index by index, for
    R (..., d, d, d, d) and dirs (..., m, d) with broadcast batch shapes."""
    c = np.conjugate(dirs)
    num = 0j
    for i, j, k, l in itertools.product(range(dirs.shape[-1]), repeat=4):
        num = num + (R[..., i, j, k, l, None]
                     * dirs[..., i] * c[..., j] * dirs[..., k] * c[..., l])
    return num


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_quartic_matches_index_contraction(d):
    # R is not pair symmetric, so the quartic is complex and its
    # imaginary part must come out as well as its real part
    rng = np.random.default_rng(140 + d)
    shape = (3, 1) + (d,) * 4
    R = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert pair_symmetry_defect(R) > 0.1
    for m in (0, 1023, POINT_BLOCK, 1025):
        draw = dsl._complex_normal(rng, (2, m, d))
        cases = [(R, draw[:1]), (R, draw), (R[0, 0], draw), (R[:, 0], draw[0])]
        for r, dirs in cases:
            want = _reference_quartic(r, dirs)
            atol = 1e-12 * max(1.0, np.abs(want).max(initial=0.0))
            for layout in (dirs, np.ascontiguousarray(dirs)):
                got = quartic(r, layout)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=atol)
            if m:
                assert np.abs(got.imag).max() > 0.1 * np.abs(got).max()


def test_sym_basis_arrays_are_read_only():
    arrays = [part for part in _sym_basis(3) if isinstance(part, np.ndarray)]
    assert len(arrays) == 2
    for part in arrays:
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 1


def test_kernel_checks_refuse_a_pair_symmetry_defect():
    # entries of order 1, so the defect is not lost in the tensor's scale
    w = certify.choose_weights(1.0, 1e-3, 5, 2)
    t = certify.random_block_tensor(1.0, 1e-3, w.base_required, 5, 2, 0)
    assert np.abs(t.R).max() == 1.0
    R = t.R.copy()
    R[0, 0, 0, 0] += 1e-6j
    assert 1e-6 <= pair_symmetry_defect(R) <= 1e-5
    dirs = dsl._complex_normal(np.random.default_rng(5), (1000, 5))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    with pytest.raises(ArithmeticError, match="imaginary"):
        hsc_dirs(np.eye(5, dtype=complex), R, dirs)
    broken = certify.BoundedBlockTensor(t.n, t.s, R, t.fiber_lower,
                                        t.mixed_bound, t.base_lower)
    with pytest.raises(ArithmeticError, match="must be real"):
        certify.split_bound_check(broken, w)


def test_pair_symmetry_of_catalog_tensors():
    for name in ("poincare", "paper_base", "paper_G(1)", "warp_demo"):
        spec = dsl.catalog(name)
        _, R = curvature_at(spec, _sample(spec, 25, 10))
        scale = max(1.0, float(np.abs(R).max()))
        assert pair_symmetry_defect(R) <= 1e-10 * scale


@pytest.mark.parametrize("name", ["fs(3)", "ball(3)", "paper_G(1)", "warp_demo"])
def test_curvature_at_is_the_blocked_layer_pair(monkeypatch, name):
    """curvature_at in blocks of 7 points gives the bits of metric_jet and
    curvature on the whole batch, in the batch's shape, and refuses a
    point outside the box with metric_jet's message."""
    curvature_module = importlib.import_module("hsclab.curvature")
    monkeypatch.setattr(curvature_module, "POINT_BLOCK", 7)
    spec = dsl.catalog(name)
    pts = _sample(spec, 30, 14)
    g, R = curvature_at(spec, pts)
    mj = metric_jet(spec, pts)
    assert np.array_equal(g, mj.g)
    assert np.array_equal(R, curvature(mj).R)
    # a batch of any shape is read as its flattened points
    g3, R3 = curvature_at(spec, pts.reshape(3, 10, spec.n))
    assert np.array_equal(g3, g.reshape(3, 10, *g.shape[1:]))
    assert np.array_equal(R3, R.reshape(3, 10, *R.shape[1:]))
    outside = pts.copy()
    outside[20, 0] = 5.0
    with pytest.raises(PointOutsideBoxError) as want:
        metric_jet(spec, outside)
    with pytest.raises(PointOutsideBoxError, match=re.escape(str(want.value))):
        curvature_at(spec, outside)
    for route in (metric_jet, curvature_at):
        with pytest.raises(ValueError, match=f"must have {spec.n} coordinates"):
            route(spec, pts.reshape(-1)[:60].reshape(-1, spec.n - 1))


def test_jets_vs_divided_difference_jets():
    spec = dsl.catalog("paper_G(1)")
    pts = _sample(spec, 5, 11)
    a = metric_jet(spec, pts)
    b = metric_jet_from_fd(spec, pts)
    for name in ("g", "dg", "dbarg", "ddbarg"):
        x, y = getattr(a, name), getattr(b, name)
        scale = max(1.0, float(np.abs(x).max()))
        np.testing.assert_allclose(x, y, atol=1e-5 * scale, err_msg=name)


def test_gaussian_equals_sectional_in_one_dim():
    rng = np.random.default_rng(12)
    for name in ("poincare", "fs_affine", "paper_base"):
        spec = dsl.catalog(name)
        pts = dsl.box_sample(spec.box, rng, 20)
        g, R = curvature_at(spec, pts)
        sect = hsc_dirs(g, R, np.ones((20, 1, 1), dtype=complex))[:, 0]
        gauss = np.array([gaussian_curvature_1d(spec, p) for p in pts[:, 0]])
        np.testing.assert_allclose(sect, gauss, atol=1e-11)


def test_restricted_fiber_family_formula():
    # the fiber over a base point c, the slice z2 = c of the assembled
    # metric, is a one-coordinate metric with curvature 8A|z|^2/(1+A^2|z|^4)
    total = dsl.catalog("paper_G(1)")
    for c in (0j, 0.3 + 0.1j, -0.5 + 0.4j):
        sub = restrict(total, {2: c})
        amp = np.exp(2.0 * abs(c) ** 2)
        for z in (0.2 + 0j, 0.4 - 0.3j, 0.05 + 0.6j):
            t = abs(z) ** 2
            want = 8.0 * amp * t / (1.0 + amp ** 2 * t ** 2)
            assert gaussian_curvature_1d(sub, z) == pytest.approx(want, abs=1e-9)


def test_fiber_curvature_vanishes_at_origin_only():
    sub = restrict(dsl.catalog("paper_G(1)"), {2: 0.2 - 0.3j})
    assert abs(gaussian_curvature_1d(sub, 0j)) < 1e-12
    assert gaussian_curvature_1d(sub, 0.3 + 0j) > 0.1


def test_restrict_with_nothing_fixed_is_the_spec():
    spec = dsl.catalog("paper_G(1)")
    assert restrict(spec, {}) is spec


def test_warp_demo_fiber_is_rescaled_round_sphere():
    family = dsl.catalog("warp_demo")
    for c in (0j, 0.4 + 0.2j):
        sub = restrict(family, {2: c})
        want = 4.0 * np.exp(-abs(c) ** 2)
        for z in (0j, 0.3 - 0.2j):
            assert gaussian_curvature_1d(sub, z) == pytest.approx(want, abs=1e-9)


def test_family_requires_restriction():
    # a 1x1 fiber block over two coordinates is not a metric on them
    f = dsl.PAPER_G_FIBRATION
    with pytest.raises(ValueError, match="entries must be 2 x 2"):
        dsl.MetricSpec("fiber", f.n, f.fiber_entries, f.box)


def test_every_catalog_name_is_a_metric_with_curvature():
    for pattern in dsl.CATALOG_NAMES:
        spec = dsl.catalog(pattern.replace("(n)", "(2)").replace("(lam)", "(1)"))
        centre = [[complex(0.5 * (r.re_min + r.re_max), 0.5 * (r.im_min + r.im_max))
                   for r in spec.box]]
        _, R = curvature_at(spec, centre)
        assert R.shape == (1,) + (spec.n,) * 4, pattern


def test_fd_route_checks_the_coordinate_count():
    # Four values are not points of a two-coordinate chart.
    with pytest.raises(ValueError, match="2 coordinates"):
        metric_jet_from_fd(dsl.catalog("paper_G(1)"), np.full(4, 0.1))


def test_point_outside_box_rejected():
    spec = dsl.catalog("poincare")
    with pytest.raises(PointOutsideBoxError):
        metric_jet(spec, np.array([[2.0 + 0j]]))
    with pytest.raises(PointOutsideBoxError):
        metric_jet(spec, np.array([[complex(np.nan, 0.0)]]))
    batch = np.array([[0.1 + 0j], [0.2 - 0.1j], [0.3 + 0.2j], [2.5 + 0j]])
    with pytest.raises(PointOutsideBoxError, match=re.escape("(2.5+0j)")):
        metric_jet(spec, batch)


def test_one_coordinate_jet_checks_the_box():
    spec = dsl.catalog("poincare")
    for z in (5 + 0j, complex(np.nan, 0.0)):
        with pytest.raises(PointOutsideBoxError, match="outside box of poincare"):
            entry_jet_1d(spec, z)
        with pytest.raises(PointOutsideBoxError):
            gaussian_curvature_1d(spec, z)
    assert gaussian_curvature_1d(spec, 0.3 + 0j) == pytest.approx(-4.0, abs=1e-9)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("name", ONE_DIM_CATALOG + ("poincare+0.37*fs_affine",))
def test_one_coordinate_batch_equals_per_point_calls(name):
    if "+" in name:
        spec = pencil_spec(dsl.catalog("poincare"), dsl.catalog("fs_affine"), 0.37)
    else:
        spec = dsl.catalog(name)
    pts = dsl.box_sample(spec.box, np.random.default_rng(19), 12)[:, 0].reshape(3, 4)
    jet = entry_jet_1d(spec, pts)
    gauss = gaussian_curvature_1d(spec, pts)
    assert gauss.shape == (3, 4) and all(s.shape == (3, 4) for s in jet)
    for idx in np.ndindex(3, 4):
        one = entry_jet_1d(spec, pts[idx])
        assert all(type(v) is complex for v in one)
        assert [_bits(s[idx]) for s in jet] == [_bits(v) for v in one]
        alone = gaussian_curvature_1d(spec, pts[idx])
        assert type(alone) is float and _bits(gauss[idx]) == _bits(alone)


def test_gaussian_from_jet_takes_slot_arrays():
    """The slots of a (3, 4) batch give gaussian_curvature_1d's bits, and
    one vanishing metric value in a batch is refused."""
    spec = dsl.catalog("paper_base")
    pts = dsl.box_sample(spec.box, np.random.default_rng(29), 12)[:, 0].reshape(3, 4)
    assert _bits(gaussian_from_jet(*entry_jet_1d(spec, pts))) \
        == _bits(gaussian_curvature_1d(spec, pts))
    cone = dsl.MetricSpec("cone", 1, ((dsl.parse("z1*conj(z1)", 1),),),
                          dsl._square_box(1, 0.5))
    batch = np.array([[0.25 + 0j, 0.1j], [0j, -0.3 + 0j]])
    with pytest.raises(SingularPointError):
        gaussian_from_jet(*entry_jet_1d(cone, batch))
    with pytest.raises(SingularPointError):
        gaussian_curvature_1d(cone, batch)


def test_one_coordinate_batch_names_the_point_outside_the_box():
    spec = dsl.catalog("poincare")
    batch = np.array([0.1 + 0j, 0.2j, -0.3 + 0.1j, 5.0 + 0.5j, 0.4 + 0j])
    for helper in (entry_jet_1d, gaussian_curvature_1d):
        with pytest.raises(PointOutsideBoxError,
                           match=re.escape("point [(5+0.5j)] outside box of poincare")):
            helper(spec, batch)


def test_ill_conditioned_metric_rejected():
    tiny = dsl.MetricSpec(
        "tiny", 2,
        ((dsl.parse("1", 2), dsl.parse("0", 2)),
         (dsl.parse("0", 2), dsl.parse("1/100000000000000", 2))),
        dsl._square_box(2, 0.5))
    with pytest.raises(IllConditionedError):
        curvature_at(tiny, np.zeros((1, 2)))
    # exactly singular at the origin: the solve fails, the check names it,
    # on the route and on its layers
    cone = dsl.MetricSpec("cone", 1, ((dsl.parse("z1*conj(z1)", 1),),),
                          dsl._square_box(1, 0.5))
    with pytest.raises(IllConditionedError, match="inf"):
        curvature_at(cone, np.array([[0.25 + 0j], [0j]]))
    with pytest.raises(IllConditionedError, match="inf"):
        curvature(metric_jet(cone, np.array([[0.25 + 0j], [0j]])))


def test_unchecked_curvature_of_a_singular_batch_is_nan():
    """curvature() is the one singular-metric fallback: without check, a
    batch with one exactly singular point gives an all-NaN tensor of the
    batch shape instead of raising."""
    cone = dsl.MetricSpec("cone", 1, ((dsl.parse("z1*conj(z1)", 1),),),
                          dsl._square_box(1, 0.5))
    pts = np.array([[[0.25 + 0j], [0j]], [[0.1j], [-0.2 + 0j]]])
    R = curvature(metric_jet(cone, pts), check=False).R
    assert R.shape == (2, 2, 1, 1, 1, 1)
    assert np.isnan(R).all()


def test_check_tensor_refuses_a_nan_entry():
    g = np.eye(2, dtype=complex)[None]
    R = np.zeros((1, 2, 2, 2, 2), dtype=complex)
    R[0, 0, 1, 0, 1] = np.nan
    with pytest.raises(ArithmeticError, match="pair-symmetry"):
        check_tensor(g, R)


def _random_2x2(count, seed):
    """General complex 2x2 matrices and Hermitian positive definite ones."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    return A, A @ np.conjugate(np.swapaxes(A, -1, -2))


def test_closed_form_condition_number_matches_the_svd():
    for g in _random_2x2(100000, 11):
        np.testing.assert_allclose(_cond(g), np.linalg.cond(g), rtol=1e-9, atol=0)
    g = np.array([[[2.0]], [[-1e-300j]], [[0.0]]])
    assert _cond(g).tolist() == [1.0, 1.0, np.inf]
    assert _cond(np.zeros((3, 2, 2), dtype=complex)).tolist() == [np.inf] * 3
    assert _cond(np.array([[[1.0, 2.0], [2.0, 4.0]]])).tolist() == [np.inf]


def _exceeds_exactly(g, limit) -> bool:
    """kappa(g) > limit in exact rationals: with F = |g|_F^2 and D = |det g|,
    (F + sqrt(F^2 - 4 D^2)) / (2 D) > L  <=>  L F > D (1 + L^2)."""
    q = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in g.tolist()]
    F = sum(re * re + im * im for row in q for re, im in row)
    (ar, ai), (br, bi) = q[0]
    (cr, ci), (dr, di) = q[1]
    det_re = ar * dr - ai * di - (br * cr - bi * ci)
    det_im = ar * di + ai * dr - (br * ci + bi * cr)
    L = Fraction(limit)
    return (L * F) ** 2 > (det_re ** 2 + det_im ** 2) * (1 + L * L) ** 2


def test_closed_form_condition_gate_decides_as_the_svd():
    """u u^H + eps v v^H with eps in [1e-14, 1e-9] straddles COND_LIMIT.

    Near kappa = 1e12 both routes carry a rounding error of order
    eps * kappa (about 1e-4 relative for the SVD, a few times less for the
    closed form), so decisions agree outside a 1e-3 band around the
    limit; inside it, each sample where they differ is decided by the
    closed form as by exact rational arithmetic."""
    rng = np.random.default_rng(12)
    count = 200000
    u, v = rng.standard_normal((2, count, 2)) + 1j * rng.standard_normal((2, count, 2))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    eps = 10.0 ** rng.uniform(-14, -9, count)
    g = (u[:, :, None] * np.conjugate(u)[:, None, :]
         + eps[:, None, None] * v[:, :, None] * np.conjugate(v)[:, None, :])
    svd = np.linalg.cond(g)
    closed = _cond(g) > COND_LIMIT
    assert 0.1 < closed.mean() < 0.9
    differ = closed != (svd > COND_LIMIT)
    assert not np.any(differ & (np.abs(svd / COND_LIMIT - 1) > 1e-3))
    assert differ.sum() <= 5
    for row in np.flatnonzero(differ):
        assert closed[row] == _exceeds_exactly(g[row], COND_LIMIT)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_tensor_refuses_a_nan_metric(n):
    g = np.broadcast_to(np.eye(n, dtype=complex), (4, n, n)).copy()
    g[2, 0, 0] = np.nan
    R = np.zeros((4,) + (n,) * 4, dtype=complex)
    with pytest.raises(IllConditionedError, match="metric condition number nan"):
        check_tensor(g, R)


@pytest.mark.parametrize("name,n", [("poincare", 1), ("paper_G(1)", 2), ("ball(3)", 3)])
def test_empty_batch_gives_an_empty_tensor(name, n):
    g, R = curvature_at(dsl.catalog(name), np.zeros((0, n), complex))
    assert g.shape == (0, n, n) and R.shape == (0,) + (n,) * 4
    assert pair_symmetry_defect(R) == 0.0


def test_scan_refuses_a_nan_curvature():
    """At z = 1, g = 1.01e304 is finite with condition number 1, but its
    mixed second derivative overflows, so R is NaN there."""
    hot = dsl.MetricSpec("hot", 1, ((dsl.parse("exp(350*(z1+conj(z1)))", 1),),),
                         (dsl.Rect(0.99, 1.0, 0.0, 0.01),))
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="pair-symmetry"):
        scan_chart(hot, grid_per_axis=2)


def test_warp_family_minimum_at_origin():
    # the assembled family at warp factor lam has directional minimum
    # -2/(3 lam) at the chart origin
    for lam in (0.5, 1.0, 5.0):
        spec = dsl.catalog(f"paper_G({lam:g})")
        g, R = curvature_at(spec, np.zeros((1, 2)))
        rng = np.random.default_rng(13)
        dirs = rng.standard_normal((1, 4096, 2)) + 1j * rng.standard_normal((1, 4096, 2))
        got = hsc_dirs(g, R, dirs).min()
        assert got == pytest.approx(-2.0 / (3.0 * lam), rel=5e-3)
        assert got >= -2.0 / (3.0 * lam) - 1e-9


@pytest.mark.parametrize("name,points,bound", [
    ("fs(3)", lambda spec: _sample(spec, 1024, 0), 4_370_000),
    ("paper_G(1)", lambda spec: dsl.box_grid(spec.box, 9), 9_060_000),
], ids=["fs(3)", "paper_G(1)"])
def test_metric_jet_memory_stays_below_the_per_entry_jets(name, points, bound):
    """The traced peak of one unblocked metric_jet pass, 1024 points of
    fs(3) and the 6561-point default grid of paper_G(1), stays within the
    4.37 and 9.06 MB that per-entry forward-mode jets needed: the tape
    drops each node after its last consumer."""
    spec = dsl.catalog(name)
    pts = points(spec)
    metric_jet(spec, pts)  # one-time allocations are not the pass's
    assert traced_peak(lambda: metric_jet(spec, pts)) <= bound
