import dataclasses
import functools

import numpy as np
import pytest

from hsclab import dsl, positivity, warp
from hsclab.acceptance import exact_minimum_specs
from hsclab.curvature import curvature_at, hsc_dirs
from hsclab.positivity import (_min_over_dirs, _probe_and_descend,
                               find_negative_witness, min_hsc_at_point,
                               scan_chart, scan_to_csv)

# box corner of the bundled disk charts: |z|^2 = 2*(0.95/sqrt(2))^2 = 0.9025
CORNER_MIN = 2.0 / (1.0 + 0.9025)


def test_min_at_point_constant_negative():
    val, wdir = min_hsc_at_point(dsl.catalog("poincare"), [0j])
    assert abs(val + 4.0) < 1e-9
    assert len(wdir) == 1


def test_min_at_point_constant_positive():
    val, _ = min_hsc_at_point(dsl.catalog("fs_affine"), [0.2 + 0.1j])
    assert abs(val - 4.0) < 1e-9


def test_scan_base_metric_minimum_at_corner():
    rep = scan_chart(dsl.catalog("paper_base"), grid_per_axis=5, dirs=8,
                     starts=2, iters=40)
    assert abs(rep.min_hsc - CORNER_MIN) < 1e-9
    assert rep.margin == abs(rep.min_hsc)
    assert rep.points_scanned == 25
    w = rep.witness_point[0]
    assert abs(abs(w) ** 2 - 0.9025) < 1e-12  # a corner of the box


def test_scan_is_deterministic():
    a = scan_chart(dsl.catalog("warp_demo"), grid_per_axis=3, dirs=8,
                   starts=2, iters=30, seed=5)
    b = scan_chart(dsl.catalog("warp_demo"), grid_per_axis=3, dirs=8,
                   starts=2, iters=30, seed=5)
    assert a.min_hsc == b.min_hsc
    assert a.witness_dir == b.witness_dir


def test_scan_report_dict_and_csv():
    rep = scan_chart(dsl.catalog("paper_base"), grid_per_axis=3, dirs=8,
                     starts=1, iters=20)
    d = rep.as_dict()
    assert d["name"] == "paper_base" and "points" not in d
    csv = scan_to_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "index,re1,im1,min_hsc"
    assert len(lines) == 1 + rep.points_scanned


@pytest.mark.parametrize("name", ["poincare", "warp_demo", "ball(3)"])
def test_csv_cells_are_float_reprs(name):
    rep = scan_chart(dsl.catalog(name), grid_per_axis=2, dirs=4, starts=1, iters=5)
    vals = rep.per_point_min.copy()
    vals[:2] = (-0.0, 1.0 / 3.0)
    rep = dataclasses.replace(rep, per_point_min=vals)
    rows = scan_to_csv(rep).splitlines()[1:]
    assert rows == _reference_rows(rep.points, vals)


def _reference_rows(points, values) -> list:
    """The CSV rows built one cell at a time with repr."""
    rows = []
    for idx, (pt, val) in enumerate(zip(points, values)):
        cells = [str(idx)]
        for z in pt:
            cells += [repr(float(z.real)), repr(float(z.imag))]
        rows.append(",".join(cells + [repr(float(val))]))
    return rows


def test_csv_cells_keep_signed_zeros_and_nonfinite_values():
    # cells repeat within a column, so each distinct bit pattern's text
    # is shared: -0.0 must not take the text of 0.0, nor NaN that of inf
    edge = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                     5e-324, -5e-324, 1.0 / 3.0, 1e300])
    rng = np.random.default_rng(8)
    # set the parts apart: re + 1j * im would turn a -0.0 real part into 0.0
    points = np.empty((40, 2), dtype=complex)
    points.real, points.imag = rng.choice(edge, (40, 2)), rng.choice(edge, (40, 2))
    values = rng.choice(edge, 40)
    csv = positivity.points_to_csv(points, values, "v")
    lines = csv.splitlines()
    assert lines[0] == "index,re1,im1,re2,im2,v"
    assert lines[1:] == _reference_rows(points, values)
    assert csv.endswith("\n") and "-0.0" in csv and "-inf" in csv and "nan" in csv


def test_scan_reports_compare_by_reported_fields():
    # the array fields stay out of ==, which would otherwise raise on them
    a = scan_chart(dsl.catalog("poincare"), grid_per_axis=3)
    b = scan_chart(dsl.catalog("poincare"), grid_per_axis=3)
    assert a == b
    assert a != dataclasses.replace(b, min_hsc=b.min_hsc + 1.0)


def test_descent_needs_a_direction_or_a_start():
    with pytest.raises(ValueError, match="probe direction or start"):
        scan_chart(dsl.catalog("ball(3)"), grid_per_axis=2, dirs=0, starts=0)


def test_witness_found_on_negative_chart():
    w = find_negative_witness(dsl.catalog("poincare"), budget=200)
    assert w is not None
    assert abs(w.value + 4.0) < 1e-6
    assert w.stage == 0


def test_witness_absent_on_positive_chart():
    assert find_negative_witness(dsl.catalog("fs_affine"), budget=200) is None
    assert find_negative_witness(dsl.catalog("flat(1)"), budget=200) is None


def test_witness_on_warped_family():
    w = find_negative_witness(dsl.catalog("paper_G(1)"), budget=3000)
    assert w is not None and w.value < -1e-8
    assert len(w.point) == 2 and len(w.direction) == 2


def test_witness_dict_is_json_clean():
    import json
    w = find_negative_witness(dsl.catalog("poincare"), budget=200)
    json.dumps(w.as_dict())


# Pauli matrices: eta eta^H = (I + r.sigma)/2 for unit eta, r_k = eta^H sigma_k eta.
SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _sphere_quadratic_tensor(Amap, c, b, A):
    """(g, R) at one point with K(xi) = c + b.r + r^T A r, where r is the
    Bloch vector of eta = Amap xi / |Amap xi|.

    Built from the products (eta^H P eta)(eta^H Q eta), whose tensor in
    R[i,j,k,l] xi_i conj(xi_j) xi_k conj(xi_l) is P^T (x) Q^T.
    """
    g = np.conjugate(Amap.conj().T @ Amap)
    unit = Amap.conj().T @ Amap
    pulled = [Amap.conj().T @ s @ Amap for s in SIGMA]
    def outer(P, Q):
        return np.einsum("ab,ce->abce", P.T, Q.T)

    R = c * outer(unit, unit)
    for k in range(3):
        R = R + b[k] * outer(pulled[k], unit)
        for l in range(3):
            R = R + A[k, l] * outer(pulled[k], pulled[l])
    return g[None], 0.5 * R[None]


def _hard_case(beta1):
    """A prescribed quadratic with beta = (beta1, 0.6, 0.9) in the eigenbasis
    of A; at beta1 = 0 the minimum is c + lam_1 - sum_{i>1} beta_i^2 /
    (lam_i - lam_1) = -1.21, and it moves by at most 2|beta1|."""
    rng = np.random.default_rng(11)
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    lam = np.array([-1.0, 0.5, 2.0])
    beta = np.array([beta1, 0.6, 0.9])
    Amap = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    g, R = _sphere_quadratic_tensor(Amap, 0.3, 2 * V @ beta, V @ np.diag(lam) @ V.T)
    return g, R, 0.3 + lam[0] - (beta[1] ** 2 / (lam[1] - lam[0])
                                 + beta[2] ** 2 / (lam[2] - lam[0]))


@pytest.mark.parametrize("beta1", [0.0, 1e-13])
def test_exact_minimum_hard_and_near_hard_case(beta1):
    g, R, analytic = _hard_case(beta1)
    vals, dirs = _min_over_dirs(g, R, 0, 0, 0, 0, [0])
    assert abs(vals[0] - analytic) <= 1e-12
    # the value is attained by the returned metric-unit direction
    assert abs(hsc_dirs(g, R, dirs[:, None])[0, 0] - vals[0]) <= 1e-15
    assert abs(np.real(dirs[0] @ g[0] @ dirs[0].conj()) - 1.0) <= 1e-12


@pytest.mark.parametrize("lam2,beta12", [(0.0, 0.0), (1e-17, 0.0), (0.0, 3e-16),
                                         (1e-17, 3e-16)])
def test_exact_minimum_degenerate_hard_case(lam2, beta12):
    """A double eigenvalue at 0 on which beta vanishes, exactly or to
    rounding as on the warp demo: the minimum is c + lam_1 - sum over the
    far eigenvalue of beta_i^2 / (lam_i - lam_1) = 0.3 - 40^2 / 100."""
    rng = np.random.default_rng(3)
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    lam = np.array([0.0, lam2, 100.0])
    beta = np.array([beta12, -beta12, 40.0])
    Amap = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    g, R = _sphere_quadratic_tensor(Amap, 0.3, 2 * V @ beta, V @ np.diag(lam) @ V.T)
    vals, dirs = _min_over_dirs(g, R, 0, 0, 0, 0, [0])
    assert abs(vals[0] - (0.3 + lam[0] - beta[2] ** 2 / (lam[2] - lam[0]))) <= 1e-12
    assert abs(hsc_dirs(g, R, dirs[:, None])[0, 0] - vals[0]) <= 1e-15


def _bisection_sphere_minimizer(Q):
    """The d = 2 sphere minimizer as a 64-step secular bisection, kept as
    the reference for the Newton solve."""
    lam, V = np.linalg.eigh(Q[:, 1:, 1:])
    beta = np.einsum("pki,pk->pi", V, Q[:, 0, 1:])
    beta2 = beta ** 2
    lo = lam[:, 0] - np.sqrt(beta2.sum(-1))
    hi = lam[:, 0].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            # NaN (0/0 at mid == lam_1 with beta_1 == 0) counts as "not above"
            above = (beta2 / (lam - mid[:, None]) ** 2).sum(-1) > 1.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
    gap = lam[:, 1:] - lo[:, None]
    y = np.zeros_like(lam)
    np.divide(-beta[:, 1:], gap, out=y[:, 1:], where=gap > 0)
    rest = 1.0 - (y[:, 1:] ** 2).sum(-1)
    y[:, 0] = np.where(beta[:, 0] > 0, -1.0, 1.0) * np.sqrt(np.maximum(rest, 0.0))
    r = np.einsum("pij,pj->pi", V, y)
    return r / np.linalg.norm(r, axis=-1, keepdims=True)


EXACT_GRIDS = ("paper_G(1)", "paper_G(50)", "warp_demo@0.001", "warp_demo@2.144",
               "warp_demo@100")


@functools.lru_cache(maxsize=None)
def _exact_grid(label):
    """(g, R) on the grid-9 paper_G charts, or on the lam search's 625-point
    warp_demo grid at the lam after the @."""
    name, _, lam = label.partition("@")
    if lam:
        f = warp.warp_demo_fibration()
        unit = curvature_at(f.metric(1.0, f.name), dsl.box_grid(f.box, 5))
        return warp._at_scale(f, *unit, float(lam))
    spec = dsl.catalog(name)
    return curvature_at(spec, dsl.box_grid(spec.box, 9))


@pytest.mark.parametrize("label", EXACT_GRIDS)
def test_newton_minimum_never_above_bisection(label):
    g, R = _exact_grid(label)
    idx = range(len(g))
    newton, _ = positivity._exact_min(g, R, idx)
    T = positivity._orthonormal_frame(g, idx)
    eta = positivity._bloch_to_unit(
        _bisection_sphere_minimizer(positivity._sphere_quadratic(T, R)))
    ref = hsc_dirs(g, R, np.einsum("pij,pj->pi", T, eta)[:, None])[:, 0]
    assert np.all(newton <= ref + 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("label", EXACT_GRIDS)
def test_newton_passes_per_call(monkeypatch, label):
    passes = []
    real_step = positivity._secular_step

    def counting_step(*args):
        passes.append(1)
        return real_step(*args)

    monkeypatch.setattr(positivity, "_secular_step", counting_step)
    g, R = _exact_grid(label)
    positivity._exact_min(g, R, range(len(g)))
    # every warp_demo point is the closed-form hard case
    assert len(passes) <= (0 if label.startswith("warp_demo") else 12)


def test_closed_form_path_in_one_dimension():
    g = np.array([[[2.5 + 0j]], [[0.4 + 0j]]])
    R = np.array([-1.5, 0.2]).reshape(2, 1, 1, 1, 1) + 0j
    vals, dirs = _min_over_dirs(g, R, 64, 8, 200, 0, [0, 1])
    np.testing.assert_allclose(dirs[:, 0], 1 / np.sqrt([2.5, 0.4]), rtol=1e-15)
    np.testing.assert_allclose(vals, 2 * np.array([-1.5, 0.2]) / np.array([2.5, 0.4]) ** 2,
                               rtol=1e-14)


def test_non_positive_metric_names_the_point():
    g = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]], dtype=complex)
    R = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    with pytest.raises(ArithmeticError, match="point index 9"):
        _min_over_dirs(g, R, 4, 1, 10, 0, [7, 9])


def _grid_tensor(spec):
    pts = dsl.box_grid(spec.box, 3)
    return (*curvature_at(spec, pts), range(len(pts)))


@pytest.mark.parametrize("spec", exact_minimum_specs(), ids=lambda s: s.name)
def test_exact_minimum_is_a_true_minimum(spec):
    g, R, idx = _grid_tensor(spec)
    exact, _ = _min_over_dirs(g, R, 0, 0, 0, 0, idx)
    scale = np.maximum(1.0, np.abs(exact))
    # never above probe plus multi-start descent at scan defaults
    descent, _ = _probe_and_descend(g, R, 64, 8, 200, 0, idx)
    assert np.all(exact <= descent + 1e-12 * scale)
    # no brute-force direction on S^2 (uniform on the unit sphere of C^2)
    # falls below it
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((len(idx), 4000, 2)) + 1j * rng.standard_normal((len(idx), 4000, 2))
    assert np.all(hsc_dirs(g, R, dirs).min(axis=1) >= exact - 1e-12 * scale)


@pytest.mark.parametrize("name,minimizer", [("poincare", "closed_form"),
                                            ("warp_demo", "exact"),
                                            ("ball(3)", "descent")])
def test_report_names_the_minimizer(name, minimizer):
    rep = scan_chart(dsl.catalog(name), grid_per_axis=2, dirs=4, starts=1, iters=5)
    assert rep.minimizer == minimizer
    assert rep.as_dict()["minimizer"] == minimizer


def test_witness_budget_is_a_cap(monkeypatch):
    sizes = []
    real_scan = positivity.scan_chart

    def counting_scan(*args, **kwargs):
        rep = real_scan(*args, **kwargs)
        sizes.append(rep.points_scanned)
        return rep

    monkeypatch.setattr(positivity, "scan_chart", counting_scan)
    # stages of 25, 81 and 169 points: the second would overrun 100
    assert find_negative_witness(dsl.catalog("fs_affine"), budget=100) is None
    assert sum(sizes) == 25
    with pytest.raises(ValueError, match="first witness stage"):
        find_negative_witness(dsl.catalog("fs_affine"), budget=24)
    with pytest.raises(ValueError):
        find_negative_witness(warp.assemble(warp.warp_demo_fibration(), 1.0), budget=624)


# Columns vec(I), vec(sigma_1), vec(sigma_2), vec(sigma_3) (row-major vec),
# the matrix form of the basis change that _sphere_quadratic writes out.
PAULI = np.array([[1, 0, 0, 1],
                  [0, 1, -1j, 0],
                  [0, 1, 1j, 0],
                  [1, 0, 0, -1]], dtype=complex)


def _lapack_frame(g):
    """The factorization route: T = L^{-H} with L = cholesky(conj(g))."""
    return np.conjugate(np.swapaxes(np.linalg.inv(np.linalg.cholesky(np.conjugate(g))),
                                    -1, -2))


def _random_hpd(count, seed):
    """Hermitian positive definite 2x2 matrices; the shift keeps their
    condition number below about 1.4e3 at 20000 draws."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    return A @ np.conjugate(np.swapaxes(A, -1, -2)) + 0.01 * np.eye(2)


def _frame_inputs():
    rng = np.random.default_rng(4)
    diagonal = np.zeros((500, 2, 2), dtype=complex)
    diagonal[:, [0, 1], [0, 1]] = rng.uniform(0.1, 3.0, (500, 2))
    return [_random_hpd(20000, 3), diagonal, rng.uniform(0.1, 3.0, (500, 1, 1)) + 0j,
            _exact_grid("paper_G(1)")[0], _exact_grid("warp_demo@2.144")[0]]


def test_orthonormal_frame_closed_form():
    for g in _frame_inputs():
        d = g.shape[-1]
        T = positivity._orthonormal_frame(g, range(len(g)))
        TH = np.conjugate(np.swapaxes(T, -1, -2))
        np.testing.assert_allclose(TH @ np.conjugate(g) @ T,
                                   np.broadcast_to(np.eye(d), g.shape), rtol=0, atol=1e-12)
        assert np.all(T[:, 1:, 0] == 0)
        diag = T[:, range(d), range(d)]
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64).reshape(len(a), -1)


def test_orthonormal_frame_agrees_with_factorization():
    """Bit for bit, signed zeros included, where LU inside inv does not
    pivot (|l21| > l11 in the 1-norm of re and im); within 1e-15
    relative on every row."""
    pivot_rows = 0
    for g in _frame_inputs():
        T = positivity._orthonormal_frame(g, range(len(g)))
        ref = _lapack_frame(g)
        rel = np.abs(T - ref).max((-2, -1)) / np.abs(ref).max((-2, -1))
        assert rel.max() <= 1e-15
        L = np.linalg.cholesky(np.conjugate(g))
        l21 = L[:, -1, 0]  # l11 itself at d = 1, which never pivots
        pivots = np.abs(l21.real) + np.abs(l21.imag) > L[:, 0, 0].real
        assert np.array_equal(_bits(T[~pivots]), _bits(ref[~pivots]))
        pivot_rows += int(pivots.sum())
    assert pivot_rows > 1000  # the random batch has them (about 40 %)


@pytest.mark.parametrize("d,bad,first", [
    (2, {3: [[1.0, 2.0], [2.0, 1.0]], 5: [[-1.0, 0.0], [0.0, 1.0]]}, 3),
    (2, {4: [[np.nan, 0.0], [0.0, 1.0]], 6: [[1.0, 0.0], [0.0, 0.0]]}, 4),
    (2, {2: [[1.0, 0.0], [0.0, np.nan]]}, 2),
    (1, {1: [[0.0]], 4: [[-2.0]]}, 1),
    (1, {5: [[np.nan]]}, 5),
])
def test_orthonormal_frame_names_the_first_bad_point(d, bad, first):
    """A pivot square <= 0 or NaN, in either pivot, at the first such row."""
    g = np.broadcast_to(np.eye(d, dtype=complex), (7, d, d)).copy()
    for row, entries in bad.items():
        g[row] = entries
    idx = np.arange(100, 107)
    with pytest.raises(ArithmeticError,
                       match=f"not positive definite at point index {100 + first}$"):
        positivity._orthonormal_frame(g, idx)


def _pauli_sphere_quadratic(T, R):
    """_sphere_quadratic with the basis change as the product W @ PAULI."""
    P = T.shape[0]
    W = (T[:, :, None, :, None] * np.conjugate(T)[:, None, :, None, :]).reshape(P, 4, 4)
    B = W @ PAULI
    H = np.swapaxes(B, -1, -2) @ R.reshape(P, 4, 4) @ B
    return 0.25 * (H + np.swapaxes(H, -1, -2)).real


@pytest.mark.parametrize("label", EXACT_GRIDS)
def test_pauli_columns_equal_the_matrix_product(label):
    g, R = _exact_grid(label)
    T = positivity._orthonormal_frame(g, range(len(g)))
    Q = positivity._sphere_quadratic(T, R)
    assert np.array_equal(Q.view(np.int64), _pauli_sphere_quadratic(T, R).view(np.int64))


def test_pauli_columns_equal_the_matrix_product_on_random_input():
    rng = np.random.default_rng(7)
    T = rng.standard_normal((5000, 2, 2)) + 1j * rng.standard_normal((5000, 2, 2))
    R = rng.standard_normal((5000, 2, 2, 2, 2)) + 1j * rng.standard_normal((5000, 2, 2, 2, 2))
    assert np.array_equal(positivity._sphere_quadratic(T, R).view(np.int64),
                          _pauli_sphere_quadratic(T, R).view(np.int64))


def test_no_per_point_factorization_on_the_d2_path(monkeypatch):
    """scan_chart on paper_G(1) and lambda_search on warp_demo run with
    cond, svd, cholesky and inv refusing; eigh and solve stay allowed."""
    def reports():
        return (scan_chart(dsl.catalog("paper_G(1)"), grid_per_axis=3).as_dict(),
                warp.lambda_search(warp.warp_demo_fibration(), grid_per_axis=3).as_dict())

    def refuse(*args, **kwargs):
        raise AssertionError("per-point factorization on the d <= 2 path")

    expected = reports()
    for name in ("cond", "svd", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert reports() == expected
