"""The derivative tape's jets against the divided-difference oracle and
hand jets, and the oracle's own stencil."""

import ast
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hsclab import dsl, wirtinger
from hsclab.dsl import parse, to_source
from hsclab.wirtinger import Jet2, SingularPointError, fd_jet


def test_fd_jet_squared_modulus():
    # f(z) = z*conj(z): d = conj(p), dbar = p, ddbar = 1
    p = 0.4 - 0.25j
    jet = fd_jet(lambda z: z[..., 0] * np.conjugate(z[..., 0]), [p])
    assert abs(jet.value - abs(p) ** 2) < 1e-10
    assert abs(jet.d[0] - np.conjugate(p)) < 1e-8
    assert abs(jet.dbar[0] - p) < 1e-8
    assert abs(jet.ddbar[0, 0] - 1.0) < 1e-6


def test_fd_jet_two_variables():
    # f(z) = z1^2 * conj(z2): only the (1, 2bar) mixed slot is nonzero
    p = np.array([0.3 + 0.2j, -0.1 + 0.5j])
    jet = fd_jet(lambda z: z[..., 0] ** 2 * np.conjugate(z[..., 1]), p)
    assert abs(jet.d[0] - 2 * p[0] * np.conjugate(p[1])) < 1e-8
    assert abs(jet.d[1]) < 1e-8
    assert abs(jet.dbar[0]) < 1e-8
    assert abs(jet.dbar[1] - p[0] ** 2) < 1e-8
    expect = np.zeros((2, 2), dtype=complex)
    expect[0, 1] = 2 * p[0]
    np.testing.assert_allclose(jet.ddbar, expect, atol=1e-6)


def test_seed_jet_slots():
    """The jets of the coordinate functions z1 and conj(z1)."""
    p = np.array([[0.1j, 0.7]])
    z1 = dsl.eval_jet(parse("z1", 2), 2, p)
    np.testing.assert_array_equal(z1.d, [[1.0, 0.0]])
    np.testing.assert_array_equal(z1.dbar, [[0.0, 0.0]])
    np.testing.assert_array_equal(z1.ddbar, np.zeros((1, 2, 2)))
    z1bar = dsl.eval_jet(parse("conj(z1)", 2), 2, p)
    np.testing.assert_array_equal(z1bar.dbar, [[1.0, 0.0]])
    assert z1bar.value == np.conjugate(p[0, 0])


def test_constant_jet_is_flat():
    c = dsl.eval_jet(parse("2.5-i", 3), 3, np.zeros((1, 3), dtype=complex))
    assert c.value == 2.5 - 1j
    assert not c.d.any() and not c.dbar.any() and not c.ddbar.any()


def _lit(x) -> str:
    """DSL source of the constant x."""
    return to_source(dsl.Lit(complex(x)))


def _compare_to_fd(src, f, point, tol=1e-5):
    """Evaluate the parsed `src` on the derivative tape and `f` through
    the oracle; the two jets must agree slot by slot relative to the
    oracle's own scale."""
    pts = np.asarray(point, dtype=complex)
    n = pts.shape[0]
    got = dsl.eval_jet(parse(src, n), n, pts)
    want = fd_jet(f, pts)
    for name in ("value", "d", "dbar", "ddbar"):
        a, b = np.atleast_1d(getattr(got, name)), np.atleast_1d(getattr(want, name))
        scale = max(1.0, float(np.abs(b).max()))
        np.testing.assert_allclose(a, b, atol=tol * scale, err_msg=name)


def test_product_rule_matches_oracle():
    _compare_to_fd(
        "z1*conj(z1)*z2",
        lambda z: z[..., 0] * np.conjugate(z[..., 0]) * z[..., 1],
        [0.3 - 0.2j, 0.5 + 0.4j])


def test_quotient_rule_matches_oracle():
    _compare_to_fd(
        "1/(1+z1*conj(z1))",
        lambda z: 1.0 / (1.0 + z[..., 0] * np.conjugate(z[..., 0])),
        [0.6 + 0.1j])


def test_exp_chain_rule_matches_oracle():
    _compare_to_fd(
        "exp(z1*conj(z1)+2*z2)",
        lambda z: np.exp(z[..., 0] * np.conjugate(z[..., 0]) + 2.0 * z[..., 1]),
        [0.2 + 0.3j, -0.1 - 0.2j])


def test_negative_power_matches_oracle():
    _compare_to_fd(
        "(1+z1*conj(z1))^-2",
        lambda z: (1.0 + z[..., 0] * np.conjugate(z[..., 0])) ** -2.0,
        [0.45 - 0.3j])


def test_random_rational_jets_match_oracle():
    """Hand-rolled property check: random coefficient rational functions
    of one variable, jets vs the oracle at random interior points."""
    rng = np.random.default_rng(2024)
    for _ in range(25):
        a, b, c = rng.uniform(0.5, 2.0, 3)
        w = complex(*rng.uniform(-0.1, 0.1, 2))
        t = f"(z1+{_lit(w)})*conj(z1+{_lit(w)})"
        src = f"({_lit(a)}+{_lit(b)}*{t})/({_lit(c)}+{t}*{t})"

        def f(z, a=a, b=b, c=c, w=w):
            t = (z[..., 0] + w) * np.conjugate(z[..., 0] + w)
            return (a + b * t) / (c + t * t)

        p = complex(*rng.uniform(-0.6, 0.6, 2))
        _compare_to_fd(src, f, [p])


def test_reciprocal_of_zero_raises():
    with pytest.raises(SingularPointError):
        dsl.eval_jet(parse("1/z1", 1), 1, [[0j]])


def test_batched_jets_broadcast():
    pts = np.linspace(0.1, 0.5, 4)[:, None] * (1 + 1j)
    sq = dsl.eval_jet(parse("z1*conj(z1)", 1), 1, pts)
    assert sq.value.shape == (4,)
    np.testing.assert_allclose(sq.value, np.abs(pts[:, 0]) ** 2)
    np.testing.assert_allclose(sq.ddbar[:, 0, 0], 1.0)


def test_conjugate_transposes_mixed_block():
    rng = np.random.default_rng(7)
    p = (rng.standard_normal(2) + 1j * rng.standard_normal(2)).reshape(1, 2)
    src = "z1*conj(z2)+z2^2"
    j = dsl.eval_jet(parse(src, 2), 2, p)
    jc = dsl.eval_jet(parse(f"conj({src})", 2), 2, p)
    np.testing.assert_allclose(jc.ddbar[0], np.conjugate(j.ddbar[0].T))
    np.testing.assert_allclose(jc.d, np.conjugate(j.dbar))


def test_fd_jet_batch_matches_per_point_calls():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.6, 0.6, (2, 3, 2)) + 1j * rng.uniform(-0.6, 0.6, (2, 3, 2))
    evaluators = (
        lambda z: (np.exp(z[..., 0] * np.conjugate(z[..., 1]))
                   / (1.0 + z[..., 1] * np.conjugate(z[..., 1]))),
        lambda z: 2.5 - 1j,  # a constant comes back as a scalar
    )
    for f in evaluators:
        batch = fd_jet(f, pts, step=1e-3)
        assert batch.value.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = fd_jet(f, pts[idx], step=1e-3)
            for name in ("value", "d", "dbar", "ddbar"):
                np.testing.assert_array_equal(getattr(batch, name)[idx],
                                              getattr(one, name), err_msg=name)


def _fd_jet_per_call_stencil(f, points, step):
    """fd_jet as it was before its stencil was cached: every call builds
    the offsets, axis pairs and split points at step h."""
    pts = np.asarray(points, dtype=complex)
    n = pts.shape[-1]
    m = 2 * n
    h = float(step)
    axes = h * np.concatenate([np.eye(n), 1j * np.eye(n)])
    ia, ib = np.triu_indices(m, 1)
    offsets = np.concatenate([
        np.zeros((1, n)), axes, -axes,
        axes[ia] + axes[ib], axes[ia] - axes[ib],
        -axes[ia] + axes[ib], -axes[ia] - axes[ib]])
    vals = np.broadcast_to(np.asarray(f(pts[..., None, :] + offsets), dtype=complex),
                           pts.shape[:-1] + offsets.shape[:1])
    f0 = vals[..., 0]
    fp, fm, fpp, fpm, fmp, fmm = np.split(
        vals[..., 1:], np.cumsum([m, m, ia.size, ia.size, ia.size]), axis=-1)
    grad = (fp - fm) / (2 * h)
    hess = np.empty(pts.shape[:-1] + (m, m), dtype=complex)
    diag = np.arange(m)
    hess[..., diag, diag] = (fp - 2 * f0[..., None] + fm) / (h * h)
    hess[..., ia, ib] = hess[..., ib, ia] = (fpp - fpm - fmp + fmm) / (4 * h * h)
    dx, dy = grad[..., :n], grad[..., n:]
    d = (dx - 1j * dy) / 2.0
    dbar = (dx + 1j * dy) / 2.0
    ddbar = (hess[..., :n, :n] + hess[..., n:, n:]
             + 1j * (hess[..., :n, n:] - hess[..., n:, :n])) / 4.0
    return Jet2(f0.copy(), d, dbar, ddbar)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_jet_matches_the_per_call_stencil_bit_for_bit(n):
    rng = np.random.default_rng([23, n])
    # the stencil points themselves, so a signed zero in an offset that
    # meets a -0.0 coordinate would show in the values
    seen = []

    def f(z):
        seen.append(z)
        return np.exp(z.sum(-1) * np.conjugate(z[..., 0])) / (2.0 + (z * z).sum(-1))

    for shape in ((), (7,)):
        pts = rng.uniform(-0.5, 0.5, shape + (n,)) + 1j * rng.uniform(-0.5, 0.5, shape + (n,))
        pts.real[..., 0] = -0.0
        for step in (1e-3, 5e-4):  # the two Richardson steps of the jets check
            got = fd_jet(f, pts, step=step)
            want = _fd_jet_per_call_stencil(f, pts, step)
            assert seen[-2].tobytes() == seen[-1].tobytes()
            for name in ("value", "d", "dbar", "ddbar"):
                assert getattr(got, name).shape == getattr(want, name).shape
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _per_entry_stack(jets, pts, n):
    """The n^2 entry jets of a metric, each slot stacked row-major after
    the batch axes: the layout both jet routes once built entry by entry."""
    b = pts.ndim - 1
    return [np.stack(s, b).reshape(pts.shape[:b] + (n, n) + s[0].shape[b:])
            for s in zip(*jets)]


@pytest.mark.parametrize("name", ["fs(3)", "warp_demo", "flat(2)"])
def test_whole_metric_jets_equal_the_per_entry_stacks(name):
    """One eval_jet call on a spec's entries, and one fd_jet call on
    dsl.metric_values, give bit for bit the per-entry jets stacked, for
    one point (n,) and for a batch (4, 3, n); flat(2)'s entries are
    literal constants."""
    spec = dsl.catalog(name)
    n, rng = spec.n, np.random.default_rng(31)
    entries = [e for row in spec.entries for e in row]
    for pts in (dsl.box_sample(spec.box, rng, 1)[0],
                dsl.box_sample(spec.box, rng, 12).reshape(4, 3, n)):
        tape = dsl.eval_jet(spec.entries, n, pts)
        want = _per_entry_stack([dsl.eval_jet(e, n, pts) for e in entries], pts, n)
        assert all(map(np.array_equal, tape, want)) and len(tape) == len(want)
        oracle = fd_jet(partial(dsl.metric_values, spec), pts)
        want = _per_entry_stack([fd_jet(partial(dsl.eval_value, e), pts) for e in entries],
                                pts, n)
        assert all(map(np.array_equal, oracle, want)) and len(oracle) == len(want)
        # a scalar f returning a Python constant still broadcasts
        const = fd_jet(lambda z: 2.5, pts)
        assert const.value.shape == pts.shape[:-1] and np.all(const.value == 2.5)
        assert const.ddbar.shape == pts.shape[:-1] + (n, n) and not const.ddbar.any()


def test_fd_stencil_arrays_are_read_only():
    arrays = [part for part in wirtinger._stencil(2) if isinstance(part, np.ndarray)]
    assert len(arrays) == 4
    for part in arrays:
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 1


def test_oracle_never_calls_jet_arithmetic(monkeypatch):
    """fd_jet and metric_jet_from_fd run with the derivative tape patched
    to raise."""
    from hsclab.curvature import metric_jet_from_fd

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the derivative tape")

    monkeypatch.setattr(dsl, "_Tape", refuse)
    monkeypatch.setattr(dsl, "eval_jet", refuse)
    jet = fd_jet(lambda z: z[..., 0] * np.conjugate(z[..., 0]), [0.3 + 0.1j])
    assert abs(jet.ddbar[0, 0] - 1.0) < 1e-6
    spec = dsl.catalog("paper_G(1)")
    mj = metric_jet_from_fd(spec, dsl.box_sample(spec.box, np.random.default_rng(3), 4))
    assert mj.ddbarg.shape == (4, 2, 2, 2, 2)


def test_oracle_module_imports_numpy_and_the_standard_library_only():
    tree = ast.parse(Path(wirtinger.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "wirtinger imports from its own package"
            roots.add(node.module.split(".")[0])
    assert "numpy" in roots
    assert roots - {"numpy"} <= set(sys.stdlib_module_names)
