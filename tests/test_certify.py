"""Split-bound certification constants, block tensors, and 1-D pencils."""

import dataclasses
import math
import re

import numpy as np
import pytest

from hsclab import acceptance, certify, dsl
from hsclab.certify import (check_block_hypotheses, choose_weights,
                            pencil_at, pencil_decay_check,
                            pencil_positive_threshold, pencil_spec,
                            product_inequality_check,
                            product_inequality_slacks, random_block_tensor,
                            split_bound_check, weight_identities)
from hsclab.curvature import PointOutsideBoxError, gaussian_curvature_1d


# -- weight constants -------------------------------------------------------


def test_reference_weight_tuple():
    """The (8, 1, n=2, s=1) instance has the exact rational weights
    a^2=1/4, b^2=1/6, c^2=1/4, d^2=1/16 and required ratio 312."""
    w = choose_weights(8.0, 1.0, 2, 1)
    assert w.a_sq == 0.25
    assert w.b_sq == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert w.c_sq == 0.25
    assert w.d_sq == 0.0625
    assert w.required_ratio == 312.0
    assert w.base_required == 312.0  # ratio times a unit mixed bound


def test_weight_identities_exact_for_random_inputs(monkeypatch):
    rng = np.random.default_rng(21)
    for _ in range(25):
        k0 = float(rng.uniform(0.1, 20.0))
        k1 = float(rng.uniform(0.1, 10.0))
        n = int(rng.integers(2, 7))
        s = int(rng.integers(1, n))
        facts = weight_identities(k0, k1, n, s)
        assert facts["terms_equalized"]
        assert facts["constraint_sum_is_half_ratio"]
        assert facts["ratio_formula_matches"]
        assert facts["required_ratio"] > 0

    # A wrong weight whose split constant is recomputed from it must fail
    # the closed-form comparison.
    exact = certify._exact_weights

    def doubled_a(k0, k1, n, s):
        (a_sq, b_sq, c_sq, d_sq), terms, r, _ = exact(k0, k1, n, s)
        a_sq *= 2
        u = n - s
        kcal = (4 / a_sq * s * u ** 2 + 4 * s * u
                + 6 / b_sq * s ** 2 + 4 / (c_sq * d_sq) * s ** 3)
        return (a_sq, b_sq, c_sq, d_sq), terms, r, kcal

    monkeypatch.setattr(certify, "_exact_weights", doubled_a)
    assert not weight_identities(8.0, 1.0, 2, 1)["ratio_formula_matches"]


def test_required_ratio_scale_invariance_on_exact_factors():
    # invariance under joint rescaling holds exactly when the factor is a
    # power of two (inputs round otherwise before the formula sees them)
    base = choose_weights(3.0, 1.25, 4, 2).required_ratio
    for t in (0.5, 2.0, 8.0, 1024.0):
        assert choose_weights(3.0 * t, 1.25 * t, 4, 2).required_ratio == base


def test_weights_reject_bad_inputs():
    with pytest.raises(ValueError):
        choose_weights(0.0, 1.0, 2, 1)
    with pytest.raises(ValueError):
        choose_weights(1.0, 1.0, 2, 2)  # needs at least one base direction
    with pytest.raises(ValueError):
        choose_weights(1.0, 1.0, 1, 0)


# -- quartic product inequalities -------------------------------------------


def test_unit_slacks_at_all_ones():
    s = product_inequality_slacks(1.0, 1.0, 1.0, 1.0, np.ones((1, 6)))
    np.testing.assert_allclose(s, [[2.0, 1.0, 2.0]])


def test_slacks_are_quartic_homogeneous():
    rng = np.random.default_rng(22)
    m = rng.uniform(0.0, 2.0, (10, 6))
    a, b, c, d = 0.7, 1.2, 0.4, 2.0
    s1 = product_inequality_slacks(a, b, c, d, 1.5 * m)
    s0 = product_inequality_slacks(a, b, c, d, m)
    np.testing.assert_allclose(s1, 1.5 ** 4 * s0, rtol=1e-12)
    z = product_inequality_slacks(a, b, c, d, np.zeros((1, 6)))
    np.testing.assert_array_equal(z, np.zeros((1, 3)))


def test_product_inequalities_hold_on_random_moduli():
    for seed in (0, 1, 2):
        rng = np.random.default_rng([seed, 99])
        a, b, c, d = rng.uniform(0.2, 3.0, 4)
        rep = product_inequality_check(a, b, c, d, trials=4000, seed=seed)
        assert rep["violations"] == 0
        assert rep["worst_slack"] >= 0


def test_product_inequality_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        product_inequality_check(1.0, 0.0, 1.0, 1.0, trials=10)


def test_product_inequality_rejects_a_nan_weight():
    with pytest.raises(ValueError):
        product_inequality_check(math.nan, 1.0, 1.0, 1.0, trials=10)


def test_product_inequality_counts_a_nan_slack(monkeypatch):
    slacks = certify.product_inequality_slacks

    def one_nan(*args):
        out = slacks(*args)
        out[3, 1] = np.nan
        return out

    monkeypatch.setattr(certify, "product_inequality_slacks", one_nan)
    rep = product_inequality_check(1.0, 1.0, 1.0, 1.0, trials=10)
    assert rep["violations"] == 1
    assert math.isnan(rep["worst_slack"])


# -- block tensors and the certified bound ----------------------------------


def test_sampled_checks_refuse_zero_trials():
    w = choose_weights(2.0, 0.8, 4, 2)
    t = random_block_tensor(2.0, 0.8, w.base_required, 4, 2, seed=3)
    checks = (lambda: product_inequality_check(1.0, 1.0, 1.0, 1.0, trials=0),
              lambda: check_block_hypotheses(t, trials=0),
              lambda: split_bound_check(t, w, trials=0))
    for check in checks:
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            check()


def test_random_block_tensor_honors_hypotheses():
    t = random_block_tensor(2.0, 0.8, 700.0, 4, 2, seed=3)
    rep = check_block_hypotheses(t, trials=3000, seed=3)
    assert rep["ok"]


def test_block_hypotheses_refuse_a_broken_mirror():
    """A strictly mixed entry whose mirror (j, i, l, k) is off by 1e-3,
    still under mixed_bound, breaks the pair symmetry the real quartic
    margins rely on, so ok is False."""
    t = random_block_tensor(2.0, 0.8, 700.0, 4, 2, seed=3)
    R = t.R.copy()
    R[0, 2, 1, 3] += 1e-3  # mirror of R[2, 0, 3, 1]
    broken = dataclasses.replace(t, R=R)
    rep = check_block_hypotheses(broken, trials=3000, seed=3)
    assert rep["mixed_entry_max"] < t.mixed_bound
    assert rep["pair_symmetry_defect"] == pytest.approx(1e-3, rel=1e-9)
    assert not rep["ok"]


def _random_block_tensor_loop(fiber_lower, mixed_bound, base_lower, n, s, seed):
    """The entry-by-entry construction random_block_tensor replaced: einsum
    model blocks and mixed mask, then a walk over the strictly mixed
    entries in C order that draws for each canonical one (the first of it
    and its mirror (j, i, l, k)) a real value, or a modulus and a phase
    for a pair."""
    def model_block(bound, size):
        eye = np.eye(size)
        return (0.5 * bound * (np.einsum("ij,kl->ijkl", eye, eye)
                               + np.einsum("il,kj->ijkl", eye, eye))).astype(complex)

    fiber = np.arange(n) < s
    allf = np.einsum("i,j,k,l->ijkl", fiber, fiber, fiber, fiber)
    allb = np.einsum("i,j,k,l->ijkl", ~fiber, ~fiber, ~fiber, ~fiber)
    rng = np.random.default_rng(seed)
    R = np.zeros((n, n, n, n), dtype=complex)
    R[:s, :s, :s, :s] = model_block(fiber_lower, s)
    R[s:, s:, s:, s:] = model_block(base_lower, n - s)
    cap = certify.MIXED_FILL * mixed_bound
    for ijkl in np.argwhere(~(allf | allb)):
        i, j, k, l = (int(v) for v in ijkl)
        mirror = (j, i, l, k)
        if (i, j, k, l) > mirror:
            continue
        if (i, j, k, l) == mirror:
            R[i, j, k, l] = rng.uniform(-cap, cap)
            continue
        w = cap * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform(0, 1))
        R[i, j, k, l] = w
        R[mirror] = np.conjugate(w)
    return R


def test_random_block_tensor_matches_entry_loop():
    for n in range(2, 7):
        for s in range(1, n):
            for seed in (0, 1, 17, 2**31 - 1):
                args = (0.5 + seed % 5, 0.3 + n, 50.0 * s, n, s)
                t = random_block_tensor(*args, seed=seed)
                assert np.array_equal(t.R, _random_block_tensor_loop(*args, seed))


def test_split_bound_at_required_base_level():
    rng = np.random.default_rng(31)
    for trial in range(4):
        k0 = float(rng.uniform(0.5, 6.0))
        k1 = float(rng.uniform(0.2, 3.0))
        n = int(rng.integers(2, 5))
        s = int(rng.integers(1, n))
        w = choose_weights(k0, k1, n, s)
        t = random_block_tensor(k0, k1, w.base_required, n, s, seed=trial)
        rep = split_bound_check(t, w, trials=3000, seed=trial)
        assert rep["violations"] == 0
        assert rep["all_strictly_positive"]
        assert rep["worst_margin"] >= 0


def test_split_bound_counts_nan_margins():
    w = choose_weights(2.0, 0.8, 4, 2)
    t = random_block_tensor(2.0, 0.8, w.base_required, 4, 2, seed=3)
    rep = split_bound_check(dataclasses.replace(t, fiber_lower=math.nan), w,
                            trials=50, seed=3)
    assert rep["violations"] == 50
    assert math.isnan(rep["worst_margin"])
    with pytest.raises(ValueError, match="base_lower"):
        split_bound_check(dataclasses.replace(t, base_lower=math.nan), w)


def test_split_bound_persists_above_required_level():
    # the certificate only needs the base bound to clear the required
    # ratio; any excess keeps the conclusion (and its strict positivity)
    w = choose_weights(2.0, 1.0, 3, 1)
    for factor in (1.0, 4.0, 64.0):
        t = random_block_tensor(2.0, 1.0, factor * w.base_required, 3, 1, seed=7)
        rep = split_bound_check(t, w, trials=2000, seed=7)
        assert rep["violations"] == 0
        assert rep["all_strictly_positive"]


# -- one-coordinate pencils --------------------------------------------------


def test_pencil_formula_matches_direct_curvature():
    from hsclab.curvature import gaussian_curvature_1d
    g = dsl.catalog("poincare")
    h = dsl.catalog("fs_affine")
    rng = np.random.default_rng(41)
    for _ in range(20):
        z = complex(*rng.uniform(-0.5, 0.5, 2))
        lam = float(rng.uniform(0.01, 20.0))
        closed = pencil_at(g, h, z)[1](lam)
        direct = gaussian_curvature_1d(pencil_spec(g, h, lam), z)
        assert closed == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_pencil_batch_equals_per_point_calls():
    g, h = dsl.catalog("poincare"), dsl.catalog("paper_base")
    pts = dsl.box_sample(pencil_spec(g, h, 1.0).box, np.random.default_rng(43), 6)[:, 0]
    kh, phi = pencil_at(g, h, pts)
    assert kh.shape == (6,)
    for lam in (1e-3, 0.1, 1.0, 17.0):
        vals = phi(lam)
        assert vals.shape == (6,)
        for k, z in enumerate(pts):
            kh_one, phi_one = pencil_at(g, h, z)
            assert type(kh_one) is float and type(phi_one(lam)) is float
            assert np.float64(kh_one).tobytes() == kh[k].tobytes()
            assert np.float64(phi_one(lam)).tobytes() == vals[k].tobytes()
    with pytest.raises(PointOutsideBoxError, match=re.escape("[(2+0j)]")):
        pencil_at(g, h, np.append(pts, 2.0))


def test_pencil_spec_refuses_disjoint_boxes():
    g = dsl.catalog("poincare")
    far = dsl.MetricSpec("far", 1, g.entries, (dsl.Rect(2.0, 3.0, 2.0, 3.0),))
    with pytest.raises(ValueError, match="minimum above its maximum"):
        pencil_spec(g, far, 1.0)


def test_pencil_threshold_reference_pair():
    """At the origin the mixed term vanishes and the numerator is
    4*lam^2 - 4, so positivity starts exactly at lam = 1."""
    out = pencil_positive_threshold(dsl.catalog("poincare"),
                                    dsl.catalog("fs_affine"), 0j)
    assert out == {"threshold": 1.0, "curvature_at_threshold": 0.0,
                   "positive_at_start": False}


@pytest.mark.xfail(reason="a sign slip on the doubled mixed term would give "
                   "numerator 4*lam^2 + 8*lam - 4 and threshold sqrt(2)-1; "
                   "the doubled term vanishes at 0, so the true root is 1",
                   strict=True)
def test_pencil_threshold_sign_slip_variant():
    out = pencil_positive_threshold(dsl.catalog("poincare"),
                                    dsl.catalog("fs_affine"), 0j)
    assert out["threshold"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)


def test_pencil_threshold_requires_positive_second_metric():
    with pytest.raises(ValueError):
        pencil_positive_threshold(dsl.catalog("fs_affine"),
                                  dsl.catalog("poincare"), 0j)


def test_pencil_threshold_unreachable_within_cap_raises():
    # this pair turns positive at lam = 2 (numerator 2*lam^2 - 2*lam - 4
    # at the origin)
    out = pencil_positive_threshold(dsl.catalog("poincare"),
                                    dsl.catalog("paper_base"), 0j)
    assert out["threshold"] == pytest.approx(2.0, rel=1e-15)


def test_pencil_threshold_positive_at_schedule_start():
    """fs_affine + lam*fs_affine has curvature 4/(1+lam) > 0 for every
    lam, so the numerator has no root above 0 and the threshold is 0."""
    fs = dsl.catalog("fs_affine")
    out = pencil_positive_threshold(fs, fs, 0j)
    assert out == {"threshold": 0.0, "curvature_at_threshold": 4.0,
                   "positive_at_start": True}
    ref = pencil_positive_threshold(dsl.catalog("poincare"), fs, 0j)
    assert ref["positive_at_start"] is False


def _bisection_threshold(phi, start=1e-6, cap=2.0 ** 30, bisections=40):
    """The doubling-then-bisection search the closed form replaced, kept
    as its reference: (hi, positive_at_start)."""
    lam = float(start)
    val = phi(lam)
    lo = 0.0
    while val <= 0:
        lo = lam
        lam *= 2
        if lam > cap:
            raise RuntimeError(f"no positive value up to lam = {cap:g}")
        val = phi(lam)
    hi = lam
    for _ in range(bisections if lo > 0.0 else 0):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi, lo == 0.0


PENCIL_PAIR_NAMES = ("poincare", "fs_affine", "paper_base", "flat(1)")


def test_pencil_threshold_matches_bisection_and_direct_sign_change():
    """Over all 16 ordered catalog pairs at random points: the closed form
    matches the bisection to 1e-9 relative, and the curvature of the
    summed metric changes sign across it.  Points where K(h) <= 0 (every
    point of poincare and flat(1) as h) are refused."""
    rng = np.random.default_rng(61)
    compared = refused = at_start = 0
    for gname in PENCIL_PAIR_NAMES:
        for hname in PENCIL_PAIR_NAMES:
            g, h = dsl.catalog(gname), dsl.catalog(hname)
            pts = dsl.box_sample(pencil_spec(g, h, 1.0).box, rng, 4)[:, 0]
            for z, kh in zip(pts, pencil_at(g, h, pts)[0]):
                if kh <= 0:
                    with pytest.raises(ValueError, match="nonpositive"):
                        pencil_positive_threshold(g, h, z)
                    refused += 1
                    continue
                out = pencil_positive_threshold(g, h, z)
                thr = out["threshold"]
                hi, hi_at_start = _bisection_threshold(pencil_at(g, h, z)[1])
                assert out["positive_at_start"] is hi_at_start is (thr == 0.0)
                if thr == 0.0:
                    # the bisection only bounds such a threshold from above
                    assert out["curvature_at_threshold"] >= 0
                    assert gaussian_curvature_1d(pencil_spec(g, h, hi), z) > 0
                    at_start += 1
                    continue
                assert thr == pytest.approx(hi, rel=1e-9, abs=0)
                below, above = (gaussian_curvature_1d(pencil_spec(g, h, lam), z)
                                for lam in (thr * (1 - 1e-6), thr * (1 + 1e-6)))
                assert below < 0 < above, (gname, hname, z, thr)
                compared += 1
    assert (compared, at_start, refused) == (9, 23, 32)


def test_pencil_threshold_larger_root_keeps_its_digits(monkeypatch):
    """a2 = 1, a1 = 1e8, a0 = -1: the larger root is 1e-8 to 1e-16
    relative; the textbook (-a1 + sqrt(D)) / (2*a2) loses most of those
    digits to cancellation."""
    # (g, h, K(g), K(h), cross) with g^3 K(g) = -1, h^3 K(h) = 1, 2*cross = 1e8
    monkeypatch.setattr(certify, "_pencil_terms",
                        lambda *args: tuple(np.array([v]) for v in (1.0, 1.0, -1.0, 1.0, 5e7)))
    out = pencil_positive_threshold(dsl.catalog("poincare"),
                                    dsl.catalog("fs_affine"), 0j)
    assert out["threshold"] == pytest.approx(1e-8, rel=1e-12)
    assert out["curvature_at_threshold"] == pytest.approx(0.0, abs=1e-15)
    textbook = (-1e8 + math.sqrt(1e16 + 4)) / 2
    assert abs(textbook / 1e-8 - 1) > 1e-3


def test_pencil_reads_each_entry_jet_once(monkeypatch):
    calls = []
    eval_jet = dsl.eval_jet

    def counting(*args, **kwargs):
        calls.append(args[0])
        return eval_jet(*args, **kwargs)

    monkeypatch.setattr(dsl, "eval_jet", counting)
    g, h = dsl.catalog("poincare"), dsl.catalog("fs_affine")
    pencil_decay_check(g, h, 0.1j)
    assert len(calls) == 2
    calls.clear()
    pencil_positive_threshold(g, h, 0.1j)
    assert len(calls) == 2


def test_pencil_suite_reads_each_point_once(monkeypatch):
    calls = []
    eval_jet = dsl.eval_jet

    def counting(*args, **kwargs):
        calls.append(args[0])
        return eval_jet(*args, **kwargs)

    monkeypatch.setattr(dsl, "eval_jet", counting)
    assert acceptance.check_pencil_suite(0)["ok"]
    # the suite's 50 draws of an ordered (g, h) pair and 5 points; the
    # points' draws consume the stream whatever the box
    rng = np.random.default_rng([0, 6])
    groups = set()
    for _ in range(50):
        groups.add((rng.integers(0, 4), rng.integers(0, 4)))
        rng.uniform(size=10)
    # per ordered pair, one batch of its points: both entry jets once,
    # plus the summed metric at each of 4 lams; then 2 + 2 + 2 for the
    # root, threshold and decay; then the threshold checks at one point
    # of each of the 8 pairs with K(h) > 0: 2 + 2 for the suite's own
    # coefficients and the threshold, and the summed metric at 2 lams
    # for each of the 3 positive thresholds (the point 0 among them)
    assert len(groups) == 15
    assert len(calls) == len(groups) * (2 + 4) + 6 + 8 * 4 + 3 * 2 == 134


def test_pencil_decay_toward_rescaled_limit():
    rep = pencil_decay_check(dsl.catalog("poincare"), dsl.catalog("fs_affine"), 0j)
    assert rep["limit_curvature"] == pytest.approx(4.0)
    assert abs(rep["top_ratio"] - 1.0) < 0.01
    assert abs(rep["tail_slope"] + 1.0) < 0.2


def test_pencil_decay_flags_wrong_limit():
    # a pencil whose second metric is flat decays to zero, not to a
    # positive limit; the check must refuse it
    with pytest.raises((ArithmeticError, ValueError)):
        pencil_decay_check(dsl.catalog("poincare"), dsl.catalog("flat(1)"), 0j)
