"""Acceptance gate: runs the full verification suite once and reports one
pass/fail line per criterion.

The suite itself (hsclab.acceptance) re-derives every expected value from
an independent route before comparing: divided-difference jets against
algebraic jets, closed forms against tensor contractions, exact rational
weight identities, and scan-based searches against frozen closed-form
minima.  This module only asserts the outcomes.
"""

import dataclasses
import importlib
import json

import numpy as np
import pytest

from hsclab import acceptance, certify, dsl, positivity, warp, wirtinger
from hsclab.acceptance import ONE_DIM_CATALOG
from hsclab.curvature import (curvature, entry_jet_1d,
                              gaussian_curvature_1d, gaussian_from_jet,
                              metric_jet, metric_jet_from_fd, restrict)

curvature_module = importlib.import_module("hsclab.curvature")


@pytest.fixture(scope="module")
def suite():
    return acceptance.run_all(seed=0)


@pytest.mark.parametrize("name", acceptance.CHECK_NAMES)
def test_criterion(suite, name):
    entry = next(c for c in suite["checks"] if c["name"] == name)
    detail = json.dumps(entry["detail"], sort_keys=True, default=str)
    print(f"{'PASS' if entry['ok'] else 'FAIL'} {name}: {detail[:160]}")
    assert entry["ok"], f"{name}: {detail}"


def test_overall_verdict(suite):
    assert suite["ok"]
    assert suite["schema"] == 1
    assert suite["seed"] == 0
    assert len(suite["checks"]) == len(acceptance.CHECK_NAMES)


def test_report_is_canonically_serializable(suite):
    blob = acceptance.canonical_bytes(suite)
    assert json.loads(blob) == suite


# -- the jet oracle and pencil suite against their draw-by-draw loops ----

def _reference_random_jet_case(rng):
    """The draw-by-draw jet oracle's case draw, kept verbatim."""
    while True:
        n = int(rng.integers(1, 4))
        expr = dsl.random_expr(rng, n)
        pts = (rng.uniform(-0.8, 0.8, (1, n))
               + 1j * rng.uniform(-0.8, 0.8, (1, n)))
        try:
            with np.errstate(all="ignore"):
                jet = dsl.eval_jet(expr, n, pts)
        except (wirtinger.SingularPointError, ZeroDivisionError, OverflowError):
            continue
        parts = [jet.value, jet.d, jet.dbar, jet.ddbar]
        scale = max(float(np.abs(p).max()) for p in parts)
        if not all(np.isfinite(p).all() for p in parts) or scale > 1e6:
            continue
        return expr, n, pts, jet, max(1.0, scale)


def _reference_jet_slots(jet):
    return (jet.value, jet.d, jet.dbar, jet.ddbar)


def _reference_slots_gap(a, b) -> float:
    return max(float(np.abs(x - y).max())
               for x, y in zip(_reference_jet_slots(a), _reference_jet_slots(b)))


def _reference_jet_check(seed: int) -> dict:
    """check_jet_vs_divided_differences as a draw-by-draw loop, kept
    verbatim: two fd_jet calls per expression."""
    rng = np.random.default_rng([seed, 3])
    worst_ratio = 0.0
    checked = 0
    while checked < 1000:
        expr, n, pts, jet, scale = _reference_random_jet_case(rng)
        fd1 = wirtinger.fd_jet(lambda z: dsl.eval_value(expr, z), pts[0],
                               step=1e-3)
        fd2 = wirtinger.fd_jet(lambda z: dsl.eval_value(expr, z), pts[0],
                               step=5e-4)
        if _reference_slots_gap(fd1, fd2) > 1e-5 * scale:
            continue
        checked += 1
        floor = 1e-8 * scale
        for a, f1, f2 in zip(_reference_jet_slots(jet), _reference_jet_slots(fd1),
                             _reference_jet_slots(fd2)):
            refined = (4.0 * f2 - f1) / 3.0
            allowed = np.maximum(1e-6 * np.abs(a), floor)
            worst_ratio = max(worst_ratio,
                              float((np.abs(a - refined) / allowed).max()))

    specs = [*map(dsl.catalog, ("flat(1)", "flat(2)", "poincare", "fs_affine",
                                "paper_base")),
             restrict(dsl.catalog("paper_G(1)"), {2: 0.3 + 0.1j}),
             *map(dsl.catalog, ("paper_G(1)", "paper_G(5)", "warp_demo"))]
    worst_curv = 0.0
    for spec in specs:
        pts = dsl.box_sample(spec.box, rng, 100)
        r_arith = curvature(metric_jet(spec, pts)).R
        m1 = metric_jet_from_fd(spec, pts, step=1e-3)
        m2 = metric_jet_from_fd(spec, pts, step=5e-4)
        refined = [(4 * b - a) / 3 for a, b in zip(m1, m2)]
        r_fd = curvature(refined, check=False).R
        scale = max(1.0, float(np.abs(r_arith).max()))
        worst_curv = max(worst_curv,
                         float(np.abs(r_arith - r_fd).max()) / scale)
    ok = worst_ratio <= 1.0 and worst_curv <= 1e-6
    return {"ok": bool(ok), "worst_jet_tolerance_ratio": worst_ratio,
            "worst_curvature_rel_error": worst_curv,
            "expressions": 1000, "points_per_metric": 100}


def _reference_pencil_check(seed: int) -> dict:
    """check_pencil_suite with one pencil_at call per pair and one direct
    curvature read per pair and lam, kept verbatim."""
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for _ in range(50):
        gs = dsl.catalog(ONE_DIM_CATALOG[rng.integers(0, len(ONE_DIM_CATALOG))])
        hs = dsl.catalog(ONE_DIM_CATALOG[rng.integers(0, len(ONE_DIM_CATALOG))])
        box = certify.pencil_spec(gs, hs, 1.0).box[0]
        pts = np.array([complex(rng.uniform(box.re_min, box.re_max),
                                rng.uniform(box.im_min, box.im_max))
                        for _ in range(5)])
        phi = certify.pencil_at(gs, hs, pts)[1]
        for lam in (1e-3, 0.1, 1.0, 17.0):
            closed = phi(lam)
            direct = gaussian_curvature_1d(certify.pencil_spec(gs, hs, lam), pts)
            worst = max(worst, float((np.abs(closed - direct)
                                      / np.maximum(1.0, np.abs(direct))).max()))

    gs, hs = dsl.catalog("poincare"), dsl.catalog("fs_affine")
    g, gz, gzbar, gzz = entry_jet_1d(gs, 0j)
    h, hz, hzbar, hzz = entry_jet_1d(hs, 0j)
    kg = gaussian_from_jet(g, gz, gzbar, gzz)
    kh = gaussian_from_jet(h, hz, hzbar, hzz)
    a2 = h.real ** 3 * kh
    a1 = 2 * (-h.real * gzz - g.real * hzz + gz * hzbar + hz * gzbar).real
    a0 = g.real ** 3 * kg
    root = float((-a1 + np.sqrt(a1 * a1 - 4 * a2 * a0)) / (2 * a2))
    thr = certify.pencil_positive_threshold(gs, hs, 0j)
    thr_err = abs(thr["threshold"] - root)

    try:
        decay = certify.pencil_decay_check(gs, hs, 0j)
        decay_ok = True
    except ArithmeticError as exc:
        decay = {"error": str(exc)}
        decay_ok = False
    ok = worst <= 1e-9 and thr_err <= 1e-6 and decay_ok
    return {"ok": bool(ok), "worst_formula_rel_error": worst,
            "numerator_root": root, "threshold": thr["threshold"],
            "threshold_error": float(thr_err), "decay": decay,
            "pairs": 50, "points_per_pair": 5}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jet_oracle_rounds_match_draw_by_draw_loop(seed):
    assert (acceptance.check_jet_vs_divided_differences(seed)
            == _reference_jet_check(seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pencil_groups_match_per_pair_loop(seed):
    """Every field of the per-pair loop; the suite adds only the counts of
    its threshold confirmations."""
    out = acceptance.check_pencil_suite(seed)
    ref = _reference_pencil_check(seed)
    assert {key: out[key] for key in ref} == ref
    assert set(out) - set(ref) == {"threshold_points", "threshold_branches",
                                   "thresholds_confirmed"}


def test_pencil_suite_confirms_both_branches_and_a_zero_threshold():
    """At seed 0 the threshold is confirmed on the direct route at the
    point 0 of poincare + lam * fs_affine (a1 = 0) and at one point of
    each of the 8 ordered pairs with K(h) > 0; these take both branches
    of the closed form and a threshold of 0."""
    out = acceptance.check_pencil_suite(0)
    assert out["ok"]
    assert out["threshold_points"] == out["thresholds_confirmed"] == 9
    assert out["threshold_branches"] == {"a1_negative": 2, "a1_nonnegative": 1,
                                         "zero": 6}


def test_pencil_suite_fails_on_a_shifted_threshold(monkeypatch):
    """A closed form 1e-5 above the true root is negative on the direct
    route at its own thr * (1 + 1e-6), so the suite fails."""
    threshold = certify.pencil_positive_threshold

    def shifted(*args):
        out = dict(threshold(*args))
        out["threshold"] *= 1 + 1e-5
        return out

    monkeypatch.setattr(certify, "pencil_positive_threshold", shifted)
    out = acceptance.check_pencil_suite(0)
    assert not out["ok"]
    assert out["thresholds_confirmed"] == out["threshold_branches"]["zero"] == 6


def test_jet_oracle_calls_fd_jet_once_per_dimension_and_step(monkeypatch):
    events = []
    draw, fd_jet = acceptance._draw_jet_cases, wirtinger.fd_jet
    catalog_fd_jet = curvature_module.fd_jet

    def counting_draw(rng, count):
        assert count <= acceptance.JET_ROUND
        events.append(("round", count))
        return draw(rng, count)

    def counting_fd(f, points, step):
        events.append(("fd", np.shape(points)[-1], step))
        return fd_jet(f, points, step=step)

    def counting_catalog_fd(*args, **kwargs):
        events.append(("catalog",))
        return catalog_fd_jet(*args, **kwargs)

    monkeypatch.setattr(acceptance, "_draw_jet_cases", counting_draw)
    monkeypatch.setattr(wirtinger, "fd_jet", counting_fd)
    monkeypatch.setattr(curvature_module, "fd_jet", counting_catalog_fd)
    assert acceptance.check_jet_vs_divided_differences(0)["ok"]
    rounds = [[]]
    for event in events:
        if event[0] == "round":
            rounds.append([])
        elif event[0] == "fd":
            rounds[-1].append(event[1:])
    rounds = rounds[1:]
    # each round: at most one call per (n, step), so at most 2 x 3
    assert all(len(set(calls)) == len(calls) <= 6 for calls in rounds)
    jet_calls = sum(map(len, rounds))
    assert jet_calls <= 2 * 3 * len(rounds)
    # 9 catalog metrics, each metric's whole entry matrix read at both steps
    assert events.count(("catalog",)) == 18
    # 1028 draws in 9 rounds at seed 0; one by one they took 2048 calls
    assert len(rounds) <= 10


def test_jet_oracle_drops_the_same_draws(monkeypatch):
    """At seed 0 the oracle draws 1028 expressions and drops four of them
    before the divided differences: those whose jet raises, is not
    finite or exceeds 1e6.  Pinning them pins the 1000 expressions the
    oracle checks, so moving a singular point shows here."""
    drawn, reached = [], set()
    random_expr, stacked = dsl.random_expr, acceptance._stacked_fd_jet

    def recording_draw(rng, n, *depth):
        e = random_expr(rng, n, *depth)
        if not depth:  # a draw, not one of its subtrees
            drawn.append(e)
        return e

    def recording_oracle(exprs, points, step):
        reached.update(map(id, exprs))
        return stacked(exprs, points, step)

    monkeypatch.setattr(dsl, "random_expr", recording_draw)
    monkeypatch.setattr(acceptance, "_stacked_fd_jet", recording_oracle)
    assert acceptance.check_jet_vs_divided_differences(0)["ok"]
    assert len(drawn) == 1028
    assert [i for i, e in enumerate(drawn) if id(e) not in reached] == [34, 802, 871, 880]


_RULE = dsl._Tape._rule


def _conj_without_its_swap(self, i, k, bar):
    op, args, _ = self.nodes[i]
    if op == "conj":
        return self._conj(self._diff(args[0], k, bar))
    return _RULE(self, i, k, bar)


def _quotient_with_plus_for_minus(self, i, k, bar):
    op, args, _ = self.nodes[i]
    if op == "/":
        dl, dr = (self._diff(a, k, bar) for a in args)
        num = self._add(dl, self._mul(i, dr))
        return self.zero if num == self.zero else self._node("/", (num, args[1]))
    return _RULE(self, i, k, bar)


def _exp_without_its_chain_factor(self, i, k, bar):
    return i if self.nodes[i][0] == "exp" else _RULE(self, i, k, bar)


@pytest.mark.parametrize("defect", [_conj_without_its_swap, _quotient_with_plus_for_minus,
                                    _exp_without_its_chain_factor])
def test_jet_oracle_catches_a_derivative_rule_defect(monkeypatch, defect):
    monkeypatch.setattr(dsl._Tape, "_rule", defect)
    out = acceptance.check_jet_vs_divided_differences(0)
    assert not out["ok"]
    assert out["worst_jet_tolerance_ratio"] > 1e6


# -- a NaN in a compared route fails the check ---------------------------

def _nan_first(fn):
    """fn with the first element of each result replaced by NaN."""
    def wrapped(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out.flat[0] = np.nan
        return out
    return wrapped


def test_constant_curvature_fails_on_nan(monkeypatch):
    calls = []
    hsc = acceptance.hsc_dirs

    def nan_on_second_metric(*args):
        calls.append(None)
        return _nan_first(hsc)(*args) if len(calls) == 2 else hsc(*args)

    monkeypatch.setattr(acceptance, "hsc_dirs", nan_on_second_metric)
    out = acceptance.check_constant_curvature(0)
    assert not out["ok"]
    assert np.isnan(out["max_abs_error"]["fs_affine"])


def test_one_dim_equivalence_fails_on_nan(monkeypatch):
    monkeypatch.setattr(acceptance, "gaussian_curvature_1d",
                        _nan_first(acceptance.gaussian_curvature_1d))
    out = acceptance.check_one_dim_equivalence(0)
    assert not out["ok"]
    assert np.isnan(out["worst_abs_difference"])


def test_pencil_suite_fails_on_nan_direct_route(monkeypatch):
    monkeypatch.setattr(acceptance, "gaussian_curvature_1d",
                        _nan_first(acceptance.gaussian_curvature_1d))
    out = acceptance.check_pencil_suite(0)
    assert not out["ok"]
    assert np.isnan(out["worst_formula_rel_error"])


def test_split_bound_suite_keeps_a_nan_margin(monkeypatch):
    """A NaN worst margin from one of the 100 tensors is the suite's
    worst margin."""
    check = certify.split_bound_check
    done = []

    def one_nan(*args, **kwargs):
        rep = check(*args, **kwargs)
        if len(done) == 40:
            rep["worst_margin"] = np.nan
        done.append(True)
        return rep

    monkeypatch.setattr(certify, "split_bound_check", one_nan)
    out = acceptance.check_split_bound_suite(0)
    assert len(done) == 100
    assert np.isnan(out["bound_worst_margin"])


def test_warp_suite_fails_on_nan_slice_margin(monkeypatch):
    """One NaN in the ambient curvature of the first slice check (500
    two-coordinate trials) is a violation, and the suite's worst margin
    keeps it."""
    hsc = warp.hsc_dirs
    done = []

    def one_nan(g, R, dirs):
        out = hsc(g, R, dirs)
        if not done and out.shape[0] == 500 and np.shape(g)[-1] == 2:
            out[7, 0] = np.nan
            done.append(True)
        return out

    monkeypatch.setattr(warp, "hsc_dirs", one_nan)
    out = acceptance.check_warp_suite(0)
    assert done and not out["ok"]
    assert out["decreasing_violations"] >= 1
    assert np.isnan(out["decreasing_worst_margin"])


@pytest.mark.parametrize("route", ["descent", "brute_force"])
def test_exact_direction_minimum_fails_on_nan(monkeypatch, route):
    if route == "descent":
        probe = positivity._probe_and_descend

        def nan_descent(*args):
            vals, rest = probe(*args)
            vals = vals.copy()
            vals.flat[0] = np.nan
            return vals, rest

        monkeypatch.setattr(positivity, "_probe_and_descend", nan_descent)
        key = "worst_rel_excess_over_descent"
    else:
        monkeypatch.setattr(acceptance, "hsc_dirs",
                            _nan_first(acceptance.hsc_dirs))
        key = "worst_rel_excess_over_brute_force"
    out = acceptance.check_exact_direction_minimum(0)
    assert not out["ok"]
    assert np.isnan(out[key])


def test_jet_oracle_redraws_a_nan_oracle_slot(monkeypatch):
    draws = []  # one arithmetic jet per draw; the catalog half adds a fixed count
    eval_jet = dsl.eval_jet

    def counting(*args, **kwargs):
        draws.append(None)
        return eval_jet(*args, **kwargs)

    monkeypatch.setattr(dsl, "eval_jet", counting)
    clean = acceptance.check_jet_vs_divided_differences(0)
    clean_draws = len(draws)
    draws.clear()
    fd_jet = wirtinger.fd_jet
    poisoned = []

    def nan_in_first_ddbar(f, points, step):
        jet = fd_jet(f, points, step=step)
        if not poisoned:
            # one oracle slot of one draw; its value slot stays finite
            poisoned.append(None)
            jet.ddbar.flat[0] = np.nan
        return jet

    monkeypatch.setattr(wirtinger, "fd_jet", nan_in_first_ddbar)
    out = acceptance.check_jet_vs_divided_differences(0)
    # the poisoned draw counts as a disagreement: one more draw is needed
    assert len(draws) > clean_draws
    assert out["ok"] and np.isfinite(out["worst_jet_tolerance_ratio"])
    assert clean["ok"]


def test_jet_oracle_fails_on_nan_catalog_curvature(monkeypatch):
    from_fd = acceptance.metric_jet_from_fd

    def nan_second_derivative(spec, pts, step):
        mj = from_fd(spec, pts, step=step)
        mj.ddbarg[0, 0, 0, 0, 0] = np.nan
        return mj

    monkeypatch.setattr(acceptance, "metric_jet_from_fd", nan_second_derivative)
    out = acceptance.check_jet_vs_divided_differences(0)
    assert not out["ok"]
    assert np.isnan(out["worst_curvature_rel_error"])


# -- the torus-invariance check -------------------------------------------------

@pytest.mark.parametrize("term", ["0.01*(z1+conj(z1))", "0.01*z1"])
def test_torus_invariance_fails_on_a_mutated_metric(monkeypatch, term):
    """warp_demo with term added to its first diagonal entry, passed to
    the check with the detector bypassed.  The Hermitian term breaks the
    symmetry, which the check measures; +0.01*z1 also makes the metric
    non-Hermitian, which curvature_at's pair-symmetry gate refuses before
    any K is compared."""
    catalog = dsl.catalog

    def mutated(name):
        spec = catalog(name)
        if name != "warp_demo":
            return spec
        first = dsl.Binary("+", spec.entries[0][0], dsl.parse(term, spec.n))
        return dataclasses.replace(
            spec, entries=((first,) + spec.entries[0][1:],) + spec.entries[1:])

    monkeypatch.setattr(dsl, "catalog", mutated)
    assert not dsl.torus_invariant(dsl.catalog("warp_demo"))
    monkeypatch.setattr(dsl, "torus_invariant", lambda spec: True)
    if term == "0.01*z1":
        with pytest.raises(ArithmeticError, match="pair-symmetry defect"):
            acceptance.check_torus_invariance(0)
        return
    out = acceptance.check_torus_invariance(0)
    assert not out["ok"] and out["worst_rel_excess"] > 1e-3
    assert "warp_demo" in out["accepted"]
