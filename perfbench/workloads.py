"""The three benchmark workloads: inputs, the timed operation, verification.

Each workload runs the program at fixed inputs (its own defaults), so a
report hash repeats exactly from run to run and two commits can be
compared byte for byte.  ``setup`` builds the inputs and makes one small
warm-up call; ``run`` is the timed operation; ``verify`` checks the
result without trusting the code under test where an independent route
exists, and returns the result hashes and the ``point_min_mean`` value.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Relative witness tolerance of the independent recomputation of K.
WITNESS_RTOL = 1e-9
# Slack, relative to max(1, |bound|), for the per-point lower bound.
LOWER_BOUND_RTOL = 1e-9


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _complex_vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


@dataclass
class Verdict:
    errors: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    point_min_mean: float = float("nan")
    # Sizes of the program's outputs, reported as per-layer counts.
    counts: dict = field(default_factory=dict)

    def require(self, condition, message: str) -> None:
        if not condition:
            self.errors.append(message)


def _mod(name: str):
    # hsclab.curvature on the package is the function curvature.
    return importlib.import_module(f"hsclab.{name}")


def sectional_value(g: np.ndarray, R: np.ndarray, xi: np.ndarray) -> float:
    """K(xi) = 2 R(xi, conj xi, xi, conj xi) / |xi|_g^4 at one point.

    Written here, index by index, so the check does not share code with
    the kernel it grades.
    """
    d = xi.size
    xb = np.conjugate(xi)
    num = 0j
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    num += R[i, j, k, l] * xi[i] * xb[j] * xi[k] * xb[l]
    den = sum(g[i, j] * xi[i] * xb[j] for i in range(d) for j in range(d))
    return 2.0 * num.real / den.real ** 2


def sectional_lower_bound(g: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Certified lower bound of min over directions of K at each point.

    g (P, d, d), R (P, d, d, d, d).  With T = L^{-H} for conj(g) = L L^H,
    xi = T eta turns |xi|_g = 1 into |eta| = 1, and the numerator becomes
    v^H M v for v = eta (x) eta, a unit vector in Sym^2(C^d).  So
    K >= 2 * (smallest eigenvalue of the Hermitian part of M on Sym^2).
    """
    d = g.shape[-1]
    L = np.linalg.cholesky(np.conjugate(g))
    T = np.conjugate(np.swapaxes(np.linalg.inv(L), -1, -2))
    Tb = np.conjugate(T)
    Rp = np.einsum("pijkl,pia,pjb,pkc,pld->pabcd", R, T, Tb, T, Tb)
    M = Rp.transpose(0, 2, 4, 1, 3).reshape(-1, d * d, d * d)
    H = 0.5 * (M + np.conjugate(np.swapaxes(M, -1, -2)))
    cols = []
    for a in range(d):
        for c in range(a, d):
            q = np.zeros((d, d))
            q[a, c] = q[c, a] = 1.0
            cols.append(q.reshape(-1) / np.linalg.norm(q))
    Q = np.stack(cols, axis=1)
    Hs = np.einsum("ia,pij,jb->pab", Q, H, Q)
    return 2.0 * np.linalg.eigvalsh(Hs)[:, 0]


def independent_grid(box, per_axis: int) -> np.ndarray:
    """Grid points over (re_1, im_1, re_2, ...) in lexicographic order."""
    axes = []
    for r in box:
        axes += [np.linspace(r.re_min, r.re_max, per_axis),
                 np.linspace(r.im_min, r.im_max, per_axis)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    return np.stack([flat[2 * k] + 1j * flat[2 * k + 1]
                     for k in range(len(box))], axis=-1)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        out = fn(*args)
    return out, buf.getvalue()


class ScanG1:
    """``hsc-lab scan --catalog "paper_G(1)" --csv <file>`` at CLI defaults,
    in-process through ``hsclab.cli.main``: 6561 points x 64 probe
    directions x 8 starts x 200 iterations."""

    name = "scan_G1"
    catalog_name = "paper_G(1)"

    def __init__(self, out_dir: str, smoke: bool = False):
        self.grid = 3 if smoke else 9
        self.csv_path = os.path.join(out_dir, "scan_G1.csv")
        self.argv = ["scan", "--catalog", self.catalog_name, "--csv", self.csv_path]
        if smoke:
            self.argv += ["--grid", str(self.grid)]
        self.warm_argv = ["scan", "--catalog", self.catalog_name, "--grid", "3",
                          "--csv", os.path.join(out_dir, "warmup.csv")]

    def setup(self) -> None:
        self.spec = _mod("dsl").catalog(self.catalog_name)
        code, _ = _quiet(_mod("cli").main, self.warm_argv)
        if code != 0:
            raise RuntimeError(f"warm-up scan exited with {code}")

    def run(self):
        code, report = _quiet(_mod("cli").main, self.argv)
        return {"exit": code, "report": report}

    def verify(self, res) -> Verdict:
        v = Verdict()
        v.require(res["exit"] == 0, f"scan exited with {res['exit']}")
        with open(self.csv_path, encoding="utf-8") as fh:
            csv_text = fh.read()
        # The next operation must write its own CSV, not pass on this one.
        os.remove(self.csv_path)
        v.hashes = {"report": _sha256(res["report"]), "csv": _sha256(csv_text)}
        v.counts = {"cli.report_bytes": len(res["report"].encode()),
                    "cli.csv_bytes": len(csv_text.encode())}
        scan = json.loads(res["report"])["scan"]
        n_points = self.grid ** 4
        v.require(scan["points_scanned"] == n_points and scan["grid_per_axis"] == self.grid,
                  f"report scanned {scan['points_scanned']} points, expected {n_points}")

        lines = csv_text.splitlines()
        v.require(lines[0] == "index,re1,im1,re2,im2,min_hsc", f"CSV header {lines[0]!r}")
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        v.require(rows.shape == (n_points, 6), f"CSV shape {rows.shape}, expected ({n_points}, 6)")
        if v.errors:
            return v
        values = rows[:, 5]
        v.point_min_mean = float(values.mean())
        points = rows[:, 1:5:2] + 1j * rows[:, 2:5:2]
        v.require(np.array_equal(rows[:, 0], np.arange(n_points)), "CSV index column out of order")
        v.require(np.allclose(points, independent_grid(self.spec.box, self.grid),
                              rtol=0, atol=1e-12), "CSV points differ from the chart grid")
        best = int(np.argmin(values))
        v.require(float(values[best]) == scan["min_hsc"],
                  f"min(per_point_min)={values[best]!r} != min_hsc={scan['min_hsc']!r}")
        wpoint = _complex_vec(scan["witness_point"])
        v.require(np.array_equal(points[best], wpoint),
                  "witness point is not the first CSV row attaining the minimum")

        curv = _mod("curvature")
        mj = curv.metric_jet(self.spec, wpoint.reshape(1, -1))
        k_wit = sectional_value(mj.g[0], curv.curvature(mj).R[0],
                                _complex_vec(scan["witness_dir"]))
        v.require(abs(k_wit - scan["min_hsc"]) <= WITNESS_RTOL * abs(scan["min_hsc"]),
                  f"K at the witness is {k_wit!r}, report says {scan['min_hsc']!r}")

        mj = curv.metric_jet(self.spec, points)
        lower = sectional_lower_bound(mj.g, curv.curvature(mj).R)
        slack = LOWER_BOUND_RTOL * np.maximum(1.0, np.abs(lower))
        below = int(np.sum(values < lower - slack))
        v.require(below == 0, f"{below} per-point minima below the certified lower bound")
        return v


class LamSearchDemo:
    """``warp.lambda_search(warp.warp_demo_fibration())`` at defaults,
    hypothesis scans included."""

    name = "lamsearch_demo"

    def __init__(self, out_dir: str, smoke: bool = False):
        # Smoke: a coarse lam budget and tiny scans, same code path.
        self.kwargs = dict(bisections=1, grid_per_axis=3, dirs=4, starts=1,
                           iters=10) if smoke else {}
        self.hyp_kwargs = dict(fiber_samples=1, grid_per_axis=3, dirs=4,
                               starts=1, iters=10) if smoke else {}
        self._hypothesis_mean = None

    def setup(self) -> None:
        warp = _mod("warp")
        self.fibration = warp.warp_demo_fibration()
        _mod("positivity").scan_chart(warp.assemble(self.fibration, 1.0),
                                      grid_per_axis=3, dirs=4, starts=1, iters=10)

    def run(self):
        warp = _mod("warp")
        if self.hyp_kwargs:
            warp.check_hypotheses(self.fibration, **self.hyp_kwargs)
            return warp.lambda_search(self.fibration, skip_hypotheses=True,
                                      **self.kwargs)
        return warp.lambda_search(self.fibration, **self.kwargs)

    def verify(self, res) -> Verdict:
        v = Verdict()
        v.hashes = {"report": _sha256(_canonical(res.as_dict()))}
        star = res.lambda_star
        v.require(np.isfinite(star), f"lambda_star {star!r} is not finite")
        v.require(res.min_hsc_at_star > 0, f"minimum at lambda_star is {res.min_hsc_at_star!r}")
        v.require(all(val > 0 for _, val in res.persistence),
                  f"persistence not positive: {res.persistence!r}")
        first_lam, first_val = res.history[0]
        v.require(first_lam == 1e-3 and first_val < -1e-8,
                  f"first history entry {res.history[0]!r} is not negative at lam=1e-3")
        v.require(all(val <= 0 for lam, val in res.history if lam < star / 2),
                  "a positive minimum below lambda_star/2")
        if self._hypothesis_mean is None:
            # The search returns no per-point minima, so point_min_mean is
            # the mean of the base and fiber minima of its hypothesis scans,
            # recomputed once per run outside the timed operation.  Those
            # metrics are one-dimensional: K does not depend on the
            # direction there, so this guards jets and curvature.
            hyp = _mod("warp").check_hypotheses(self.fibration, **self.hyp_kwargs)
            self._hypothesis_mean = 0.5 * (hyp["base_min_hsc"] + hyp["fiber_min_hsc"])
        v.point_min_mean = self._hypothesis_mean
        return v


ORACLE_CHECKS = (
    ("constant_curvature_models", "check_constant_curvature"),
    ("positive_base_formula", "check_base_formula"),
    ("jets_match_divided_differences", "check_jet_vs_divided_differences"),
    ("one_dimensional_equivalence", "check_one_dim_equivalence"),
    ("split_bound_certification", "check_split_bound_suite"),
    ("pencil_analysis", "check_pencil_suite"),
)
ORACLE_SEED = 0


class OracleCertify:
    """One pass of the six acceptance checks that never call the
    direction minimizer, at the acceptance suite's default seed."""

    name = "oracle_certify"

    def __init__(self, out_dir: str, smoke: bool = False):
        self.checks = ORACLE_CHECKS[:2] if smoke else ORACLE_CHECKS

    def setup(self) -> None:
        acc = _mod("acceptance")
        if not acc.check_constant_curvature(ORACLE_SEED)["ok"]:
            raise RuntimeError("warm-up check failed")

    def run(self):
        acc = _mod("acceptance")
        # Looked up at call time so a traced run sees the wrapped checks.
        return [(name, getattr(acc, fn)(ORACLE_SEED)) for name, fn in self.checks]

    def verify(self, res) -> Verdict:
        v = Verdict()
        v.hashes = {"report": _sha256(_canonical(res))}
        for name, detail in res:
            v.require(detail.get("ok") is True, f"{name} not ok")
        base = dict(res).get("positive_base_formula", {})
        v.point_min_mean = float(base.get("min_value", float("nan")))
        return v


WORKLOADS = {w.name: w for w in (ScanG1, LamSearchDemo, OracleCertify)}
