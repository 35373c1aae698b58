"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_reports_every_metric(name, trace):
    out = _run_cli(REPO, "--workload", name, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt_scan_dir(ws, res):
    report = json.loads(res["report"])
    report["scan"]["witness_dir"][0][0] += 0.25
    return {**res, "report": json.dumps(report)}


def _corrupt_scan_csv(ws, res):
    lines = Path(ws.csv_path).read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) - 10.0)
    lines[5] = ",".join(cells)
    Path(ws.csv_path).write_text("\n".join(lines) + "\n")
    return res


def _corrupt_lam(ws, res):
    return dataclasses.replace(res, lambda_star=float("inf"))


def _corrupt_oracle(ws, res):
    name, detail = res[-1]
    return res[:-1] + [(name, {**detail, "ok": False})]


@pytest.mark.parametrize("name,corrupt", [
    ("scan_G1", _corrupt_scan_dir),
    ("scan_G1", _corrupt_scan_csv),
    ("lamsearch_demo", _corrupt_lam),
    ("oracle_certify", _corrupt_oracle),
])
def test_corrupted_result_counts_as_failed(name, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(REPO / "src"))
    ws = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    honest_run = ws.run
    monkeypatch.setattr(ws, "run", lambda: corrupt(ws, honest_run()))
    out = run.measure(ws, seconds=0, trace=False)
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == out["result"]["attempted"] == 1
    assert out["detail"]["failed_ratio"] == 1.0
    assert out["detail"]["errors"]


def test_scan_csv_is_not_reused(tmp_path):
    ws = workloads.WORKLOADS["scan_G1"](str(tmp_path), smoke=True)
    ws.setup()
    res = ws.run()
    assert not ws.verify(res).errors
    with pytest.raises(FileNotFoundError):
        ws.verify(res)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run_cli(tmp_path, "--workload", "scan_G1", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_subtracts_direct_children():
    recorded = [["a", -1, 0.0, 10.0, 0], ["b", 0, 1.0, 4.0, 0],
                ["c", 1, 2.0, 3.0, 0], ["b", 0, 5.0, 6.0, 0]]
    agg = spans.summarize(recorded)
    assert agg["a"]["self_s"] == pytest.approx(6.0)
    assert agg["b"]["self_s"] == pytest.approx(3.0)
    assert agg["b"]["calls"] == 2
    assert spans.count_under(recorded, "c", "a") == 1


def test_tracer_restores_every_namespace():
    positivity = importlib.import_module("hsclab.positivity")
    curvature = importlib.import_module("hsclab.curvature")
    original = curvature.hsc_dirs
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert positivity.hsc_dirs is not original
        assert curvature.hsc_dirs is positivity.hsc_dirs
    finally:
        tracer.uninstall()
    assert positivity.hsc_dirs is original and curvature.hsc_dirs is original
