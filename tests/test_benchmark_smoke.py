"""Every benchmark workload runs in process at its smoke size.

perfbench/workloads.py drives the library through its public names
(cli.main, lambda_search, the acceptance checks, metric_jet and
curvature in its verifiers).  Running each workload's setup, one
operation and its verification here makes a library change that breaks
the benchmark fail the package's own tests, and tracing one operation
of each grid workload with perfbench/spans.py pins the per-layer spans
its metrics read.  Nothing under perfbench/ is written: each workload's
files go to a temporary directory, and no bytecode cache is written for
the modules imported from there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.dont_write_bytecode, _write_bytecode = True, sys.dont_write_bytecode

import spans  # noqa: E402
import workloads  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_verifies_at_smoke_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    workload.setup()
    verdict = workload.verify(workload.run())
    assert verdict.errors == []
    assert verdict.hashes


@pytest.mark.parametrize("name", ["scan_G1", "lamsearch_demo"])
def test_traced_operation_shows_the_jet_layer(name, tmp_path):
    """The tracer wraps public functions only, so the derivative tape's
    one entry point, dsl.eval_jet, must carry the jet pass of a scan and
    of a lam search as its own span."""
    workload = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    workload.setup()
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = workload.run()
    finally:
        tracer.uninstall()
    assert workload.verify(res).errors == []
    assert spans.summarize(tracer.take())["dsl.eval_jet"]["calls"] >= 1
