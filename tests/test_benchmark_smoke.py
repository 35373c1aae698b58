"""Every benchmark workload runs in process at its smoke size.

perfbench/workloads.py drives the library through its public names
(cli.main, lambda_search, the acceptance checks, metric_jet and
curvature in its verifiers).  Running each workload's setup, one
operation and its verification here makes a library change that breaks
the benchmark fail the package's own tests.  Nothing under perfbench/
is written: each workload's files go to a temporary directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_verifies_at_smoke_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    workload.setup()
    verdict = workload.verify(workload.run())
    assert verdict.errors == []
    assert verdict.hashes
