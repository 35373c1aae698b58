"""Benchmark of the hsclab workbench; run from the root of a source checkout.

    python3 perfbench/run.py --workload scan_G1 --seed 0 --seconds 30 --trace 0

Runs one workload in this process, single-threaded at the Python level,
for about ``--seconds`` seconds of timed operations, verifies every
operation, and prints as its last stdout line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
from untraced operations only.  With ``--trace 1`` the first operation
runs untraced, the rest run under the span tracer, and the metrics are
the per-layer ones, per traced operation, with the tracing overhead.
The line before the result holds the environment, per-operation times
and result hashes.  ``--smoke`` runs reduced inputs in seconds.

The three workloads run the program at fixed inputs (its defaults), so
their report hashes repeat exactly across runs; the seed is recorded
but selects nothing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join("perfbench", "out")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# Per-layer counts taken from the verified outputs, not from spans.
RESULT_COUNTS = ("cli.report_bytes", "cli.csv_bytes")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import hsclab; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds to import hsclab in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hsclab", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git_revision": rev, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": NPROC, "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def layer_metrics(spans_by_op: list) -> dict:
    """Per-layer metrics averaged per traced operation."""
    from spans import count_under, summarize

    ops = max(1, len(spans_by_op))
    total: dict = {}
    scans_under_search = kernel_in_scans = 0
    for spans in spans_by_op:
        for name, agg in summarize(spans).items():
            acc = total.setdefault(name, dict.fromkeys(agg, 0))
            for key, val in agg.items():
                acc[key] += val
        scans_under_search += count_under(spans, "positivity.scan_chart", "warp.lambda_search")
        kernel_in_scans += count_under(spans, "curvature.hsc_dirs", "positivity.scan_chart")

    def get(name, key):
        return total.get(name, {}).get(key, 0) / ops

    kernel_calls = get("curvature.hsc_dirs", "calls")
    scans = get("positivity.scan_chart", "calls")
    draws = get("dsl.random_expr", "calls")
    m = {
        "curvature.hsc_dirs.calls": kernel_calls,
        "curvature.hsc_dirs.evals": get("curvature.hsc_dirs", "units"),
        "curvature.hsc_dirs.evals_per_call":
            get("curvature.hsc_dirs", "units") / kernel_calls if kernel_calls else 0.0,
        "curvature.hsc_dirs.self_s": get("curvature.hsc_dirs", "self_s"),
        "positivity.scan_chart.calls": scans,
        "positivity.scan_chart.points": get("positivity.scan_chart", "units"),
        "positivity.scan_chart.self_s": get("positivity.scan_chart", "self_s"),
        "positivity.kernel_calls_per_scan": kernel_in_scans / ops / scans if scans else 0.0,
        "curvature.metric_jet.points": get("curvature.metric_jet", "units"),
        "curvature.metric_jet.self_s": get("curvature.metric_jet", "self_s"),
        "curvature.curvature.calls": get("curvature.curvature", "calls"),
        "curvature.curvature.self_s": get("curvature.curvature", "self_s"),
        "dsl.eval_jet.calls": get("dsl.eval_jet", "calls"),
        "dsl.eval_jet.self_s": get("dsl.eval_jet", "self_s"),
        "dsl.box_contains.calls": get("dsl.box_contains", "calls"),
        "warp.lambda_search.scans": scans_under_search / ops,
        "warp.lambda_search.self_s": get("warp.lambda_search", "self_s"),
        "warp.check_hypotheses.s": get("warp.check_hypotheses", "s"),
        "warp.assemble.calls": get("warp.assemble", "calls"),
        "certify.split_bound_check.calls": get("certify.split_bound_check", "calls"),
        "certify.split_bound_check.self_s": get("certify.split_bound_check", "self_s"),
        "wirtinger.fd_jet.calls": get("wirtinger.fd_jet", "calls"),
        "wirtinger.fd_jet.self_s": get("wirtinger.fd_jet", "self_s"),
        "dsl.eval_value.calls": get("dsl.eval_value", "calls"),
        "dsl.eval_value.self_s": get("dsl.eval_value", "self_s"),
        "curvature.metric_jet_from_fd.points": get("curvature.metric_jet_from_fd", "units"),
        "curvature.metric_jet_from_fd.self_s": get("curvature.metric_jet_from_fd", "self_s"),
        "acceptance.jet_draw_yield":
            get("acceptance.check_jet_vs_divided_differences", "calls") * 1000 / draws
            if draws else 0.0,
        "cli.main.self_s": get("cli.main", "self_s"),
        "positivity.scan_to_csv.s": get("positivity.scan_to_csv", "s"),
    }
    for fn in ("random_block_tensor", "choose_weights", "pencil_positive_threshold",
               "product_inequality_check"):
        m[f"certify.{fn}.self_s"] = get(f"certify.{fn}", "self_s")
    from workloads import ORACLE_CHECKS

    for check, fn in ORACLE_CHECKS:
        m[f"acceptance.{check}.s"] = get(f"acceptance.{fn}", "s")
    return m


def measure(workload, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    """Set up, run timed operations for ``seconds``, verify each one."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = perf_counter()
        workload.setup()
        setup_times.append(imp + perf_counter() - t0)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    ops, spans_by_op = [], []  # (seconds, traced) per operation, in run order
    failed, errors, hashes, counts = 0, [], None, {}
    pmm = []  # point_min_mean of each verified operation
    start = perf_counter()
    while True:
        gc.collect()  # every operation starts from a collected heap
        tracing = tracer is not None and bool(ops)
        if tracing:
            tracer.install()
        try:
            t0 = perf_counter()
            try:
                res = workload.run()
            finally:
                elapsed = perf_counter() - t0
                if tracing:
                    tracer.uninstall()
            verdict = workload.verify(res)
            op_errors = list(verdict.errors)
            if hashes is None:
                hashes = verdict.hashes
            elif verdict.hashes != hashes:
                op_errors.append("result hashes differ from the first operation")
            pmm.append(verdict.point_min_mean)
            counts = verdict.counts
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            op_errors = ["operation raised: " + traceback.format_exc(limit=1).strip()]
        ops.append((elapsed, tracing))
        if tracing:
            spans_by_op.append(tracer.take())
        if op_errors:
            failed += 1
            errors.extend(op_errors)
        if errors and not pmm:
            break  # every operation so far raised; do not spin until time runs out
        if perf_counter() - start >= seconds and (tracer is None or spans_by_op):
            break

    untraced = [sec for sec, tr in ops if not tr]
    traced = [sec for sec, tr in ops if tr]
    attempted = len(ops)
    detail = {"workload": workload.name, "ops": attempted,
              "op_s": [sec for sec, _ in ops], "op_traced": [tr for _, tr in ops],
              "setup_s": setup_times,
              "failed": failed, "failed_ratio": failed / attempted,
              "errors": errors[:10], "hashes": hashes}
    wall = statistics.median(untraced)
    if tracer is None:
        finite = [q for q in pmm if math.isfinite(q)]
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            # NaN is not JSON; a run with no verified value is already incorrect.
            "point_min_mean": (statistics.median(finite) if finite else 0.0, "K"),
        }
    else:
        if spans_path and spans_by_op:
            from spans import write_spans

            write_spans(spans_by_op[0], spans_path)
            detail["spans_file"] = spans_path
        metrics = {k: (v, "s" if k.endswith(("_s", ".s")) else "count")
                   for k, v in layer_metrics(spans_by_op).items()}
        for key in RESULT_COUNTS:
            metrics[key] = (counts.get(key, 0), "bytes")
        traced_wall = statistics.median(traced) if traced else wall
        metrics["failed_ratio"] = (failed / attempted, "ratio")
        metrics["trace.untraced_wall_s"] = (wall, "s")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan_G1", "lamsearch_demo", "oracle_certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs: every metric and check in seconds")
    args = parser.parse_args(argv)

    # Cap native thread pools at nproc before numpy is first imported.
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(NPROC))

    if not os.path.isfile(os.path.join(SRC, "hsclab", "__init__.py")):
        print(f"error: no hsclab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hsclab

    if os.path.dirname(os.path.abspath(hsclab.__file__)) != os.path.join(SRC, "hsclab"):
        print(f"error: imported hsclab from {hsclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](OUT_DIR, smoke=args.smoke)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    out = measure(workload, args.seconds, bool(args.trace), spans_path)
    out["detail"].update(seed=args.seed, smoke=args.smoke, env=environment())
    print(json.dumps({"perfbench": out["detail"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
