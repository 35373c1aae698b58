"""Command-line interface.

Every subcommand prints a single JSON report to stdout with a top-level
"schema": 1 field, the tool version, the seed, and an echo of the
parsed configuration; identical command lines produce byte-identical
reports.  Human-oriented progress goes to stderr.  Exit codes: 0 on
success, 1 when a numerical check fails, 2 on usage errors.

main is the only code that turns an exception into an exit code.  Bad
input -- an option, point, box, metric or fibration file the parsers or
the library refuse -- raises ValueError, KeyError or OSError, and main
prints one "error:" line and exits 2.  A --trials or --fibers below 1
is refused by the library's count rule (dsl._require_positive), as in
"trials must be at least 1, got 0".  dsl.MetricError and
ArithmeticError are numerical failures: one "error:" line and exit 1.
lemma2 and warp write theirs into the report instead.

Points and directions are comma-separated values: either 2n bare reals
read as (re, im) pairs ("0.5,0.1" is 0.5+0.1i for a one-coordinate
metric) or n complex literals in a+bi form ("0.5+0.1i,2i").

CSV output (scan --csv) has columns: index, re1, im1, ..., re_n, im_n,
min_hsc -- one row per grid point with the scanned minimum there;
warp --search --csv writes the same columns with lambda_star, each grid
point's own lam threshold, in place of min_hsc.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, acceptance, certify, dsl, warp
from .curvature import (PointOutsideBoxError, curvature_at, gaussian_curvature_1d,
                        hsc_dirs, pair_symmetry_defect)
from .dsl import _c2pair, _vec_dict
from .positivity import (DEFAULT_DIRS, DEFAULT_GRID, DEFAULT_ITERS, DEFAULT_STARTS,
                         NEG_THRESHOLD, find_negative_witness, points_to_csv,
                         scan_chart, scan_to_csv)
from .wirtinger import SingularPointError


def parse_complex_vector(text: str, n: int, what: str) -> np.ndarray:
    """n complex entries from 2n bare reals (re, im pairs) or n literals."""
    toks = [t.strip() for t in text.split(",") if t.strip()]
    has_literal = any(("i" in t) or ("j" in t) for t in toks)
    pairs = not has_literal and len(toks) == 2 * n
    if not pairs and len(toks) != n:
        raise ValueError(f"{what} needs {n} complex entries ({2 * n} reals or {n} "
                         f"literals), got {len(toks)} values")
    try:
        if pairs:
            vals = [float(t) for t in toks]
            vec = np.array([complex(vals[2 * k], vals[2 * k + 1])
                            for k in range(n)])
        else:
            vec = np.array([complex(t.replace("i", "j")) for t in toks])
    except ValueError as exc:
        raise ValueError(f"could not parse {what} {text!r}: {exc}") from exc
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} {text!r} has a non-finite entry")
    return vec


def parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse {what} {text!r}: {exc}") from exc
    if not values:
        raise ValueError(f"{what} needs at least one value")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} {text!r} has a non-finite value")
    return values


def finite_float(text: str) -> float:
    """argparse type of every float option: infinities and NaN are usage
    errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type of seeds and of the descent budgets --dirs, --starts
    and --iters."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"needs an integer >= 0, got {text!r}")
    return value


def _message(exc: Exception) -> str:
    """exc's text on an "error:" line: a KeyError's message, not its repr."""
    return exc.args[0] if isinstance(exc, KeyError) else str(exc)


def _loaded(load, text: str, what: str):
    """load(text); a missing or malformed input is a ValueError that
    names it."""
    try:
        return load(text)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot load {what} {text!r}: {_message(exc)}") from exc


def _metric_arg(text: str, is_file: bool) -> dsl.MetricSpec:
    """A catalog name or a metric JSON file."""
    return _loaded(dsl.load_spec if is_file else dsl.catalog, text, "metric")


def _load_metric(args) -> dsl.MetricSpec:
    """The metric of --file or --catalog, whichever was given (argparse
    takes exactly one)."""
    is_file = args.file is not None
    return _metric_arg(args.file if is_file else args.catalog, is_file)


def _parse_box(text: str, n: int):
    groups = [g for g in text.split(",") if g.strip()]
    if len(groups) != n:
        raise ValueError(f"--box needs {n} groups of re_min:re_max:im_min:im_max")
    rects = []
    for g in groups:
        parts = g.split(":")
        if len(parts) != 4:
            raise ValueError("each --box group is re_min:re_max:im_min:im_max")
        try:
            rects.append(dsl.Rect(*map(float, parts)))
        except ValueError as exc:
            raise ValueError(f"--box group {g!r}: {exc}") from exc
    return tuple(rects)


def _config_echo(args) -> dict:
    skip = {"func"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        out[k] = v
    return out


def _emit(args, command: str, payload: dict) -> None:
    report = {"schema": 1, "version": __version__, "command": command,
              "seed": getattr(args, "seed", 0), "config": _config_echo(args)}
    report.update(payload)
    print(json.dumps(report, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_curvature(args) -> int:
    spec = _load_metric(args)
    point = parse_complex_vector(args.point, spec.n, "--point")
    g, R = curvature_at(spec, point.reshape(1, spec.n))
    payload = {
        "metric": spec.name,
        "point": _vec_dict(point),
        "metric_value": [_vec_dict(row) for row in g[0]],
        "tensor_max_abs": float(np.abs(R[0]).max()),
        "pair_symmetry_defect": pair_symmetry_defect(R),
    }
    if args.dir:
        d = parse_complex_vector(args.dir, spec.n, "--dir")
        try:
            val = hsc_dirs(g, R, d.reshape(1, 1, spec.n))[0, 0]
        except SingularPointError as exc:
            raise ValueError(f"--dir {args.dir!r}: {exc}") from exc
        payload["direction"] = _vec_dict(d)
        payload["hsc"] = float(val)
    _emit(args, "curvature", payload)
    return 0


def cmd_scan(args) -> int:
    spec = _load_metric(args)
    box = _parse_box(args.box, spec.n) if args.box else None
    rep = scan_chart(spec, box=box, grid_per_axis=args.grid, dirs=args.dirs,
                     seed=args.seed, starts=args.starts, iters=args.iters)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(scan_to_csv(rep))
    _emit(args, "scan", {"scan": rep.as_dict()})
    return 0


def cmd_witness(args) -> int:
    spec = _load_metric(args)
    w = find_negative_witness(spec, budget=args.budget, seed=args.seed,
                              threshold=args.threshold)
    _emit(args, "witness", {"metric": spec.name, "found": w is not None,
                            "witness": None if w is None else w.as_dict()})
    return 0


def cmd_lemma1(args) -> int:
    w = certify.choose_weights(args.k0, args.k1, args.n, args.s)
    identities = certify.weight_identities(args.k0, args.k1, args.n, args.s)
    prod = certify.product_inequality_check(w.a, w.b, w.c, w.d,
                                            trials=args.trials, seed=args.seed)
    k2 = args.k2 if args.k2 is not None else w.base_required
    tensor = certify.random_block_tensor(args.k0, args.k1, k2, args.n, args.s,
                                         seed=args.seed)
    hyp = certify.check_block_hypotheses(tensor, trials=args.trials,
                                         seed=args.seed)
    payload = {
        "weights": w.as_dict(),
        "identities": identities,
        "product_inequalities": prod,
        "tensor_hypotheses": hyp,
    }
    ok = (identities["terms_equalized"]
          and identities["constraint_sum_is_half_ratio"]
          and identities["ratio_formula_matches"]
          and prod["violations"] == 0 and hyp["ok"])
    if k2 >= w.base_required:
        bound = certify.split_bound_check(tensor, w, trials=args.trials,
                                          seed=args.seed)
        payload["bound_check"] = bound
        ok = ok and bound["violations"] == 0 and bound["all_strictly_positive"]
    else:
        payload["bound_check"] = {
            "skipped": f"base bound {k2:g} below certified requirement "
                       f"{w.base_required:g}"}
    payload["ok"] = bool(ok)
    _emit(args, "lemma1", payload)
    return 0 if ok else 1


def cmd_lemma2(args) -> int:
    gspec = _metric_arg(args.g, is_file=args.g.endswith(".json"))
    hspec = _metric_arg(args.h, is_file=args.h.endswith(".json"))
    if gspec.n != 1 or hspec.n != 1:
        raise ValueError("--g and --h must be one-coordinate metrics")
    point = complex(parse_complex_vector(args.point, 1, "--point")[0])
    lams = parse_float_list(args.lambdas, "--lambdas")
    payload = {"g": gspec.name, "h": hspec.name, "point": _c2pair(point)}
    try:
        worst = 0.0
        phi = certify.pencil_at(gspec, hspec, point)[1]
        for lam in lams:
            closed = phi(lam)
            direct = gaussian_curvature_1d(
                certify.pencil_spec(gspec, hspec, lam), point)
            worst = max(worst, abs(closed - direct) / max(1.0, abs(direct)))
        thr = certify.pencil_positive_threshold(gspec, hspec, point)
        decay = certify.pencil_decay_check(gspec, hspec, point)
    except PointOutsideBoxError:
        raise  # a usage error: main exits 2
    except (ValueError, ArithmeticError) as exc:
        payload["error"] = str(exc)
        payload["ok"] = False
        _emit(args, "lemma2", payload)
        return 1
    ok = worst <= 1e-9
    payload.update({"formula_worst_rel_error": worst, "threshold": thr,
                    "decay": decay, "ok": bool(ok)})
    _emit(args, "lemma2", payload)
    return 0 if ok else 1


def cmd_warp(args) -> int:
    if args.csv and not args.search:
        raise ValueError("--csv needs --search")
    f = (_loaded(dsl.load_fibration, args.file, "fibration") if args.file
         else warp.warp_demo_fibration())
    assembled = warp.assemble(f, args.lam)
    if args.write_demo:
        dsl.save_fibration(warp.warp_demo_fibration(), args.write_demo)
    try:
        validation = dsl.validate(assembled, seed=args.seed).as_dict()
    except dsl.MetricError as exc:
        _emit(args, "warp", {"fibration": f.name, "error": str(exc), "ok": False})
        return 1
    payload = {
        "fibration": f.name,
        "lam": args.lam,
        "assembled": dsl.spec_to_dict(assembled),
        "validation": validation,
        "growth": warp.base_growth_check(f, seed=args.seed),
    }
    ok = payload["growth"]["ok"]
    if args.search:
        try:
            res = warp.lambda_search(f, seed=args.seed)
            payload["lambda_search"] = res.as_dict()
            if args.csv:
                with open(args.csv, "w", encoding="utf-8") as fh:
                    fh.write(points_to_csv(res.points, res.thresholds,
                                           "lambda_star"))
            ok = ok and res.min_hsc_at_star > 0 \
                and all(v > 0 for _, v in res.persistence)
        except warp.HypothesisViolationError as exc:
            payload["lambda_search"] = {
                "hypothesis_violation": {"side": exc.side, "value": exc.value,
                                         "witness": exc.witness}}
            ok = False
        except warp.ThresholdNotReachedError as exc:
            payload["lambda_search"] = {"threshold_not_reached": str(exc)}
            ok = False
    payload["ok"] = bool(ok)
    _emit(args, "warp", payload)
    return 0 if ok else 1


def cmd_example1(args) -> int:
    lams = tuple(parse_float_list(args.lambdas, "--lambdas"))
    rep = warp.family_negativity_report(lam_values=lams, fiber_samples=args.fibers,
                                        seed=args.seed, budget=args.budget)
    _emit(args, "example1", {"report": rep, "ok": rep["ok"]})
    return 0 if rep["ok"] else 1


def cmd_selftest(args) -> int:
    rep = acceptance.run_all(seed=args.seed)
    for c in rep["checks"]:
        print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}", file=sys.stderr)
    _emit(args, "selftest", {"suite": rep, "ok": rep["ok"]})
    return 0 if rep["ok"] else 1


# ---------------------------------------------------------------------------
# Parser


def _add_metric_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", help="bundled metric name, e.g. poincare, "
                        "fs_affine, paper_base, paper_G(1), warp_demo, flat(2)")
    source.add_argument("--file", help="metric JSON file (see save/load format)")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=nonnegative_int, default=0,
                   help="random seed recorded in the report (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsc-lab",
        description="Curvature workbench for Hermitian metrics in local "
                    "coordinates: jets, curvature tensors, holomorphic "
                    "sectional curvature, positivity scans, and warped "
                    "product experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="curvature tensor and sectional "
                       "value at a point")
    _add_metric_source(p)
    _add_seed(p)
    p.add_argument("--point", required=True, help="chart point")
    p.add_argument("--dir", help="holomorphic direction (optional)")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("scan", help="minimum sectional curvature over a "
                       "grid of chart points")
    _add_metric_source(p)
    _add_seed(p)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID, help="grid points per axis")
    p.add_argument("--dirs", type=nonnegative_int, default=DEFAULT_DIRS, help="probe "
                   "directions per point (descent minimizer, metrics with d >= 3, only)")
    p.add_argument("--starts", type=nonnegative_int, default=DEFAULT_STARTS,
                   help="descent starts per point (d >= 3 only)")
    p.add_argument("--iters", type=nonnegative_int, default=DEFAULT_ITERS,
                   help="descent iterations (d >= 3 only)")
    p.add_argument("--box", help="override box: re_min:re_max:im_min:im_max "
                   "groups, comma-separated per coordinate")
    p.add_argument("--csv", help="also write per-point minima as CSV "
                   "(columns: index, re/im per coordinate, min_hsc)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("witness", help="search for a direction of negative "
                       "sectional curvature (exit 0 whether or not found)")
    _add_metric_source(p)
    _add_seed(p)
    p.add_argument("--budget", type=int, default=50000,
                   help="cap on points scanned across the staged scans; a "
                   "stage runs only if it fits")
    p.add_argument("--threshold", type=finite_float, default=NEG_THRESHOLD,
                   help="negativity threshold (default %(default)g)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("lemma1", help="weight constants, product "
                       "inequalities, and the certified split bound")
    _add_seed(p)
    p.add_argument("--k0", type=finite_float, required=True,
                   help="fiber quartic lower bound")
    p.add_argument("--k1", type=finite_float, required=True,
                   help="mixed entry bound")
    p.add_argument("--n", type=int, required=True, help="total dimension")
    p.add_argument("--s", type=int, required=True, help="fiber dimension")
    p.add_argument("--k2", type=finite_float, help="base quartic bound "
                   "(default: the certified requirement)")
    p.add_argument("--trials", type=int, default=10000,
                   help="random trials per sampled check (default %(default)s)")
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("lemma2", help="pencil curvature formula, positivity "
                       "threshold, and large-lam decay for 1-D metrics")
    _add_seed(p)
    p.add_argument("--g", default="poincare", help="first metric (catalog "
                   "name or .json path)")
    p.add_argument("--h", default="fs_affine", help="second metric")
    p.add_argument("--point", default="0,0", help="chart point")
    p.add_argument("--lambdas", default="0.001,0.1,1,17",
                   help="lams for the formula cross-check")
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("warp", help="assemble a warped product and run its "
                       "checks; --search finds the positivity threshold")
    _add_seed(p)
    p.add_argument("--file", help="fibration JSON (default: bundled demo)")
    p.add_argument("--lam", type=finite_float, default=1.0)
    p.add_argument("--search", action="store_true",
                   help="run the lam positivity search")
    p.add_argument("--csv", help="with --search, also write each grid "
                   "point's lam threshold as CSV (columns: index, re/im per "
                   "coordinate, lambda_star)")
    p.add_argument("--write-demo", dest="write_demo",
                   help="write the bundled demo fibration JSON here")
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("example1", help="counterexample family report: "
                       "positive base, semi-positive fibers, negative "
                       "directions at every lam")
    _add_seed(p)
    p.add_argument("--lambdas", default="0.5,1,5,50")
    p.add_argument("--fibers", type=int, default=20,
                   help="sampled fibers for the semi-positivity check")
    p.add_argument("--budget", type=int, default=20000,
                   help="witness search budget per lam")
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("selftest", help="run the full acceptance suite "
                       "(pass/fail lines on stderr, JSON report on stdout)")
    _add_seed(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow and NaN are judged by the numerical gates, which
        # report them as one error line; numpy's warnings stay silent
        with np.errstate(all="ignore"):
            return args.func(args)
    except (dsl.MetricError, ArithmeticError) as exc:
        # ArithmeticError covers SingularPointError and IllConditionedError.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:  # bad input
        print(f"error: {_message(exc)}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
