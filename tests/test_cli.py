"""Console entry points: report shape, exit codes, and determinism."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsclab
from conftest import record_jet_passes
from hsclab import acceptance, cli, dsl, warp


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(cwd, *argv):
    """Run the command line in a fresh interpreter, where numpy warnings
    would reach stderr; returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "hsclab.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def run_cli(capsys, *argv):
    """Invoke main() in process; returns (exit_code, parsed stdout report)."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_curvature_reference_example(capsys):
    code, rep = run_cli(capsys, "curvature", "--catalog", "poincare",
                        "--point", "0,0", "--dir", "1,0")
    assert code == 0
    assert rep["hsc"] == pytest.approx(-4.0, abs=1e-12)
    assert rep["schema"] == 1
    assert rep["seed"] == 0
    assert rep["config"]["catalog"] == "poincare"


def test_curvature_accepts_complex_literals(capsys):
    code, rep = run_cli(capsys, "curvature", "--catalog", "fs_affine",
                        "--point", "0.3+0.1i", "--dir", "1i")
    assert code == 0
    assert rep["hsc"] == pytest.approx(4.0, abs=1e-9)


def test_curvature_without_direction(capsys):
    code, rep = run_cli(capsys, "curvature", "--catalog", "flat(2)",
                        "--point", "0,0,0,0")
    assert code == 0
    assert "hsc" not in rep
    assert rep["tensor_max_abs"] == 0.0


def test_lemma1_reference_example(capsys):
    code, rep = run_cli(capsys, "lemma1", "--k0", "8", "--k1", "1",
                        "--n", "2", "--s", "1", "--trials", "1000")
    assert code == 0
    assert rep["weights"]["required_ratio"] == 312.0
    assert rep["identities"]["terms_equalized"]
    assert rep["product_inequalities"]["violations"] == 0
    assert rep["bound_check"]["violations"] == 0
    assert rep["ok"]


def test_lemma1_below_requirement_skips_bound(capsys):
    code, rep = run_cli(capsys, "lemma1", "--k0", "8", "--k1", "1",
                        "--n", "2", "--s", "1", "--k2", "10",
                        "--trials", "500")
    assert code == 0
    assert "skipped" in rep["bound_check"]


def test_lemma2_defaults(capsys):
    code, rep = run_cli(capsys, "lemma2")
    assert code == 0
    assert rep["threshold"]["threshold"] == 1.0
    assert rep["formula_worst_rel_error"] <= 1e-9
    assert rep["decay"]["limit_curvature"] == pytest.approx(4.0)


def test_lemma2_reads_pencil_jets_once_per_route(capsys, monkeypatch):
    passes = record_jet_passes(monkeypatch)
    code, _ = run_cli(capsys, "lemma2", "--g", "poincare", "--h", "fs_affine",
                      "--point", "0.1")
    assert code == 0
    # closed form 2, summed metric at the 4 default lams 4, threshold 2,
    # decay 2, each one jet pass over the one point
    assert len(passes) == 10 and all(points == 1 for _, points in passes)


def test_lemma2_fails_on_a_later_nan_direct_curvature(capsys, monkeypatch):
    """A NaN direct curvature at the second default lam makes the worst
    formula error NaN, which fails the check."""
    inner, calls = cli.gaussian_curvature_1d, []

    def nan_second(*args):
        calls.append(True)
        return float("nan") if len(calls) == 2 else inner(*args)

    monkeypatch.setattr(cli, "gaussian_curvature_1d", nan_second)
    code, rep = run_cli(capsys, "lemma2")
    assert len(calls) == 4
    assert code == 1 and rep["ok"] is False
    assert np.isnan(rep["formula_worst_rel_error"])


def test_lemma2_reports_a_nonpositive_second_metric(capsys):
    code, rep = run_cli(capsys, "lemma2", "--h", "poincare")
    assert code == 1 and rep["ok"] is False
    assert rep["error"] == "second metric has nonpositive curvature -4 at the point"


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    """cmd_selftest on a stand-in suite report: a line per check on
    stderr, the report on stdout and exit 1 when a check fails."""
    checks = [{"name": "a", "ok": True}, {"name": "b", "ok": False}]
    monkeypatch.setattr(acceptance, "run_all",
                        lambda seed: {"checks": checks, "ok": False})
    code = cli.main(["selftest"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["PASS a", "FAIL b"]
    rep = json.loads(captured.out)
    assert rep["ok"] is False and rep["suite"]["checks"] == checks


def test_example1_reference_invocation(capsys):
    code, rep = run_cli(capsys, "example1", "--lambdas", "0.5,1,5,50",
                        "--seed", "0")
    assert code == 0
    wit = rep["report"]["witnesses"]
    assert len(wit) == 4
    assert all(w["witness"]["value"] < -1e-8 for w in wit)
    assert rep["report"]["base"]["positive"]
    assert rep["ok"]


def test_witness_exits_zero_when_absent(capsys):
    code, rep = run_cli(capsys, "witness", "--catalog", "fs_affine",
                        "--budget", "500")
    assert code == 0
    assert rep["found"] is False and rep["witness"] is None


def test_witness_reports_negative_direction(capsys):
    code, rep = run_cli(capsys, "witness", "--catalog", "poincare",
                        "--budget", "500")
    assert code == 0
    assert rep["found"] and rep["witness"]["value"] < -1e-8


def test_scan_writes_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, rep = run_cli(capsys, "scan", "--catalog", "paper_base",
                        "--grid", "3", "--dirs", "8", "--starts", "1",
                        "--iters", "20", "--csv", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,re1,im1,min_hsc"
    assert len(lines) == 1 + rep["scan"]["points_scanned"]
    assert rep["scan"]["minimizer"] == "closed_form"


def test_warp_demo_checks(capsys):
    code, rep = run_cli(capsys, "warp", "--lam", "4")
    assert code == 0
    assert "mu0_search" not in rep and "determinant" not in rep
    assert rep["ok"] and rep["growth"]["ok"]
    assert rep["validation"]["min_eigenvalue"] > 0


def test_warp_rejects_indefinite_fibration(tmp_path, capsys):
    path = tmp_path / "bad.json"
    f = dsl.FibrationSpec(
        "bad", 1, 1, ((dsl.parse("1", 2),),), ((dsl.parse("-1", 1),),),
        0.0, (dsl.Rect(-0.5, 0.5, -0.5, 0.5),) * 2)
    dsl.save_fibration(f, path)
    code, rep = run_cli(capsys, "warp", "--file", str(path))
    assert code == 1
    assert "error" in rep and rep["ok"] is False


def test_reports_are_byte_identical(capsys):
    args = ("curvature", "--catalog", "paper_G(1)", "--point",
            "0.1,0.2,0.3,-0.1", "--dir", "1,0,0,1")
    cli.main(list(args))
    first = capsys.readouterr().out
    cli.main(list(args))
    second = capsys.readouterr().out
    assert first == second and first


def test_public_names_resolve():
    assert all(hasattr(hsclab, name) for name in hsclab.__all__)
    for gone in ("mu0_search", "inverse_asymptotics",
                 "determinant_split_check", "threshold_search"):
        assert gone not in hsclab.__all__ and not hasattr(hsclab, gone)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--version"])
    assert err.value.code == 0


def _write_bad_files(directory) -> None:
    """Malformed fibration and metric files named by the usage-error cases."""
    good = dsl.fibration_to_dict(warp.warp_demo_fibration())
    (directory / "not-json.json").write_text("{")
    (directory / "no-s.json").write_text(
        json.dumps({k: v for k, v in good.items() if k != "s"}))
    (directory / "short-box.json").write_text(
        json.dumps(dict(good, box=good["box"][:1])))
    (directory / "inverted-box.json").write_text(
        json.dumps(dict(good, box=[[0.5, -0.5, -0.5, 0.5]] * 2)))
    (directory / "infinite-mu0.json").write_text(
        json.dumps(dict(good, mu0=float("inf"))))
    metric = dsl.spec_to_dict(dsl.catalog("poincare"))
    for name, rect in (("inverted", {"re": [0.5, -0.5], "im": [-0.5, 0.5]}),
                       ("nan", {"re": [float("nan"), 0.5], "im": [-0.5, 0.5]})):
        (directory / f"metric-{name}-box.json").write_text(
            json.dumps(dict(metric, box=[rect])))
    # a 1x1 fiber block over both coordinates of paper_G: not a metric on them
    family = dict(dsl.spec_to_dict(dsl.catalog("paper_G(1)")),
                  entries=[[dsl.to_source(dsl.PAPER_G_FIBRATION.fiber_entries[0][0])]])
    (directory / "family.json").write_text(json.dumps(family))
    # a metric with no coordinates
    (directory / "no-coordinates.json").write_text(
        json.dumps({"name": "z", "n": 0, "entries": [], "box": []}))


BAD_SPEC_FILES = [
    ("scan", "--file", "{tmp}/metric-inverted-box.json"),
    ("scan", "--file", "{tmp}/metric-nan-box.json"),
    ("warp", "--file", "{tmp}/inverted-box.json"),
    ("curvature", "--file", "{tmp}/family.json", "--point", "0,0,0,0"),
    ("warp", "--file", "{tmp}/infinite-mu0.json"),
    ("curvature", "--file", "{tmp}/no-coordinates.json", "--point", ","),
    ("scan", "--file", "{tmp}/no-coordinates.json"),
]


DEMO_FIBRATION_FILE = """{
  "base_entries": [
    [
      "1/(1+z1*conj(z1))"
    ]
  ],
  "box": [
    [
      -0.67175144212722,
      0.67175144212722,
      -0.67175144212722,
      0.67175144212722
    ],
    [
      -0.67175144212722,
      0.67175144212722,
      -0.67175144212722,
      0.67175144212722
    ]
  ],
  "fiber_entries": [
    [
      "exp(z2*conj(z2))/(1+z1*conj(z1))^2"
    ]
  ],
  "m": 1,
  "mu0": 0.0,
  "name": "warp_demo",
  "s": 1
}
"""


def test_fibration_file_form_is_pinned(tmp_path, capsys):
    """warp --write-demo writes save_fibration(warp_demo_fibration())."""
    assert cli.main(["warp", "--write-demo", str(tmp_path / "cli.json")]) == 0
    dsl.save_fibration(warp.warp_demo_fibration(), tmp_path / "lib.json")
    for name in ("cli.json", "lib.json"):
        assert (tmp_path / name).read_text(encoding="utf-8") == DEMO_FIBRATION_FILE


def test_warp_usage_error_writes_no_demo_file(tmp_path, capsys):
    _write_bad_files(tmp_path)
    out = tmp_path / "demo.json"
    for extra in (("--lam", "-1"), ("--file", str(tmp_path / "no-s.json"))):
        with pytest.raises(SystemExit) as err:
            cli.main(["warp", "--write-demo", str(out), *extra])
        assert err.value.code == 2
        assert not out.exists()
    assert not capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv", [
    ("curvature", "--catalog", "poincare", "--point", "0,0,0"),
    ("curvature", "--catalog", "nosuch", "--point", "0,0"),
    ("curvature", "--catalog", "poincare", "--point", "2,0"),
    ("curvature", "--point", "0,0"),
    ("scan", "--catalog", "poincare", "--box", "1:2"),
    ("nosuchcommand",),
    ("scan", "--catalog", "poincare", "--box", "a:1:0:1"),
    ("scan", "--catalog", "poincare", "--box", "nan:1:0:1"),
    ("scan", "--catalog", "poincare", "--box", "1:0:0:1"),
    ("curvature", "--catalog", "poincare", "--point", "0,0", "--dir", "0,0"),
    ("witness", "--catalog", "warp_demo", "--budget", "100"),
    ("example1", "--budget", "600"),
    ("scan", "--catalog", "fs(x)"),
    ("scan", "--catalog", "paper_G(x)"),
    ("scan", "--catalog", "poincare", "--grid", "1"),
    ("warp", "--lam", "-1"),
    ("lemma1", "--k0", "8", "--k1", "1", "--n", "2", "--s", "1", "--trials", "0"),
    ("lemma2", "--g", "nosuch"),
    ("example1", "--lambdas", "abc"),
    ("lemma2", "--lambdas", "abc"),
    ("example1", "--lambdas", "-1"),
    ("example1", "--lambdas", ","),
    ("lemma2", "--g", "paper_G(1)"),
    ("warp", "--file", "{tmp}/not-json.json"),
    ("warp", "--file", "{tmp}/no-s.json"),
    ("warp", "--file", "{tmp}/short-box.json"),
    ("warp", "--file", "{tmp}/missing.json"),
    ("warp", "--write-demo", "{tmp}/demo.json", "--lam", "-1"),
    ("lemma1", "--k0", "inf", "--k1", "1", "--n", "2", "--s", "1"),
    ("warp", "--lam", "inf"),
    ("curvature", "--catalog", "poincare", "--point", "0,0", "--dir", "nan,0"),
    ("witness", "--catalog", "poincare", "--threshold", "nan"),
    ("lemma2", "--lambdas", "1,nan"),
    ("warp", "--seed", "-1"),
    ("lemma1", "--k0", "8", "--k1", "1", "--n", "2", "--s", "1", "--seed", "-1"),
    ("selftest", "--seed", "-1"),
    ("scan", "--catalog", "ball(3)", "--seed", "-1"),
    ("example1", "--seed", "-1"),
    ("example1", "--fibers", "0"),
    ("scan", "--catalog", "poincare", "--dirs", "-2"),
    ("scan", "--catalog", "poincare", "--starts", "-1"),
    ("scan", "--catalog", "poincare", "--iters", "-9"),
    ("scan", "--catalog", "ball(3)", "--grid", "2", "--dirs", "0", "--starts", "0"),
    ("lemma2", "--point", "5,0"),
    *BAD_SPEC_FILES,
    ("warp", "--csv", "{tmp}/thresholds.csv"),  # --csv needs --search
    ("scan", "--catalog", "poincare", "--file", "{tmp}/missing.json"),
])
def test_usage_errors_exit_two(capsys, tmp_path, argv):
    _write_bad_files(tmp_path)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert not capsys.readouterr().out.strip()  # diagnostics go to stderr


@pytest.mark.parametrize("argv", BAD_SPEC_FILES)
def test_bad_spec_files_fail_at_load(capsys, tmp_path, argv):
    _write_bad_files(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot load ")


@pytest.mark.parametrize("argv, message", [
    (("lemma1", "--k0", "8", "--k1", "1", "--n", "2", "--s", "1", "--trials", "0"),
     "error: trials must be at least 1, got 0"),
    (("example1", "--fibers", "0"), "error: fiber_samples must be at least 1, got 0"),
])
def test_counts_below_one_meet_the_library_rule(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out.strip()
    assert captured.err.strip().splitlines() == [message]


@pytest.mark.parametrize("argv, message", [
    (("example1", "--lambdas", "-1"), "error: paper_G(lam) needs a finite lam > 0"),
    (("scan", "--catalog", "nope"),
     "error: cannot load metric 'nope': unknown catalog name 'nope'"),
    (("scan", "--file", "{tmp}/missing.json"),
     "error: cannot load metric '{tmp}/missing.json': "
     "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
])
def test_usage_errors_print_their_message(capsys, tmp_path, argv, message):
    """A KeyError's message is printed without the quotes of its repr,
    and a load failure's cause by its message alone, in main's rule."""
    with pytest.raises(SystemExit) as err:
        cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert err.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        message.replace("{tmp}", str(tmp_path))


@pytest.mark.parametrize("command, what, data, key", [
    ("scan", "metric", dsl.spec_to_dict(dsl.catalog("poincare")), "n"),
    ("warp", "fibration", dsl.fibration_to_dict(dsl.WARP_DEMO_FIBRATION), "mu0"),
])
def test_a_missing_file_key_is_named(capsys, tmp_path, command, what, data, key):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({k: v for k, v in data.items() if k != key}),
                    encoding="utf-8")
    with pytest.raises(SystemExit):
        cli.main([command, "--file", str(path)])
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: cannot load {what} '{path}': missing key '{key}'"]


@pytest.mark.parametrize("command, what, data, change, message", [
    ("scan", "metric", dsl.spec_to_dict(dsl.catalog("poincare")), {"entries": "1"},
     "'entries' must be a list of lists of strings"),
    ("scan", "metric", dsl.spec_to_dict(dsl.catalog("poincare")), {"n": 1.7},
     "'n' must be an integer"),
    ("scan", "metric", dsl.spec_to_dict(dsl.catalog("poincare")), {"n": True},
     "'n' must be an integer"),
    ("scan", "metric", dsl.spec_to_dict(dsl.catalog("poincare")), None,
     "the top level must be a JSON object"),
    ("scan", "metric", dsl.spec_to_dict(dsl.catalog("poincare")),
     {"box": [{"re": "ab", "im": [-0.5, 0.5]}]},
     "'box' must be a list of {\"re\": [min, max], \"im\": [min, max]} objects of numbers"),
    ("warp", "fibration", dsl.fibration_to_dict(dsl.WARP_DEMO_FIBRATION), {"s": "1"},
     "'s' must be an integer"),
    ("warp", "fibration", dsl.fibration_to_dict(dsl.WARP_DEMO_FIBRATION), {"s": 1.5},
     "'s' must be an integer"),
    ("warp", "fibration", dsl.fibration_to_dict(dsl.WARP_DEMO_FIBRATION), {"mu0": "0"},
     "'mu0' must be a number"),
    ("warp", "fibration", dsl.fibration_to_dict(dsl.WARP_DEMO_FIBRATION),
     {"fiber_entries": "exp(z2)"}, "'fiber_entries' must be a list of lists of strings"),
    ("warp", "fibration", dsl.fibration_to_dict(dsl.WARP_DEMO_FIBRATION),
     {"box": [[-0.5, 0.5, -0.5, "0.5"]] * 2},
     "'box' must be a list of [re_min, re_max, im_min, im_max] lists of numbers"),
])
def test_a_file_value_of_the_wrong_json_type_is_named(capsys, tmp_path, command,
                                                      what, data, change, message):
    """Each value is checked for its JSON type before it is read, so a
    string, a float or a bool where an integer, a number or a list
    belongs is a usage error naming its key; a top level that is a list
    (change None) is refused as a whole."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps([data] if change is None else {**data, **change}),
                    encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--file", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: cannot load {what} '{path}': {message}"]


@pytest.mark.parametrize("entry, message", [
    ("(" * 3000 + "1+z1*conj(z1)" + ")" * 3000,
     "more than 128 nested parentheses, calls and prefix minuses (at offset 128)"),
    ("-" * 3000 + "1", "more than 128 nested parentheses, calls and prefix minuses "
     "(at offset 128)"),
    ("+".join(["1"] * 5000), "expression deeper than 64 levels (at offset 127)"),
])
def test_a_deep_entry_is_a_usage_error(capsys, tmp_path, entry, message):
    """Input nested past the parser's depth bound fails as it loads, with
    one error line and exit 2, instead of a RecursionError in an
    evaluator."""
    path = tmp_path / "m.json"
    data = {**dsl.spec_to_dict(dsl.catalog("poincare")), "entries": [[entry]]}
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        cli.main(["scan", "--file", str(path), "--grid", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: cannot load metric '{path}': {message}"]


def test_only_main_raises_system_exit():
    """cli.main alone turns an exception into an exit code: SystemExit is
    named nowhere else in cli.py, so every other function raises the
    library's exceptions."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "SystemExit"]
    assert uses and all(id(node) in in_main for node in uses)


@pytest.mark.parametrize("argv", [
    ("scan", "--file", "{tmp}/neg.json"),
    ("witness", "--file", "{tmp}/neg.json"),
    ("scan", "--catalog", "poincare", "--box=-1:1:-1:1"),  # reaches |z| = 1
])
def test_numerical_failures_exit_one(capsys, tmp_path, argv):
    neg = dsl.MetricSpec("neg", 1, ((dsl.parse("-1", 1),),),
                         (dsl.Rect(-0.5, 0.5, -0.5, 0.5),))
    dsl.save_spec(neg, tmp_path / "neg.json")
    code = cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out.strip()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("n", [2, 3])
def test_nan_metric_entry_exits_one(capsys, tmp_path, n):
    """exp(900|z1|^2) overflows near the box edge, so the z1 entry is
    inf - inf = NaN there: a numerical failure of the condition gate."""
    nan_entry = "1 + exp(900*z1*conj(z1)) - exp(900*z1*conj(z1))"
    entries = tuple(tuple(dsl.parse(nan_entry if i == j == 0 else str(int(i == j)), n)
                          for j in range(n)) for i in range(n))
    box = (dsl.Rect(-0.95, 0.95, -0.5, 0.5),) + (dsl.Rect(-0.5, 0.5, -0.5, 0.5),) * (n - 1)
    dsl.save_spec(dsl.MetricSpec(f"nan{n}", n, entries, box), tmp_path / "m.json")
    code = cli.main(["scan", "--file", str(tmp_path / "m.json"), "--grid", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out.strip()
    assert captured.err.strip().splitlines() == [
        "error: metric condition number nan exceeds 1e+12"]


def test_numpy_warnings_stay_off_stderr(tmp_path):
    """The overflow behind a NaN metric entry is reported by the
    condition gate as one error line, not by numpy warnings before it."""
    entry = dsl.parse("1 + exp(900*z1*conj(z1)) - exp(900*z1*conj(z1))", 1)
    dsl.save_spec(dsl.MetricSpec("nan1", 1, ((entry,),), (dsl.Rect(-1, 1, -1, 1),)),
                  tmp_path / "m.json")
    proc = run_cli_process(tmp_path, "scan", "--file", "m.json", "--grid", "2")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: metric condition number nan exceeds 1e+12"]


def test_warp_refuses_an_overflowing_lam(tmp_path):
    """At lam = 1e308 the base block overflows in validation, whose
    eigenvalue is NaN: a failed check, not a passing report."""
    proc = run_cli_process(tmp_path, "warp", "--lam", "1e308")
    assert proc.returncode == 1
    assert proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert rep["ok"] is False
    assert "min eigenvalue nan" in rep["error"]


def test_warp_search_records_unreached_threshold(tmp_path, capsys):
    """The sampled fiber hypotheses pass, but the fiber curvature is
    negative at the fiber corners over Re z2 >~ 0.61 for every lam, so the
    search reaches its cap."""
    fiber = "exp(0.00124*z1*conj(z1)*exp(5*(z2+conj(z2))))/(1+z1*conj(z1))^2"
    box = (dsl.Rect(-0.67, 0.67, -0.67, 0.67),) * 2
    f = dsl.FibrationSpec("cornered", 1, 1, ((dsl.parse(fiber, 2),),),
                          ((dsl.parse("1/(1+z1*conj(z1))", 1),),), 0.0, box)
    path = tmp_path / "cornered.json"
    dsl.save_fibration(f, path)
    code, rep = run_cli(capsys, "warp", "--search", "--file", str(path))
    assert code == 1 and rep["ok"] is False
    assert "up to lam" in rep["lambda_search"]["threshold_not_reached"]
    named = re.search(r"first at point (\[.*?\]\]),",
                      rep["lambda_search"]["threshold_not_reached"])[1]
    assert json.loads(named)[1][0] == 0.67  # Re z2


def test_warp_search_reports_a_hypothesis_violation(tmp_path, capsys):
    """paper_G's fiber metric is flat over the base origin, so the fiber
    hypothesis fails there with curvature 0 at the fiber point 0."""
    path = tmp_path / "paper_G.json"
    dsl.save_fibration(dsl.PAPER_G_FIBRATION, path)
    code, rep = run_cli(capsys, "warp", "--search", "--file", str(path))
    assert code == 1 and rep["ok"] is False
    violation = rep["lambda_search"]["hypothesis_violation"]
    assert (violation["side"], violation["value"]) == ("fiber", 0.0)
    assert violation["witness"]["fiber_point"] == [[0.0, 0.0]]


def test_warp_search_writes_per_point_thresholds(tmp_path, capsys):
    path = tmp_path / "thresholds.csv"
    code, rep = run_cli(capsys, "warp", "--search", "--csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "index,re1,im1,re2,im2,lambda_star"
    assert len(lines) == 1 + 5 ** 4
    thresholds = [float(line.split(",")[-1]) for line in lines[1:]]
    star = rep["lambda_search"]["lambda_star"]
    assert star == pytest.approx(max(thresholds) * (1 + warp.STAR_MARGIN), rel=1e-15)
    witness = rep["lambda_search"]["witness_point"]
    row = lines[1 + int(np.argmax(thresholds))].split(",")
    assert [float(x) for x in row[1:5]] == [x for pair in witness for x in pair]


def test_point_parser_pairs_and_literals():
    got = cli.parse_complex_vector("1,0,0,1", 2, "point")
    np.testing.assert_array_equal(got, [1.0, 1.0j])
    got = cli.parse_complex_vector("0.5+0.1i,2i", 2, "point")
    np.testing.assert_array_equal(got, [0.5 + 0.1j, 2.0j])
    got = cli.parse_complex_vector("0.25,-0.5", 1, "point")
    np.testing.assert_array_equal(got, [0.25 - 0.5j])
    with pytest.raises(ValueError, match="point needs 2 complex entries"):
        cli.parse_complex_vector("1,2,3", 2, "point")
