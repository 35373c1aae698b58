"""The documented examples run as written: the README's library quick
start, the package docstring's quick start, and the README command lines
whose comments state a value."""

import json
import re
import shlex
import textwrap
from functools import reduce
from pathlib import Path

import pytest

import hsclab
from hsclab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# README command -> the report field its trailing comment states
ANNOTATED_FIELDS = {
    "curvature": ("hsc",),
    "lemma1": ("identities", "required_ratio"),
    "lemma2": ("threshold", "threshold"),
}


def _fenced_blocks(text: str, lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_library_quick_start_runs(capsys):
    section = README.split("## Library quick start", 1)[1]
    code = _fenced_blocks(section, "python")[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    # the lambda_search line: lambda_star and a positive minimum there
    lambda_star, min_at_star = map(float, out[2].split())
    assert lambda_star == pytest.approx(2.12243686, rel=1e-8)
    assert min_at_star > 0


def test_package_quick_start_runs():
    """Every line runs; a line commented `# -> value` evaluates to value."""
    block = hsclab.__doc__.split("Quick start::", 1)[1].split("\n\n")[1]
    namespace, checked = {}, 0
    for line in textwrap.dedent(block).splitlines():
        code, _, want = line.partition("# ->")
        if want:
            assert repr(eval(code, namespace)) == want.strip()
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 1


def _annotated_command_lines() -> list:
    lines = []
    for block in _fenced_blocks(README, "sh"):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            words = shlex.split(command)
            if words[:1] == ["hsc-lab"] and comment.strip():
                lines.append((words[1:], comment.strip()))
    return lines


def test_every_annotated_command_line_is_checked():
    assert sorted(argv[0] for argv, _ in _annotated_command_lines()) \
        == sorted(ANNOTATED_FIELDS)


@pytest.mark.parametrize("argv, comment", _annotated_command_lines(),
                         ids=[argv[0] for argv, _ in _annotated_command_lines()])
def test_annotated_command_line_reports_its_value(capsys, argv, comment):
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    value = reduce(lambda d, key: d[key], ANNOTATED_FIELDS[argv[0]], report)
    assert value == float(comment.split()[-1])
