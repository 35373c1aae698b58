"""The one rule that turns a report dataclass into JSON (dsl.report_dict)."""

import dataclasses
import json

import pytest

from hsclab import dsl
from hsclab.certify import choose_weights
from hsclab.positivity import find_negative_witness, scan_chart
from hsclab.warp import lambda_search, warp_demo_fibration

# report builder, its complex-vector fields, its (lam, value) sequences
REPORTS = {
    "scan": (lambda: scan_chart(dsl.catalog("ball(3)"), grid_per_axis=2, dirs=4,
                                starts=1, iters=5),
             ("witness_point", "witness_dir"), ()),
    "witness": (lambda: find_negative_witness(dsl.catalog("paper_G(1)")),
                ("point", "direction"), ()),
    "lambda_search": (lambda: lambda_search(warp_demo_fibration(), grid_per_axis=3,
                                            dirs=8, starts=1, iters=30,
                                            skip_hypotheses=True),
                      ("witness_point",), ("history", "persistence")),
    "validation": (lambda: dsl.validate(dsl.catalog("poincare")), (), ()),
    "weights": (lambda: choose_weights(8.0, 1.0, 2, 1), (), ()),
}


@pytest.mark.parametrize("kind", REPORTS)
def test_as_dict_reports_the_compared_fields(kind):
    build, vectors, sequences = REPORTS[kind]
    report = build()
    d = report.as_dict()
    names = [f.name for f in dataclasses.fields(report) if f.compare]
    assert list(d) == names
    for name in vectors:
        value = getattr(report, name)
        assert len(value) > 0
        assert d[name] == [[z.real, z.imag] for z in value]
        assert all(type(pair) is list and len(pair) == 2 for pair in d[name])
    for name in sequences:
        assert d[name] == [list(item) for item in getattr(report, name)]
        assert all(type(item) is list for item in d[name])
    json.dumps(d)

