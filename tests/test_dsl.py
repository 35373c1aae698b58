"""Expression parsing, evaluation, metric specs, and the bundled catalog."""

import numpy as np
import pytest

from hsclab import dsl, wirtinger
from hsclab.curvature import curvature_at
from hsclab.dsl import (MetricSpec, ParseError, Rect, catalog, load_spec,
                        parse, save_spec, to_source, validate)


@pytest.mark.parametrize("shape", [(7,), (1025, 3), (4, 5, 2)])
def test_complex_normal_is_one_column_major_draw(shape):
    z = dsl._complex_normal(np.random.default_rng(3), shape)
    rng = np.random.default_rng(3)
    want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert z.dtype == complex and z.flags.f_contiguous
    assert z.tobytes() == want.tobytes()


def test_parse_and_eval_basics():
    e = parse("z1*conj(z1) + 2")
    pts = np.array([[0.5 + 0.5j], [1j]])
    np.testing.assert_allclose(dsl.eval_value(e, pts), [2.5, 3.0])


def test_parse_precedence_and_power():
    e = parse("1/(1+z1*conj(z1))^2")
    v = dsl.eval_value(e, np.array([[0.5 + 0j]]))
    np.testing.assert_allclose(v, [1 / 1.25 ** 2])


def test_parse_exp_and_unary_minus():
    e = parse("-exp(2*z1)")
    v = dsl.eval_value(e, np.array([[0.3 + 0.1j]]))
    np.testing.assert_allclose(v, [-np.exp(0.6 + 0.2j)])


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ParseError):
        parse("q + 1")


def test_parse_rejects_bad_variable_index():
    with pytest.raises(ParseError):
        parse("z0")
    with pytest.raises(ParseError):
        parse("z3", 2)


@pytest.mark.parametrize("src, message, offset", [
    ("z1 $ 2", "unexpected character '$'", 3),
    ("(z1", "expected ')'", 3),
    ("", "empty expression", 0),
    ("z1^1.5", "expected integer exponent", 3),
    ("z1+", "unexpected end of input", 3),
    ("*z1", "unexpected token '*'", 0),
    ("exp z1", "expected '('", 4),
    ("2..5", "unexpected character '.'", 1),
])
def test_parse_errors_name_their_byte_offset(src, message, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


# Entries at the parser's depth bound, each with the same entry one step
# past it and the offset where that one is refused: a left-deep product
# (its "+" passes the bound), a left-deep sum (its last "+"), nested
# calls, prefix minuses and powers (the outermost), and parentheses, which
# add no node but count as openers.
_CHAIN = "1+" + "*".join(["conj(z1)", "z1"] * 31)
_SUM = "z1*conj(z1)" + "+1" * 61
_POWERS = "(" * 61 + "1+z1*conj(z1)" + ")^1" * 61
_AT_THE_DEPTH_BOUND = [
    (_CHAIN, _CHAIN + "*z1", 1),
    (_SUM, _SUM + "+1", len(_SUM)),
    ("conj(" * 60 + "1+z1*conj(z1)" + ")" * 60,
     "conj(" * 61 + "1+z1*conj(z1)" + ")" * 61, 0),
    ("-" * 60 + "(1+z1*conj(z1))", "-" * 61 + "(1+z1*conj(z1))", 0),
    (_POWERS[1:-3], _POWERS, len(_POWERS) - 2),
    # 127 parentheses and the call of conj are 128 openers
    ("(" * 127 + "1+z1*conj(z1)" + ")" * 127,
     "(" * 128 + "1+z1*conj(z1)" + ")" * 128, 128 + len("1+z1*")),
]


@pytest.mark.parametrize("src, deeper, offset", _AT_THE_DEPTH_BOUND)
def test_an_entry_at_the_depth_bound_runs_everywhere(src, deeper, offset):
    """Every recursive reader of a tree takes an entry at MAX_DEPTH (or
    at 2 * MAX_DEPTH openers) under pytest's own stack; one step deeper
    is a ParseError at the offset where the bound is passed."""
    e = parse(src, 1)
    pts = np.array([[0.1 + 0.2j], [-0.3 + 0.1j]])
    assert np.isfinite(dsl.eval_value(e, pts)).all()
    assert all(np.isfinite(s).all() for s in dsl.eval_jet(e, 1, pts))
    assert parse(to_source(e), 1) == e
    assert dsl._charge(e, 1) == (0,)
    spec = MetricSpec("deep", 1, ((e,),), (Rect(-0.5, 0.5, -0.5, 0.5),))
    assert np.isfinite(curvature_at(spec, pts)[1]).all()
    with pytest.raises(ParseError) as err:
        parse(deeper, 1)
    assert err.value.offset == offset
    assert "expression deeper than 64 levels" in str(err.value) or \
        "more than 128 nested parentheses, calls and prefix minuses" in str(err.value)


def test_trailing_whitespace_is_not_input():
    assert parse("z1 ") == dsl.Var(1)


# z1 op z2 at (Z1, Z2) and op(z1) at Z1, worked by hand: value, d/dz and
# d/dzbar per coordinate (every second derivative here is zero).
Z1, Z2 = 1 + 2j, 3 - 1j
BINARY_CASES = {
    "+": (4 + 1j, [1, 1], [0, 0]),
    "-": (-2 + 3j, [1, -1], [0, 0]),
    "*": (5 + 5j, [Z2, Z1], [0, 0]),
    "/": (0.1 + 0.7j, [0.3 + 0.1j, 0.04 - 0.22j], [0, 0]),
}
EXP_Z1 = -1.1312043837568135 + 2.4717266720048188j  # e * (cos 2 + i sin 2)
UNARY_CASES = {
    "-": (-1 - 2j, [-1], [0]),
    "conj": (1 - 2j, [0], [1]),
    "exp": (EXP_Z1, [EXP_Z1], [0]),
}


def _check_row(e, args, value, d, dbar):
    n = len(args)
    pts = np.array([args])
    np.testing.assert_allclose(dsl.eval_value(e, pts), [value], rtol=1e-15)
    jet = dsl.eval_jet(e, n, pts)
    np.testing.assert_allclose(jet.value, [value], rtol=1e-15)
    np.testing.assert_allclose(jet.d, [d], rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(jet.dbar, [dbar], atol=1e-15)
    np.testing.assert_array_equal(jet.ddbar, np.zeros((1, n, n)))
    # the same row on constants: the value route of both evaluators
    lits = dsl.map_vars(e, lambda k: dsl.Lit(args[k - 1]))
    np.testing.assert_allclose(dsl.eval_value(lits, pts), value, rtol=1e-15)
    const = dsl.eval_jet(lits, n, pts)
    np.testing.assert_allclose(const.value, [value], rtol=1e-15)
    np.testing.assert_array_equal(const.d, np.zeros((1, n)))


@pytest.mark.parametrize("op", BINARY_CASES)
def test_binary_operator_row(op):
    assert set(BINARY_CASES) == set(dsl.BINARY_OPS)
    e = dsl.Binary(op, dsl.Var(1), dsl.Var(2))
    assert parse(f"z1{op}z2", 2) == e and to_source(e) == f"z1{op}z2"
    _check_row(e, [Z1, Z2], *BINARY_CASES[op])


@pytest.mark.parametrize("op", UNARY_CASES)
def test_unary_operator_row(op):
    assert set(UNARY_CASES) == set(dsl.UNARY_OPS)
    e = dsl.Unary(op, dsl.Var(1))
    src = "-z1" if op == "-" else f"{op}(z1)"
    assert parse(src, 1) == e and to_source(e) == src
    _check_row(e, [Z1], *UNARY_CASES[op])


def test_binary_levels_and_left_associativity():
    z1, z2, z3 = (dsl.Var(k) for k in (1, 2, 3))
    B = dsl.Binary
    assert parse("z1-z2-z3") == B("-", B("-", z1, z2), z3)
    assert parse("z1/z2*z3") == B("*", B("/", z1, z2), z3)
    assert parse("z1+z2*z3") == B("+", z1, B("*", z2, z3))
    assert parse("z1*z2-z3/z1") == B("-", B("*", z1, z2), B("/", z3, z1))
    # prefix minus takes a factor, so "^" applies before the negation
    assert parse("-z1^2*z2") == B("*", dsl.Unary("-", dsl.Pow(z1, 2)), z2)
    assert to_source(B("-", z1, B("-", z2, z3))) == "z1-(z2-z3)"
    assert to_source(B("*", B("+", z1, z2), z3)) == "(z1+z2)*z3"
    assert to_source(B("/", z1, B("*", z2, z3))) == "z1/(z2*z3)"


def test_prefix_minus_binds_looser_than_power():
    z1, z2 = dsl.Var(1), dsl.Var(2)
    neg, P = dsl.Unary, dsl.Pow
    assert parse("-z1^2") == neg("-", P(z1, 2))
    assert parse("(-z1)^2") == P(neg("-", z1), 2)
    assert parse("2*-z1^2") == dsl.Binary("*", dsl.Lit(2), neg("-", P(z1, 2)))
    assert parse("-z1^-2") == neg("-", P(z1, -2))
    assert parse("--z1^3") == neg("-", neg("-", P(z1, 3)))
    # a second "^" is refused after a prefix minus as without one
    for src in ("z1^2^3", "-z1^2^3"):
        with pytest.raises(ParseError, match="trailing input"):
            parse(src)


@pytest.mark.parametrize("src,value", [
    ("-z1^2", -4), ("(-z1)^2", 4), ("2*-z1^2", -8), ("1-z1^2", -3),
    ("-z1^3", -8), ("-z1^2*z2", -12), ("-(-z1)^2", -4)])
def test_prefix_minus_values(src, value):
    pts = np.array([[2.0 + 0j, 3.0 + 0j]])
    e = parse(src, 2)
    assert dsl.eval_value(e, pts) == value
    assert dsl.eval_jet(e, 2, pts).value == value


def test_prefix_minus_round_trips_node_for_node():
    z1 = dsl.Var(1)
    neg, P = dsl.Unary, dsl.Pow
    cases = {
        neg("-", P(z1, 2)): "-z1^2",
        P(neg("-", z1), 2): "(-z1)^2",
        neg("-", P(neg("-", z1), 2)): "-(-z1)^2",
        neg("-", neg("-", z1)): "-(-z1)",
        dsl.Binary("*", dsl.Lit(2), neg("-", P(z1, 2))): "2*(-z1^2)",
        dsl.Binary("-", dsl.Lit(1), neg("-", P(z1, 2))): "1-(-z1^2)",
    }
    for e, src in cases.items():
        assert to_source(e) == src
        assert parse(src) == e


def test_to_source_round_trips():
    # round trip through source must preserve values, not just shape
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.5, 0.5, (8, 2)) + 1j * rng.uniform(-0.5, 0.5, (8, 2))
    for _ in range(30):
        e = dsl.random_expr(rng, 2)
        e2 = parse(to_source(e), 2)
        try:
            a = np.atleast_1d(dsl.eval_value(e, pts))
            b = np.atleast_1d(dsl.eval_value(e2, pts))
        except (ZeroDivisionError, FloatingPointError):
            continue
        mask = np.isfinite(a)
        np.testing.assert_allclose(a[mask], b[mask], rtol=1e-12, atol=1e-12)


def test_eval_jet_matches_divided_differences():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 40:
        n = int(rng.integers(1, 3))
        e = dsl.random_expr(rng, n)
        p = rng.uniform(-0.6, 0.6, n) + 1j * rng.uniform(-0.6, 0.6, n)
        try:
            jet = dsl.eval_jet(e, n, p.reshape(1, n))
            ref = wirtinger.fd_jet(lambda z: dsl.eval_value(e, z), p)
        except (wirtinger.SingularPointError, ZeroDivisionError,
                FloatingPointError, OverflowError):
            continue
        slots = np.concatenate([np.atleast_1d(jet.value).ravel(),
                                jet.d.ravel(), jet.dbar.ravel(),
                                jet.ddbar.ravel()])
        refs = np.concatenate([np.atleast_1d(ref.value).ravel(),
                               ref.d.ravel(), ref.dbar.ravel(),
                               ref.ddbar.ravel()])
        if not np.all(np.isfinite(refs)) or np.abs(refs).max() > 1e4:
            continue
        scale = max(1.0, float(np.abs(refs).max()))
        np.testing.assert_allclose(slots, refs, atol=2e-5 * scale)
        checked += 1


def test_a_negative_power_checks_its_own_power_only():
    """z1^-2 at 2e-6 is finite: |z1^2| = 4e-12 is above DIV_EPS.  A
    derivative written with a z1^-3 node would check |z1^3| = 8e-18 and
    raise where the value does not."""
    jet = dsl.eval_jet(parse("z1^-2", 1), 1, [[2e-6]])
    for slot in (jet.value, jet.d, jet.dbar, jet.ddbar):
        assert np.isfinite(slot).all()
    assert jet.d[0, 0] == pytest.approx(-2 * (2e-6) ** -3, rel=1e-14)


@pytest.mark.parametrize("src,point", [
    ("1/(z1*conj(z1))", 0j),
    ("z1^-2", 1e-7),  # |z1^2| = 1e-14
    ("1/0", 0.5),  # constant divisors are checked like every other
    ("0^-1", 0.5),
])
def test_divisors_below_div_eps_raise(src, point):
    with pytest.raises(wirtinger.SingularPointError):
        dsl.eval_jet(parse(src, 1), 1, [[point]])


def test_scale_expr_unit_factor_is_identity():
    e = parse("1/(1+z1*conj(z1))")
    assert dsl.scale_expr(1.0, e) is e


def test_scale_expr_folds_into_quotient():
    e = dsl.scale_expr(3.0, parse("1/(1+z1*conj(z1))"))
    assert to_source(e) == "3/(1+z1*conj(z1))"


def test_scale_expr_folds_literals_and_multiplies_the_rest():
    assert dsl.scale_expr(2.0, dsl.Lit(3)) == dsl.Lit(6)
    assert dsl.scale_expr(2.0, parse("z1")) == dsl.Binary("*", dsl.Lit(2), dsl.Var(1))


def test_shift_vars():
    e = dsl.shift_vars(parse("z1*conj(z1)", 1), 1)
    pts = np.array([[0.1 + 0j, 0.5 - 0.5j]])
    np.testing.assert_allclose(dsl.eval_value(e, pts), [0.5])


def test_box_sample_stays_inside():
    box = (Rect(-0.3, 0.4, -0.2, 0.1), Rect(0.0, 1.0, -1.0, 0.0))
    pts = dsl.box_sample(box, np.random.default_rng(0), 200)
    assert pts.shape == (200, 2)
    for k, r in enumerate(box):
        assert pts[:, k].real.min() >= r.re_min and pts[:, k].real.max() <= r.re_max
        assert pts[:, k].imag.min() >= r.im_min and pts[:, k].imag.max() <= r.im_max


def test_box_grid_covers_corners():
    box = (Rect(-1.0, 1.0, -2.0, 2.0),)
    g = dsl.box_grid(box, 3)
    assert g.shape[-1] == 1
    vals = set(map(tuple, np.column_stack([g[:, 0].real, g[:, 0].imag])))
    assert (-1.0, -2.0) in vals and (1.0, 2.0) in vals


def test_catalog_names_resolve():
    for name in ("flat(2)", "poincare", "fs_affine", "paper_base",
                 "paper_G(2)", "warp_demo", "fs(3)", "ball(3)"):
        spec = catalog(name)
        assert isinstance(spec, MetricSpec)


def test_rect_refuses_bad_bounds():
    for bounds, message in (((1, 0, 0, 1), "minimum above its maximum"),
                            ((0, 1, 1, 0), "minimum above its maximum"),
                            ((np.nan, 1, 0, 1), "non-finite bound"),
                            ((0, 1, -np.inf, 1), "non-finite bound")):
        with pytest.raises(ValueError, match=message):
            Rect(*bounds)
    assert Rect(0.5, 0.5, -1, -1).contains(0.5 - 1j)  # a point is a rectangle


def test_metric_spec_is_n_by_n_on_n_rectangles():
    one, zero = parse("1", 2), parse("0", 2)
    box = (Rect(-1, 1, -1, 1),) * 2
    for entries in (((one, zero), (one,)), ((one, zero),) * 3):
        with pytest.raises(ValueError, match="entries must be 2 x 2"):
            MetricSpec("bad", 2, entries, box)
    with pytest.raises(ValueError, match="box must have 2 rectangles, got 1"):
        MetricSpec("bad", 2, ((one, zero), (zero, one)), box[:1])
    with pytest.raises(ValueError, match="need at least one coordinate, got n = 0"):
        MetricSpec("bad", 0, (), ())


def test_catalog_rejects_unknown():
    with pytest.raises(KeyError):
        catalog("nonsense")
    with pytest.raises(KeyError):
        catalog("paper_fiber")
    with pytest.raises(KeyError):
        catalog("paper_G(-1)")
    with pytest.raises(KeyError):
        catalog("ball(0)")
    with pytest.raises(KeyError):
        catalog("fs(x)")
    for bad in ("paper_G(x)", "paper_G(nan)", "paper_G(inf)"):
        with pytest.raises(KeyError):
            catalog(bad)


def test_validate_accepts_bundled_metrics():
    for name in ("poincare", "fs_affine", "paper_base", "paper_G(1)",
                 "warp_demo", "fs(3)", "ball(3)"):
        rep = validate(catalog(name), samples=200)
        assert rep.min_eigenvalue > 0
        assert rep.hermitian_defect <= dsl.HERMITIAN_TOL


def test_validate_rejects_non_hermitian():
    spec = MetricSpec("skew", 1, ((parse("z1", 1),),),
                      (Rect(0.1, 0.5, 0.1, 0.5),))
    with pytest.raises(dsl.HermitianDefectError):
        validate(spec, samples=50)


def test_validate_rejects_indefinite():
    spec = MetricSpec("neg", 1, ((parse("-1", 1),),),
                      (Rect(-0.5, 0.5, -0.5, 0.5),))
    with pytest.raises(dsl.NotPositiveDefiniteError):
        validate(spec, samples=50)


def test_validate_rejects_a_nan_metric():
    """exp(900|z1|^2) overflows on most of the box, so the entry is
    inf - inf = NaN there; both gates fail on NaN."""
    entry = parse("1 + exp(900*z1*conj(z1)) - exp(900*z1*conj(z1))", 1)
    spec = MetricSpec("nan", 1, ((entry,),), (Rect(-1, 1, -1, 1),))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dsl.HermitianDefectError, match="defect nan"):
            validate(spec, samples=50)
    # 1e308 is finite, but the symmetrized matrix overflows and eigvalsh
    # returns NaN
    one, zero, huge = (dsl.Lit(complex(v)) for v in (1, 0, 1e308))
    big = MetricSpec("big", 2, ((one, zero), (zero, huge)), (Rect(-1, 1, -1, 1),) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dsl.NotPositiveDefiniteError, match="min eigenvalue nan"):
            validate(big, samples=50)


def test_validate_refuses_zero_samples():
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        validate(catalog("poincare"), samples=0)


def test_spec_save_load_round_trip(tmp_path):
    spec = catalog("paper_G(1.5)")
    path = tmp_path / "g.json"
    save_spec(spec, path)
    back = load_spec(path)
    assert back.name == spec.name and back.n == spec.n
    assert [[to_source(e) for e in row] for row in back.entries] \
        == [[to_source(e) for e in row] for row in spec.entries]
    assert back.box == spec.box


POINCARE_FILE = """{
  "box": [
    {
      "im": [
        -0.67175144212722,
        0.67175144212722
      ],
      "re": [
        -0.67175144212722,
        0.67175144212722
      ]
    }
  ],
  "entries": [
    [
      "1/(1-z1*conj(z1))^2"
    ]
  ],
  "n": 1,
  "name": "poincare"
}
"""


def test_spec_file_form_is_pinned(tmp_path):
    save_spec(catalog("poincare"), tmp_path / "poincare.json")
    assert (tmp_path / "poincare.json").read_text(encoding="utf-8") == POINCARE_FILE


def test_spec_from_dict_validates_shape():
    with pytest.raises(ValueError):
        dsl.spec_from_dict({"name": "bad", "n": 1,
                            "entries": [["1", "0"], ["0", "1"]],
                            "box": [{"re": [-1, 1], "im": [-1, 1]}]})
