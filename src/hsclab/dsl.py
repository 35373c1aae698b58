"""Expression DSL for Hermitian metric entries, plus chart boxes and specs.

Grammar (byte offsets reported on errors)::

    expr   := factor (("+" | "-" | "*" | "/") factor)*
    factor := "-" factor | base ("^" integer)?
    base   := number | "i" | "z" digits
            | func "(" expr ")" | "(" expr ")"
    func   := "conj" | "exp"

Binary operators are left-associative; "^" binds tighter than "*" and "/",
which bind tighter than "+" and "-".  A prefix "-" negates the whole
factor after it, power included: -z1^2 is -(z1^2), and (-z1)^2 needs its
parentheses.  `number` is a non-negative integer or
decimal literal, "i" is the imaginary unit, and variables are z1..zn
(1-based, as written in source).  Exponents are integers and may be
negative ("^-2").  A tree deeper than MAX_DEPTH nodes, or more than
2 * MAX_DEPTH nested parentheses, calls and prefix minuses, is a
ParseError at the offset where the bound is passed.

An expression is a tree of five node shapes: Lit, Var, Unary(op, arg),
Binary(op, lhs, rhs) and Pow(base, exponent).  It evaluates to plain
complex values or to second-order Wirtinger jets, over a batch of points;
eval_jet reads an expression or an array of them, such as a metric's
entries, in one pass.
BINARY_OPS holds each binary operator's level and action, UNARY_OPS the
action of "-" and of each func; the parser, the printer, eval_value and
the evaluator of the derivative tape (_Tape) read these tables, so an
operator is one row plus one derivative rule.

Also here: chart boxes, metric specs, fibrations (FibrationSpec.metric
builds every assembled warped metric), the JSON file forms of metrics
and fibrations (one writer and one reader serve both) and the bundled
catalog, whose fibration metrics derive from the bundled
PAPER_G_FIBRATION and WARP_DEMO_FIBRATION.

grid_orbits splits a box grid into torus orbits for charts that
torus_invariant accepts.  The test reads the syntax alone: each entry
g_ij other than the literal 0 must carry the torus charge e_j - e_i
under these rules.  z_k has charge e_k and every literal charge 0 (a
constant c is e^{i 0.theta} c, zero included).  conj negates a charge,
"*" adds and "/" subtracts charges, and "^k" multiplies by k ("^0" gives
the constant 1, charge 0).  "+" and "-" need equal charges, and exp
needs charge 0.  Anything else (z1+conj(z1), 0*z1+z2) is undecided, and
so is an entry whose rules give the wrong charge (z1-z1): the chart is
then refused and scanned point by point.

report_dict is the one rule that turns a report dataclass into JSON (its
compared fields, complex tuples as [re, im] pairs); every report's
as_dict is built on it, and _c2pair/_vec_dict are the program's one
[re, im] encoding of complex values.  _require_positive is the one rule
for the trial and sample counts of every sampled check.
"""

from __future__ import annotations

import json
import math
import operator
import re as _re
import dataclasses
from dataclasses import dataclass
from typing import Union

import numpy as np

from .wirtinger import DIV_EPS, Jet2, SingularPointError

# ---------------------------------------------------------------------------
# AST and operator table


@dataclass(frozen=True)
class Lit:
    value: complex


@dataclass(frozen=True)
class Var:
    k: int  # 1-based, matching the z1..zn source form


@dataclass(frozen=True)
class Unary:
    op: str  # a key of UNARY_OPS
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of BINARY_OPS
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Lit, Var, Unary, Binary, Pow]

# Binding levels: a higher level binds tighter.
_ATOM, _POW, _MUL, _ADD, _NEG = 40, 30, 20, 10, 5

# symbol -> (level, action); every binary operator is left-associative.
BINARY_OPS = {
    "+": (_ADD, operator.add),
    "-": (_ADD, operator.sub),
    "*": (_MUL, operator.mul),
    "/": (_MUL, operator.truediv),
}

# name -> action on values; "-" is the prefix minus, every other name is
# written name(expr).
UNARY_OPS = {
    "-": operator.neg,
    "conj": np.conjugate,
    "exp": np.exp,
}


class ParseError(ValueError):
    """Syntax or semantic error in DSL source; `offset` is a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class VariableIndexError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(src) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# The deepest tree the parser builds, in nodes on one path from the root
# (z1 has depth 1, -z1^2 depth 3, a chain of k binary operators k + 1).
# The evaluators, the printer, the charge rules and the derivative tape
# recurse once or a few times per level, so deeper input is a ParseError
# at its offset, not a RecursionError later: at Python's default
# recursion limit curvature_at fails past a product chain of 106
# factors.  Every bundled entry has depth 9 or less (fs(n) has n + 5).
MAX_DEPTH = 64


class _Parser:
    """Recursive descent over the tokens; expr, factor and base return a
    node with its depth.  `open` counts the parentheses, calls and prefix
    minuses around the current position, at most 2 * MAX_DEPTH: to_source
    writes at most two per node (its own minus or call, and parentheses
    around a child), so every tree the parser accepts parses again."""

    def __init__(self, src: str, n: int | None):
        self.n = n
        self.tokens = _tokenize(src)
        self.idx = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def deep(self, depth: int, off: int) -> int:
        """depth, that of the node built at off; ParseError past MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", off)
        return depth

    def enter(self, off: int) -> None:
        """Open the parenthesis, call or prefix minus at off."""
        self.open += 1
        if self.open > 2 * MAX_DEPTH:
            raise ParseError(f"more than {2 * MAX_DEPTH} nested parentheses, "
                             "calls and prefix minuses", off)

    def parse(self) -> Expr:
        if self.peek()[0] == "end":
            raise ParseError("empty expression", 0)
        node, _ = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self, minimum: int = _ADD) -> tuple:
        """Precedence climbing: fold binary operators of level >= minimum;
        a right operand takes only tighter ones (left associativity)."""
        node, depth = self.factor()
        while True:
            _, text, off = self.peek()
            if text not in BINARY_OPS or BINARY_OPS[text][0] < minimum:
                return node, depth
            self.advance()
            rhs, right = self.expr(BINARY_OPS[text][0] + 1)
            node, depth = Binary(text, node, rhs), self.deep(max(depth, right) + 1, off)

    def factor(self) -> tuple:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.enter(off)
            node, depth = self.factor()
            self.open -= 1
            return Unary("-", node), self.deep(depth + 1, off)
        node, depth = self.base()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node, depth = Pow(node, self.integer()), self.deep(depth + 1, off)
        return node, depth

    def integer(self) -> int:
        sign = 1
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, off = self.peek()
        if kind != "num" or "." in text:
            raise ParseError("expected integer exponent", off)
        self.advance()
        return sign * int(text)

    def group(self, off: int) -> tuple:
        """expr ")", inside the call or parenthesis opened at off."""
        self.enter(off)
        inner = self.expr()
        self.expect_op(")")
        self.open -= 1
        return inner

    def base(self) -> tuple:
        kind, text, off = self.advance()
        if kind == "num":
            return Lit(complex(float(text))), 1
        if kind == "ident":
            if text == "i":
                return Lit(1j), 1
            if text in UNARY_OPS:
                self.expect_op("(")
                inner, depth = self.group(off)
                return Unary(text, inner), self.deep(depth + 1, off)
            m = _re.fullmatch(r"z(\d+)", text)
            if m:
                k = int(m.group(1))
                if k < 1 or (self.n is not None and k > self.n):
                    raise VariableIndexError(
                        f"variable z{k} out of range 1..{self.n}", off)
                return Var(k), 1
            raise UnknownIdentifierError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            return self.group(off)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input",
                         off)


def parse(src: str, n: int | None = None) -> Expr:
    """Parse DSL source into an AST, checking variable indices against n."""
    return _Parser(src, n).parse()


# ---------------------------------------------------------------------------
# Printer

def _level(e: Expr) -> int:
    match e:
        case Lit(v):
            return _ATOM if (v.imag == 0 and v.real >= 0) or v == 1j else _NEG
        case Var():
            return _ATOM
        case Unary(op):
            return _NEG if op == "-" else _ATOM
        case Binary(op):
            return BINARY_OPS[op][0]
        case Pow():
            return _POW
    raise TypeError(f"not an Expr: {e!r}")


def _fmt_real(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return np.format_float_positional(v, unique=True, trim="-")


def _wrap(e: Expr, minimum: int) -> str:
    s = to_source(e)
    return s if _level(e) >= minimum else f"({s})"


def to_source(e: Expr) -> str:
    """Render an AST back to DSL source.  parse(to_source(parse(s))) == parse(s).

    Literals produced by substitution (negative reals, general complex
    values) print as parenthesized arithmetic, which re-parses to an
    equivalent but compound AST; everything the grammar itself can produce
    round-trips node-for-node.
    """
    match e:
        case Lit(v):
            if v == 1j:
                return "i"
            if v.imag == 0:
                if v.real >= 0:
                    return _fmt_real(v.real)
                return f"(-{_fmt_real(-v.real)})"
            sign = "+" if v.imag >= 0 else "-"
            return f"({_fmt_real(v.real)}{sign}{_fmt_real(abs(v.imag))}*i)"
        case Var(k):
            return f"z{k}"
        case Unary("-", a):
            return "-" + _wrap(a, _POW)
        case Unary(op, a):
            return f"{op}({to_source(a)})"
        case Binary(op, l, r):
            level = BINARY_OPS[op][0]
            return f"{_wrap(l, level)}{op}{_wrap(r, level + 1)}"
        case Pow(b, k):
            return f"{_wrap(b, _POW + 1)}^{k}"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation

def eval_value(e: Expr, points) -> np.ndarray | complex:
    """Evaluate at points of shape (..., n); plain complex arithmetic.

    Constant subtrees evaluate to scalars and broadcast; the caller is
    responsible for broadcasting a fully constant result if it needs the
    batch shape.
    """
    pts = np.asarray(points, dtype=complex)
    match e:
        case Lit(v):
            return v
        case Var(k):
            return pts[..., k - 1]
        case Unary(op, a):
            return UNARY_OPS[op](eval_value(a, pts))
        case Binary(op, l, r):
            return BINARY_OPS[op][1](eval_value(l, pts), eval_value(r, pts))
        case Pow(b, k):
            base = eval_value(b, pts)
            return base ** k if k >= 0 else (1.0 / base) ** (-k)
    raise TypeError(f"not an Expr: {e!r}")


class _Tape:
    """The jets of some expressions as one list of interned nodes.

    A node is (op, child ids, constant): ("lit", (), c), ("var", (), k)
    for the 0-based z_k, (op, (a,), None) and (op, (a, b), None) for the
    UNARY_OPS and BINARY_OPS rows, and ("^", (b,), p).  Equal nodes get
    one id, so the entries' shared subexpressions (1 + |z|^2 in fs(n))
    are one node; a child's id is below its parent's.  Derivatives come
    from one first-order rule per node shape, memoised per (node, k,
    bar) and folded at the literals 0 and 1; d2/dz_k dzbar_l is the
    zbar_l rule applied to the z_k node.  Every divisor a rule writes is
    one of the source's: (dl - (l/r) dr)/r, and p (b^p/b) db for p < 0,
    where |b| >= DIV_EPS follows from the check of b^p.

    `outputs` maps a node to its (slot, column) pairs: value, d, dbar
    and ddbar (slots 0-3) of expression r in columns r, r*n + k and
    (r*n + k)*n + l.  `last` is each node's last consumer, or itself.
    """

    def __init__(self, exprs, n: int):
        self.nodes, self.last, self.outputs, self._ids, self._memo = [], [], {}, {}, {}
        self.zero, self.one = self._lit(0j), self._lit(1 + 0j)
        for r, e in enumerate(exprs):
            v = self._copy(e)
            d = [self._diff(v, k, False) for k in range(n)]
            dbar = [self._diff(v, k, True) for k in range(n)]
            ddbar = [self._diff(dk, l, True) for dk in d for l in range(n)]
            for slot, ids in enumerate(([v], d, dbar, ddbar)):
                for col, i in enumerate(ids, start=r * len(ids)):
                    self.outputs.setdefault(i, []).append((slot, col))

    def _node(self, op: str, args: tuple = (), c=None) -> int:
        key = (op, args, c)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.last.append(i)
            for a in args:
                self.last[a] = i
        return i

    def _lit(self, c) -> int:
        return self._node("lit", (), complex(c))

    def _copy(self, e: Expr) -> int:
        match e:
            case Lit(v):
                return self._lit(v)
            case Var(k):
                return self._node("var", (), k - 1)
            case Unary(op, a):
                return self._node(op, (self._copy(a),))
            case Binary(op, l, r):
                return self._node(op, (self._copy(l), self._copy(r)))
            case Pow(b, k):
                return self._node("^", (self._copy(b),), k)
        raise TypeError(f"not an Expr: {e!r}")

    def _add(self, a: int, b: int) -> int:
        return b if a == self.zero else a if b == self.zero else self._node("+", (a, b))

    def _sub(self, a: int, b: int) -> int:
        return a if b == self.zero else self._neg(b) if a == self.zero else self._node("-", (a, b))

    def _neg(self, a: int) -> int:
        return a if a == self.zero else self._node("-", (a,))

    def _mul(self, a: int, b: int) -> int:
        if self.zero in (a, b):
            return self.zero
        return b if a == self.one else a if b == self.one else self._node("*", (a, b))

    def _conj(self, a: int) -> int:
        op, _, c = self.nodes[a]
        return self._lit(c.conjugate()) if op == "lit" else self._node("conj", (a,))

    def _diff(self, i: int, k: int, bar: bool) -> int:
        """Id of d node_i / dz_k, or of d node_i / dzbar_k when bar."""
        key = (i, k, bar)
        j = self._memo.get(key)
        if j is None:
            j = self._memo[key] = self._rule(i, k, bar)
        return j

    def _rule(self, i: int, k: int, bar: bool) -> int:
        op, args, c = self.nodes[i]
        if op == "lit":
            return self.zero
        if op == "var":
            return self.one if c == k and not bar else self.zero
        if op == "conj":  # d conj(f) = conj(dbar f)
            return self._conj(self._diff(args[0], k, not bar))
        da = [self._diff(a, k, bar) for a in args]
        if op == "exp":
            return self._mul(i, da[0])
        if op == "^":  # p b^(p-1) db, written p (b^p/b) db for p < 0
            if da[0] == self.zero:
                return self.zero
            b = args[0]
            factor = (self._node("/", (i, b)) if c < 0 else self.one if c < 2
                      else b if c == 2 else self._node("^", (b,), c - 1))
            return self._mul(self._mul(self._lit(c), factor), da[0])
        if len(args) == 1:  # the prefix minus
            return self._neg(da[0])
        l, r = args
        if op == "+":
            return self._add(*da)
        if op == "-":
            return self._sub(*da)
        if op == "*":
            return self._add(self._mul(da[0], r), self._mul(l, da[1]))
        # "/": (dl - (l/r) dr) / r
        num = self._sub(da[0], self._mul(i, da[1]))
        return self.zero if num == self.zero else self._node("/", (num, r))


def _checked_divisor(v):
    """v, or SingularPointError when some |v| is below DIV_EPS."""
    if (np.abs(v) < DIV_EPS).any():
        raise SingularPointError(
            f"division by jet with value modulus {np.min(np.abs(v)):.3e}")
    return v


def eval_jet(entries, n: int, points) -> Jet2:
    """Second-order Wirtinger jets of an Expr, or of an array of them
    (nested tuples such as MetricSpec.entries), at points (..., n).

    Each slot has the points' batch shape, then the entries' shape, then
    its derivative axes: value B+E, d and dbar B+E+(n,), ddbar
    B+E+(n, n).  All entries share one walk of one _Tape: each node is
    evaluated over the batch by its UNARY_OPS or BINARY_OPS action (a
    literal stays a Python scalar), written into the columns it fills
    and dropped after its last consumer.  A "/" node checks its divisor
    and b^-p checks b^p: SingularPointError below DIV_EPS."""
    grid = np.array(entries, dtype=object)
    pts = np.asarray(points, dtype=complex)
    tape = _Tape(grid.ravel().tolist(), n)
    flat = pts.reshape(-1, n)
    P, m = flat.shape[0], grid.size
    slots = [np.empty((P, m * n ** k), dtype=complex) for k in (0, 1, 1, 2)]
    vals = [None] * len(tape.nodes)
    for i, (op, args, c) in enumerate(tape.nodes):
        if op == "lit":
            v = c
        elif op == "var":
            v = flat[:, c]
        elif op == "^":
            b = vals[args[0]]
            v = b ** c if c >= 0 else 1.0 / _checked_divisor(b ** -c)
        elif len(args) == 1:
            v = UNARY_OPS[op](vals[args[0]])
        else:
            l, r = vals[args[0]], vals[args[1]]
            v = BINARY_OPS[op][1](l, _checked_divisor(r) if op == "/" else r)
        for slot, col in tape.outputs.get(i, ()):
            slots[slot][:, col] = v
        if tape.last[i] > i:
            vals[i] = v
        for a in args:
            if tape.last[a] == i:
                vals[a] = None
    shape = pts.shape[:-1] + grid.shape
    return Jet2(*(s.reshape(shape + (n,) * k) for s, k in zip(slots, (0, 1, 1, 2))))


# ---------------------------------------------------------------------------
# Structural helpers

def map_vars(e: Expr, fn) -> Expr:
    """Rebuild an AST with every Var node replaced by fn(k) (an Expr)."""
    match e:
        case Lit(_):
            return e
        case Var(k):
            return fn(k)
        case Unary(op, a):
            return Unary(op, map_vars(a, fn))
        case Binary(op, l, r):
            return Binary(op, map_vars(l, fn), map_vars(r, fn))
        case Pow(b, k):
            return Pow(map_vars(b, fn), k)
    raise TypeError(f"not an Expr: {e!r}")


def shift_vars(e: Expr, offset: int) -> Expr:
    """Renumber z_k to z_{k+offset}."""
    return map_vars(e, lambda k: Var(k + offset))


def scale_expr(factor: float, e: Expr) -> Expr:
    """Multiply an entry by a real factor, folding trivial shapes.

    Keeps c * (a/b) in the form (c*a)/b so that assembled metrics print in
    the same shape as the bundled catalog entries.
    """
    c = complex(factor)
    if c == 1:
        return e
    match e:
        case Lit(v):
            return Lit(c * v)
        case Binary("/", l, r):
            return Binary("/", scale_expr(factor, l), r)
    return Binary("*", Lit(c), e)


def random_expr(rng: np.random.Generator, n: int, depth: int = 3) -> Expr:
    """Random AST over the full operator set; structural only, no guards."""
    if depth <= 0 or rng.random() < 0.25:
        match int(rng.integers(4)):
            case 0:
                return Lit(complex(round(float(rng.uniform(0.2, 2.0)), 3)))
            case 1:
                return Lit(1j)
            case 2:
                return Var(int(rng.integers(1, n + 1)))
            case _:
                return Unary("conj", Var(int(rng.integers(1, n + 1))))
    k = int(rng.integers(8))
    if k < 5:
        return Binary("+-**/"[k], random_expr(rng, n, depth - 1),
                      random_expr(rng, n, depth - 1))
    if k < 7:
        return Unary(("-", "conj")[k - 5], random_expr(rng, n, depth - 1))
    if rng.random() < 0.5:
        return Unary("exp", random_expr(rng, n, depth - 1))
    return Pow(random_expr(rng, n, depth - 1), int(rng.integers(2, 4)))


# ---------------------------------------------------------------------------
# Chart boxes

# Slack of every box membership test, so that points computed on a box
# edge (grid endpoints, restricted coordinates) count as inside.
BOX_TOL = 1e-9

@dataclass(frozen=True)
class Rect:
    """Closed rectangle for one complex coordinate: re and im intervals."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"{self} has a non-finite bound")
        if self.re_min > self.re_max or self.im_min > self.im_max:
            raise ValueError(f"{self} has a minimum above its maximum")

    def contains(self, z):
        """Whether z (a complex number or array) lies in the rectangle,
        up to BOX_TOL."""
        tol = BOX_TOL
        return ((self.re_min - tol <= z.real) & (z.real <= self.re_max + tol)
                & (self.im_min - tol <= z.imag) & (z.imag <= self.im_max + tol))


def box_contains(box, points) -> np.ndarray:
    """Which of points (..., n) lie in the box, as a bool array (...);
    non-finite points count as outside."""
    pts = np.asarray(points, dtype=complex)
    inside = np.isfinite(pts).all(axis=-1)
    for r, z in zip(box, np.moveaxis(pts, -1, 0), strict=True):
        inside &= r.contains(z)
    return inside


def box_sample(box, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples in the box, shape (count, n)."""
    cols = []
    for r in box:
        re = rng.uniform(r.re_min, r.re_max, count)
        im = rng.uniform(r.im_min, r.im_max, count)
        cols.append(re + 1j * im)
    return np.stack(cols, axis=-1)


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard normal real parts, then standard normal imaginary parts,
    written into one complex array: the values of
    rng.standard_normal(shape) + 1j * rng.standard_normal(shape), bit for
    bit, without its two whole complex temporaries.  The array is
    column-major, so for a (trials, d) draw each coordinate's trials are
    contiguous and curvature.quartic reads the directions along its
    contiguous axis.  Descent's streams draw their own directions in one
    call (positivity._complex_dirs)."""
    z = np.empty(shape, dtype=complex, order="F")
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def box_grid(box, per_axis: int) -> np.ndarray:
    """Full grid over all 2n real axes (endpoints included), shape (P, n).

    Points come out in lexicographic order over
    (re_1, im_1, re_2, im_2, ...), which doubles as the tie-break order
    for scan winners.  Fewer than 2 points per axis raise ValueError.
    """
    if per_axis < 2:
        raise ValueError("grid_per_axis must be at least 2")
    axes = []
    for r in box:
        axes.append(np.linspace(r.re_min, r.re_max, per_axis))
        axes.append(np.linspace(r.im_min, r.im_max, per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    cols = [flat[2 * k] + 1j * flat[2 * k + 1] for k in range(len(box))]
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# Torus orbits of a grid

def _charge(e: Expr, n: int):
    """Torus charge of e by the rules of the module docstring: the q in
    Z^n with e(Up) = e^{i q.theta} e(p) for U = diag(e^{i theta}), or None
    when the rules cannot decide (z1+conj(z1), 0*z1+z2)."""
    zero = (0,) * n
    match e:
        case Lit():
            return zero
        case Var(k):
            return tuple(int(i == k - 1) for i in range(n))
        case Unary(op, a):
            q = _charge(a, n)
            if op == "exp":
                return zero if q == zero else None
            if op == "conj" and q is not None:
                return tuple(-x for x in q)
            return q
        case Pow(b, k):
            if k == 0:
                return zero
            q = _charge(b, n)
            return None if q is None else tuple(k * x for x in q)
        case Binary(op, l, r):
            ql, qr = _charge(l, n), _charge(r, n)
            if ql is None or qr is None:
                return None
            if op in "+-":
                return ql if ql == qr else None
            sign = 1 if op == "*" else -1
            return tuple(a + sign * b for a, b in zip(ql, qr))
    raise TypeError(f"not an Expr: {e!r}")


def torus_invariant(spec: "MetricSpec") -> bool:
    """Whether every z -> U z, U = diag(e^{i theta}), is a holomorphic
    isometry of spec on a box centred for grid_orbits: each entry g_ij
    is the literal 0 (the off-diagonal zeros of FibrationSpec.metric and
    _diag_spec) or has charge e_j - e_i (_charge), so
    g_ij(Up) = e^{i (theta_j - theta_i)} g_ij(p), and every Rect is a
    square centred at 0 (re_min == -re_max == im_min == -im_max exactly).
    Then R(Up) is R(p) transformed by U too, so K(Up, U xi) = K(p, xi),
    and the condition number and pair-symmetry defect of check_tensor
    agree at p and Up.  The test is sufficient, not necessary: z1-z1 and
    0*z1+z2 in an entry are refused."""
    n = spec.n
    for i, row in enumerate(spec.entries):
        for j, e in enumerate(row):
            want = tuple(int(k == j) - int(k == i) for k in range(n))
            if e != Lit(0j) and _charge(e, n) != want:
                return False
    return all(r.re_min == -r.re_max == r.im_min == -r.im_max for r in spec.box)


def grid_orbits(spec: "MetricSpec", per_axis: int):
    """(reps, inverse) for box_grid(spec.box, per_axis) of a torus_invariant
    spec, else None.

    Grid points whose coordinates lie on the same circles |z_k| form one
    torus orbit, and K(p, .) is the same at all of them up to U.  The
    class key of a point is exact: per coordinate i^2 + j^2 with i and j
    its re and im grid indices taken as 2k - (per_axis - 1), combined over
    the coordinates lexicographically.  reps holds the first grid point
    of each class, in grid order, and inverse the class of every grid
    point, so values[inverse] spreads one value per class over the grid."""
    if not torus_invariant(spec):
        return None
    c = 2 * np.arange(per_axis) - (per_axis - 1)
    circle = (c[:, None] ** 2 + c[None, :] ** 2).reshape(-1)
    keys = circle
    for _ in range(spec.n - 1):
        keys = (keys[:, None] * (int(circle.max()) + 1) + circle[None, :]).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    reps = np.sort(first)
    return reps, np.searchsorted(reps, first)[inverse]


# ---------------------------------------------------------------------------
# Metric specs

class MetricError(ValueError):
    """Base for metric validation failures; carries the witness point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class HermitianDefectError(MetricError):
    pass


class NotPositiveDefiniteError(MetricError):
    pass


@dataclass(frozen=True)
class MetricSpec:
    """A metric given by entry expressions on a box: `entries` is an
    n x n matrix of Expr in the coordinates z1..zn, n >= 1, and `box` has
    one Rect per coordinate, all checked on construction.  A fiber of a
    fibration is a coordinate slice of the assembled metric (curvature.restrict)
    and, in warp, the fiber block of the assembled curvature tensor.
    """

    name: str
    n: int
    entries: tuple
    box: tuple

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"{self.name}: need at least one coordinate, got n = {n}")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"{self.name}: entries must be {n} x {n}")
        if len(self.box) != n:
            raise ValueError(f"{self.name}: box must have {n} rectangles, "
                             f"got {len(self.box)}")


@dataclass(frozen=True)
class FibrationSpec:
    """A chart with s fiber coordinates, m base coordinates, a fiber
    metric block over all n = s + m coordinates, and a base metric over
    its own m coordinates (z1..zm in the base's numbering)."""

    name: str
    s: int
    m: int
    fiber_entries: tuple
    base_entries: tuple
    mu0: float
    box: tuple

    def __post_init__(self):
        s, m = self.s, self.m
        if s < 1 or m < 1:
            raise ValueError("need at least one fiber and one base coordinate")
        if len(self.fiber_entries) != s or any(len(r) != s for r in self.fiber_entries):
            raise ValueError("fiber_entries must be s x s")
        if len(self.base_entries) != m or any(len(r) != m for r in self.base_entries):
            raise ValueError("base_entries must be m x m")
        if len(self.box) != self.n:
            raise ValueError("box must cover all s + m coordinates")
        if not 0 <= self.mu0 < math.inf:
            raise ValueError("mu0 must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.s + self.m

    def base_spec(self) -> MetricSpec:
        return MetricSpec(f"{self.name}.base", self.m, self.base_entries,
                          self.box[self.s:])

    def metric(self, scale: float, name: str) -> MetricSpec:
        """The assembled metric blockdiag(fiber, scale * base) on the whole
        box, named name: the base block is shifted onto z_{s+1}..z_n and
        the off-diagonal blocks are zero.  Every warped metric of the
        program (catalog entries, warp.assemble) is built here."""
        zero = Lit(0j)
        base = [tuple(scale_expr(scale, shift_vars(e, self.s)) for e in row)
                for row in self.base_entries]
        entries = (tuple(tuple(row) + (zero,) * self.m for row in self.fiber_entries)
                   + tuple((zero,) * self.s + row for row in base))
        return MetricSpec(name, self.n, entries, self.box)


def metric_values(spec: MetricSpec, points) -> np.ndarray:
    """Entry matrix at points (..., n) -> (..., n, n)."""
    pts = np.asarray(points, dtype=complex)
    batch = pts.shape[:-1]
    n = spec.n
    out = np.empty(batch + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[..., i, j] = eval_value(spec.entries[i][j], pts)
    return out


# ---------------------------------------------------------------------------
# Reports as JSON

def _c2pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _vec_dict(v) -> list:
    return [_c2pair(z) for z in np.asarray(v).reshape(-1)]


def _json_value(v):
    if not isinstance(v, tuple):
        return v
    if any(isinstance(x, complex) for x in v):
        return _vec_dict(v)
    return [_json_value(x) for x in v]


def report_dict(report) -> dict:
    """The fields of a report dataclass that take part in ==, in field
    order: a tuple holding complex values becomes [re, im] pairs and any
    other tuple a list.  compare=False fields (per-point arrays) are not
    reported."""
    return {f.name: _json_value(getattr(report, f.name))
            for f in dataclasses.fields(report) if f.compare}


@dataclass(frozen=True)
class ValidationReport:
    name: str
    samples: int
    seed: int
    hermitian_defect: float
    min_eigenvalue: float

    as_dict = report_dict


HERMITIAN_TOL = 1e-10
PD_TOL = 1e-12


def _require_positive(**counts) -> None:
    """ValueError naming the first count below 1: no trials or samples
    would make a check pass vacuously or leave nothing to take a minimum of."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def validate(spec: MetricSpec, samples: int = 1000, seed: int = 0) -> ValidationReport:
    """Sample the box and check the entry matrix is Hermitian and positive
    definite everywhere.

    The Hermitian tolerance is relative to the matrix scale at the worst
    point (entries of a legal spec may be large near a chart edge).
    Raises HermitianDefectError or NotPositiveDefiniteError with the
    witness point attached; a NaN defect or eigenvalue fails its gate.
    """
    _require_positive(samples=samples)
    rng = np.random.default_rng(seed)
    pts = box_sample(spec.box, rng, samples)
    g = metric_values(spec, pts)
    defect = np.abs(g - np.conjugate(np.swapaxes(g, -1, -2))).max(axis=(-1, -2))
    scale = np.maximum(1.0, np.abs(g).max(axis=(-1, -2)))
    rel = defect / scale
    worst = int(np.argmax(rel))
    if not rel[worst] <= HERMITIAN_TOL:
        raise HermitianDefectError(
            f"{spec.name}: Hermitian defect {defect[worst]:.3e} at sample {worst}",
            point=pts[worst])
    sym = 0.5 * (g + np.conjugate(np.swapaxes(g, -1, -2)))
    eigs = np.linalg.eigvalsh(sym)
    mins = eigs[..., 0]
    worst = int(np.argmin(mins))
    if not mins[worst] > PD_TOL:
        raise NotPositiveDefiniteError(
            f"{spec.name}: min eigenvalue {mins[worst]:.3e} at sample {worst}",
            point=pts[worst])
    return ValidationReport(spec.name, samples, seed,
                            float(rel.max()), float(mins.min()))


# ---------------------------------------------------------------------------
# Metric and fibration file formats

def spec_to_dict(spec: MetricSpec) -> dict:
    return {
        "name": spec.name,
        "n": spec.n,
        "entries": [[to_source(e) for e in row] for row in spec.entries],
        "box": [{"re": [r.re_min, r.re_max], "im": [r.im_min, r.im_max]}
                for r in spec.box],
    }


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v, count: int) -> bool:
    return isinstance(v, list) and len(v) == count and all(map(_number, v))


# JSON kind -> (what it must be, test)
_JSON_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a number", _number),
    "rows": ("a list of lists of strings",
             lambda v: isinstance(v, list) and all(
                 isinstance(row, list) and all(isinstance(x, str) for x in row)
                 for row in v)),
    "box": ('a list of {"re": [min, max], "im": [min, max]} objects of numbers',
            lambda v: isinstance(v, list) and all(
                isinstance(b, dict) and _numbers(b.get("re"), 2)
                and _numbers(b.get("im"), 2) for b in v)),
    "bounds": ("a list of [re_min, re_max, im_min, im_max] lists of numbers",
               lambda v: isinstance(v, list) and all(_numbers(r, 4) for r in v)),
}


def _json_fields(data, **kinds) -> list:
    """The values of the keys of a file's top-level object, in the order
    of kinds, each checked against its _JSON_KINDS kind (a number is an
    int or a float, and a bool is neither).  ValueError naming the key
    when data is not an object or a value is not of its kind; a missing
    key is the KeyError that _load_json names."""
    if not isinstance(data, dict):
        raise ValueError("the top level must be a JSON object")
    values = []
    for key, kind in kinds.items():
        what, valid = _JSON_KINDS[kind]
        if not valid(data[key]):
            raise ValueError(f"{key!r} must be {what}")
        values.append(data[key])
    return values


def spec_from_dict(data: dict) -> MetricSpec:
    n, rows, rects = _json_fields(data, n="int", entries="rows", box="box")
    entries = tuple(tuple(parse(src, n) for src in row) for row in rows)
    box = tuple(Rect(float(b["re"][0]), float(b["re"][1]),
                     float(b["im"][0]), float(b["im"][1])) for b in rects)
    return MetricSpec(str(data["name"]), n, entries, box)


def fibration_to_dict(f: FibrationSpec) -> dict:
    return {
        "name": f.name, "s": f.s, "m": f.m,
        "fiber_entries": [[to_source(e) for e in row] for row in f.fiber_entries],
        "base_entries": [[to_source(e) for e in row] for row in f.base_entries],
        "mu0": f.mu0,
        "box": [[r.re_min, r.re_max, r.im_min, r.im_max] for r in f.box],
    }


def fibration_from_dict(d: dict) -> FibrationSpec:
    s, m, fiber_rows, base_rows, mu0, rects = _json_fields(
        d, s="int", m="int", fiber_entries="rows", base_entries="rows",
        mu0="number", box="bounds")
    fiber = tuple(tuple(parse(src, s + m) for src in row) for row in fiber_rows)
    base = tuple(tuple(parse(src, m) for src in row) for row in base_rows)
    box = tuple(Rect(*map(float, r)) for r in rects)
    return FibrationSpec(str(d["name"]), s, m, fiber, base, float(mu0), box)


def _save_json(data: dict, path) -> None:
    """The one file writer: UTF-8 JSON, indent 2, sorted keys, newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path, from_dict):
    """The one file reader: from_dict of the file's JSON; a key it lacks
    is a KeyError whose message names it."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return from_dict(data)
    except KeyError as exc:
        raise KeyError(f"missing key {exc.args[0]!r}") from exc


def save_spec(spec: MetricSpec, path) -> None:
    _save_json(spec_to_dict(spec), path)


def load_spec(path) -> MetricSpec:
    return _load_json(path, spec_from_dict)


def save_fibration(f: FibrationSpec, path) -> None:
    _save_json(fibration_to_dict(f), path)


def load_fibration(path) -> FibrationSpec:
    return _load_json(path, fibration_from_dict)


# ---------------------------------------------------------------------------
# Bundled metrics

# Disk-domain metrics get the axis-aligned square inscribed in the radius
# 0.95 disk, so every box point keeps |z| <= 0.95 < 1.
DISK_HALF = 0.95 / np.sqrt(2.0)


def _square_box(n: int, half: float) -> tuple:
    return tuple(Rect(-half, half, -half, half) for _ in range(n))


_DISK_BASE = ((parse("1/(1+z1*conj(z1))", 1),),)
PAPER_G_FIBRATION = FibrationSpec(
    "paper_G", 1, 1,
    ((parse("exp(2*z2*conj(z2))/(1+(z1*conj(z1))^2*exp(4*z2*conj(z2)))", 2),),),
    _DISK_BASE, 0.0, _square_box(2, DISK_HALF))
WARP_DEMO_FIBRATION = FibrationSpec(
    "warp_demo", 1, 1, ((parse("exp(z2*conj(z2))/(1+z1*conj(z1))^2", 2),),),
    _DISK_BASE, 0.0, _square_box(2, DISK_HALF))

_CATALOG_RE = _re.compile(r"^([a-zA-Z_][a-zA-Z_0-9]*)(?:\((.*)\))?$")


def _diag_spec(name: str, sources: list, box) -> MetricSpec:
    n = len(sources)
    entries = tuple(
        tuple(parse(sources[i] if i == j else "0", n) for j in range(n))
        for i in range(n))
    return MetricSpec(name, n, entries, box)


def _projective_spec(name: str, n: int, sign: int) -> MetricSpec:
    """(delta_ij (1 + sign*S) - sign*conj(z_i) z_j) / (1 + sign*S)^2 with
    S = |z|^2: Fubini-Study (sign +1, K = +4) or the unit ball (sign -1,
    K = -4) in n coordinates, on the square box inscribed in |z| <= 0.95."""
    norm2 = "+".join(f"z{k}*conj(z{k})" for k in range(1, n + 1))
    den = f"(1{'+' if sign > 0 else '-'}({norm2}))"

    def entry(i: int, j: int) -> Expr:
        cross = f"conj(z{i})*z{j}"
        if i == j:
            num = f"({den}{'-' if sign > 0 else '+'}{cross})"
        else:
            num = f"-{cross}" if sign > 0 else cross
        return parse(f"{num}/{den}^2", n)

    entries = tuple(tuple(entry(i, j) for j in range(1, n + 1))
                    for i in range(1, n + 1))
    return MetricSpec(name, n, entries, _square_box(n, DISK_HALF / np.sqrt(n)))


def _dimension_arg(head: str, arg) -> int:
    try:
        n = int(arg) if arg is not None else 1
    except ValueError:
        raise KeyError(f"{head}(n) needs an integer n >= 1, got {arg!r}") from None
    if n < 1:
        raise KeyError(f"{head}(n) needs n >= 1")
    return n


def catalog(name: str) -> MetricSpec:
    """Bundled metric by name.

    Names: flat(n), poincare, fs_affine, paper_base, paper_G(lam),
    warp_demo, fs(n), ball(n).  flat, fs and ball take an
    integer dimension; paper_G a positive real warp factor (paper_G alone
    means paper_G(1)).
    """
    m = _CATALOG_RE.match(name.strip())
    if not m:
        raise KeyError(f"malformed catalog name {name!r}")
    head, arg = m.group(1), m.group(2)
    if head == "flat":
        n = _dimension_arg(head, arg)
        return _diag_spec(f"flat({n})", ["1"] * n, _square_box(n, 1.0))
    if head == "poincare":
        return _diag_spec("poincare", ["1/(1-z1*conj(z1))^2"], _square_box(1, DISK_HALF))
    if head == "fs_affine":
        return _diag_spec("fs_affine", ["1/(1+z1*conj(z1))^2"], _square_box(1, DISK_HALF))
    if head == "paper_base":
        return dataclasses.replace(PAPER_G_FIBRATION.base_spec(), name="paper_base")
    if head == "paper_G":
        try:
            lam = float(arg) if arg else 1.0
        except ValueError:
            raise KeyError(f"paper_G(lam) needs a real lam > 0, got {arg!r}") from None
        if not 0 < lam < np.inf:
            raise KeyError("paper_G(lam) needs a finite lam > 0")
        return PAPER_G_FIBRATION.metric(lam, f"paper_G({_fmt_real(lam)})")
    if head == "warp_demo":
        return WARP_DEMO_FIBRATION.metric(1.0, "warp_demo")
    if head in ("fs", "ball"):
        n = _dimension_arg(head, arg)
        return _projective_spec(f"{head}({n})", n, 1 if head == "fs" else -1)
    raise KeyError(f"unknown catalog name {name!r}")


CATALOG_NAMES = ("flat(n)", "poincare", "fs_affine", "paper_base",
                 "paper_G(lam)", "warp_demo", "fs(n)", "ball(n)")
