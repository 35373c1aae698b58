"""Positivity certification for block-split curvature tensors, and the
closed-form curvature of a 1-D metric pencil g + lam*h.

First half: given a tensor whose fiber block dominates K0, whose base
block dominates K2, and whose strictly mixed entries are bounded by K1,
an explicit weight choice turns three scalar product inequalities into a
quartic lower bound

    full quartic >= (K0/2)*S_fiber + (K2 - K1*Kcal)*S_base,

where S_fiber/S_base are the squared coordinate masses on each side of
the split and Kcal depends only on K0/K1.  The required base bound is
base >= Kcal * mixed.

Second half: for 1-D metrics g, h the curvature of g + lam*h satisfies
the exact identity

    K(g + lam*h) * (g + lam*h)^3
      = g^3 K(g) + lam^2 h^3 K(h)
        + 2 lam (-h g_zzbar - g h_zzbar + g_z h_zbar + h_z g_zbar),

so the positivity threshold in lam is the larger root of a quadratic,
and the large-lam decay is lam*K -> K(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dsl
from .dsl import _require_positive, _vec_dict
from .curvature import (_shaped, entry_jet_1d, gaussian_from_jet,
                        pair_symmetric, pair_symmetry_defect, quartic)

BOUND_TOL = 1e-9
MIXED_FILL = 0.9


# ---------------------------------------------------------------------------
# Weight choice and the split constant


@dataclass(frozen=True)
class WeightChoice:
    """Inequality weights for a fiber/base split, chosen by equalization.

    fiber_lower (K0) bounds the fiber-block quartic from below, mixed_bound
    (K1) bounds strictly mixed entries, required_ratio (Kcal) is the
    smallest base/mixed ratio the choice certifies, and base_required is
    required_ratio * mixed_bound.
    """

    fiber_lower: float
    mixed_bound: float
    n: int
    s: int
    a_sq: float
    b_sq: float
    c_sq: float
    d_sq: float
    required_ratio: float
    base_required: float

    @property
    def a(self) -> float:
        return float(np.sqrt(self.a_sq))

    @property
    def b(self) -> float:
        return float(np.sqrt(self.b_sq))

    @property
    def c(self) -> float:
        return float(np.sqrt(self.c_sq))

    @property
    def d(self) -> float:
        return float(np.sqrt(self.d_sq))

    def as_dict(self) -> dict:
        return {**dsl.report_dict(self), "a": self.a, "b": self.b, "c": self.c, "d": self.d}


def _exact_weights(fiber_lower, mixed_bound, n: int, s: int):
    """Squared weights, constraint terms, and the split constant as exact
    rationals.  Equalization: each constraint term is (1/8) * K0/K1."""
    if not (0 < s < n):
        raise ValueError("need 0 < s < n")
    if not (fiber_lower > 0 and mixed_bound > 0):
        raise ValueError("bounds must be positive")
    r = Fraction(fiber_lower) / Fraction(mixed_bound)
    u = n - s
    a_sq = r / (32 * u ** 3)
    b_sq = r / (48 * u ** 2)
    c_sq = r / (32 * s * u)
    d_sq = r * r / (1024 * s ** 3 * u ** 2)
    terms = (4 * a_sq * u ** 3, 6 * b_sq * u ** 2,
             4 * c_sq * s * u, 4 * d_sq / c_sq * s ** 2 * u)
    kcal = (4 / a_sq * s * u ** 2 + 4 * s * u
            + 6 / b_sq * s ** 2 + 4 / (c_sq * d_sq) * s ** 3)
    return (a_sq, b_sq, c_sq, d_sq), terms, r, kcal


def choose_weights(fiber_lower: float, mixed_bound: float, n: int, s: int) -> WeightChoice:
    """Equalized weight choice; the constraint identities hold exactly in
    rational arithmetic (see weight_identities)."""
    (a_sq, b_sq, c_sq, d_sq), _, _, kcal = _exact_weights(fiber_lower, mixed_bound, n, s)
    return WeightChoice(
        fiber_lower=float(fiber_lower), mixed_bound=float(mixed_bound), n=n, s=s,
        a_sq=float(a_sq), b_sq=float(b_sq), c_sq=float(c_sq), d_sq=float(d_sq),
        required_ratio=float(kcal),
        base_required=float(kcal * Fraction(mixed_bound)))


def weight_identities(fiber_lower, mixed_bound, n: int, s: int) -> dict:
    """Exact-rational facts about the equalized choice: every constraint
    term equals r/8, their sum equals r/2, and the split constant matches
    its closed form in r = K0/K1 and u = n - s, which never reads the
    weights."""
    _, terms, r, kcal = _exact_weights(fiber_lower, mixed_bound, n, s)
    u = n - s
    kcal_ref = (128 * s * u ** 5 / r + 4 * s * u + 288 * s ** 2 * u ** 2 / r
                + 131072 * s ** 7 * u ** 3 / r ** 3)
    return {
        "terms_equalized": all(t == r / 8 for t in terms),
        "constraint_sum_is_half_ratio": sum(terms) == r / 2,
        "ratio_formula_matches": kcal == kcal_ref,
        "required_ratio": float(kcal),
    }


# ---------------------------------------------------------------------------
# The three product inequalities


def product_inequality_slacks(a, b, c, d, moduli) -> np.ndarray:
    """Right minus left side of the three weighted product inequalities.

    moduli has shape (..., 6): three fiber-side magnitudes (x1, x2, x3)
    and three base-side magnitudes (y1, y2, y3).  All three slacks are
    nonnegative for any positive weights by the arithmetic-geometric mean
    inequality; at unit weights and unit moduli they are (2, 1, 2).
    """
    m = np.asarray(moduli, dtype=float)
    x1, x2, x3 = m[..., 0], m[..., 1], m[..., 2]
    y1, y2, y3 = m[..., 3], m[..., 4], m[..., 5]
    s1 = a**2 * x1**4 + y1**4 / a**2 + y2**2 * y3**2 - x1 * y1 * y2 * y3
    s2 = b**2 * x1**2 * x2**2 + y1**2 * y2**2 / b**2 - x1 * x2 * y1 * y2
    s3 = (c**2 * x1**2 * x2**2 + (d**2 / c**2) * x3**4
          + y1**4 / (c**2 * d**2) - x1 * x2 * x3 * y1)
    return np.stack([s1, s2, s3], axis=-1)


def product_inequality_check(a: float, b: float, c: float, d: float,
                             trials: int, seed: int = 0) -> dict:
    """Random nonnegative moduli trials; reports violations and worst slack.
    A weight that is not > 0 (NaN included) is refused; a NaN slack counts
    as a violation."""
    if not all(w > 0 for w in (a, b, c, d)):
        raise ValueError("weights must be positive")
    _require_positive(trials=trials)
    rng = np.random.default_rng(seed)
    moduli = rng.uniform(0.0, 3.0, size=(trials, 6))
    slacks = product_inequality_slacks(a, b, c, d, moduli)
    worst = float(slacks.min())
    return {
        "trials": trials,
        "seed": seed,
        "violations": int(np.sum(~(slacks >= -BOUND_TOL))),
        "worst_slack": worst,
    }


# ---------------------------------------------------------------------------
# Block-bounded tensors


@dataclass(frozen=True)
class BoundedBlockTensor:
    """A pair-symmetric tensor with quartic lower bounds on the two
    diagonal blocks and an entrywise bound on the strictly mixed entries."""

    n: int
    s: int
    R: np.ndarray
    fiber_lower: float
    mixed_bound: float
    base_lower: float


def _model_block(bound: float, size: int) -> np.ndarray:
    """0.5*bound*(delta_ij delta_kl + delta_il delta_kj), indexed [i, j, k, l]."""
    eye = np.eye(size)
    block = 0.5 * bound * (eye[:, :, None, None] * eye
                           + eye[:, None, None, :] * eye[:, :, None])
    return block.astype(complex)


def _strictly_mixed_mask(n: int, s: int) -> np.ndarray:
    """Index tuples with one to three of their four indices below s."""
    fiber = (np.arange(n) < s).astype(int)
    count = fiber[:, None, None, None] + fiber[:, None, None] + fiber[:, None] + fiber
    return count % 4 != 0


def random_block_tensor(fiber_lower: float, mixed_bound: float, base_lower: float,
                        n: int, s: int, seed: int = 0) -> BoundedBlockTensor:
    """Model blocks (quartic bounds attained with equality) plus uniform
    mixed noise of modulus <= MIXED_FILL * mixed_bound, pair-symmetrized."""
    if not (0 < s < n):
        raise ValueError("need 0 < s < n")
    rng = np.random.default_rng(seed)
    R = np.zeros((n, n, n, n), dtype=complex)
    R[:s, :s, :s, :s] = _model_block(fiber_lower, s)
    R[s:, s:, s:, s:] = _model_block(base_lower, n - s)
    cap = MIXED_FILL * mixed_bound
    # Strictly mixed entries in C order, each with its mirror (j, i, l, k);
    # the canonical one of a pair is the first in that order.
    flat = np.flatnonzero(_strictly_mixed_mask(n, s))
    i, j, k, l = np.unravel_index(flat, R.shape)
    mirror = np.ravel_multi_index((j, i, l, k), R.shape)
    canonical = flat <= mirror
    flat, mirror = flat[canonical], mirror[canonical]
    # One draw per self-mirror entry and two (modulus, phase) per pair, in
    # the order of the canonical entries.
    pair = flat != mirror
    width = 1 + pair
    first = np.cumsum(width) - width
    u = rng.random(int(width.sum()))
    R.flat[flat[~pair]] = -cap + 2 * cap * u[first[~pair]]
    w = cap * u[first[pair]] * np.exp(2j * np.pi * u[first[pair] + 1])
    R.flat[flat[pair]] = w
    R.flat[mirror[pair]] = np.conjugate(w)
    return BoundedBlockTensor(n, s, R, float(fiber_lower),
                              float(mixed_bound), float(base_lower))


def check_block_hypotheses(t: BoundedBlockTensor, trials: int = 10000,
                           seed: int = 0) -> dict:
    """Verify the three bounds the certification consumes.

    The entrywise mixed_bound is checked on strictly mixed entries (index
    tuples meeting both sides of the split): those are exactly the entries
    the mixed-term estimate uses, while the diagonal blocks are governed
    by their own quartic bounds and may legitimately reach fiber_lower or
    base_lower.

    Quartic margins are relative to the magnitude of the compared
    quantities, so the 1e-9 slack stays meaningful when the bounds are
    large; at unit scale it is the plain difference.  They read real
    parts, which needs pair symmetry: ok also requires
    curvature.pair_symmetric, the rule of curvature.check_tensor.
    """
    _require_positive(trials=trials)
    n, s = t.n, t.s
    rng = np.random.default_rng(seed)
    xf = rng.standard_normal((trials, s)) + 1j * rng.standard_normal((trials, s))
    qf = quartic(t.R[:s, :s, :s, :s], xf).real
    mf = (np.abs(xf) ** 2).sum(axis=1) ** 2
    fiber_margin = float(((qf - t.fiber_lower * mf)
                          / np.maximum(1.0, np.abs(t.fiber_lower) * mf)).min())

    xb = rng.standard_normal((trials, n - s)) + 1j * rng.standard_normal((trials, n - s))
    qb = quartic(t.R[s:, s:, s:, s:], xb).real
    mb = (np.abs(xb) ** 2).sum(axis=1) ** 2
    base_margin = float(((qb - t.base_lower * mb)
                         / np.maximum(1.0, np.abs(t.base_lower) * mb)).min())

    mixed_max = float(np.abs(t.R[_strictly_mixed_mask(n, s)]).max())
    ok = (fiber_margin >= -BOUND_TOL and base_margin >= -BOUND_TOL
          and mixed_max < t.mixed_bound and pair_symmetric(t.R))
    return {
        "trials": trials, "seed": seed, "ok": ok,
        "fiber_margin": fiber_margin, "base_margin": base_margin,
        "mixed_entry_max": mixed_max, "mixed_bound": t.mixed_bound,
        "pair_symmetry_defect": pair_symmetry_defect(t.R),
    }


def split_bound_check(t: BoundedBlockTensor, w: WeightChoice,
                      trials: int = 10000, seed: int = 0) -> dict:
    """Check the certified lower bound on random directions.

    Asserts, for each unit trial direction xi, the full quartic is at
    least (K0/2)*S_fiber + (K2 - K1*Kcal)*S_base - 1e-9 and strictly
    positive, where S_fiber and S_base are the squared coordinate masses
    of the two blocks.  Requires base_lower >= required_ratio *
    mixed_bound.  The slack is relative to the magnitude of the compared
    quantities (plain 1e-9 at unit scale); a NaN margin counts as a
    violation.
    """
    if not t.base_lower >= w.required_ratio * t.mixed_bound * (1 - 1e-12):
        raise ValueError("base_lower below the certified requirement")
    _require_positive(trials=trials)
    n, s = t.n, t.s
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    num = quartic(t.R, xi)
    scale = np.maximum(1.0, np.abs(num))
    if (np.abs(num.imag) / scale).max() > 1e-9:
        raise ArithmeticError("quartic of a pair-symmetric tensor must be real")
    num = num.real
    sf = (np.abs(xi[:, :s]) ** 2).sum(axis=1) ** 2
    sb = (np.abs(xi[:, s:]) ** 2).sum(axis=1) ** 2
    rhs = 0.5 * t.fiber_lower * sf + (t.base_lower - t.mixed_bound * w.required_ratio) * sb
    scale = np.maximum(1.0, np.abs(num) + np.abs(rhs))
    margin = (num - rhs) / scale
    worst = int(np.argmin(margin))
    return {
        "trials": trials, "seed": seed,
        "violations": int(np.sum(~(margin >= -BOUND_TOL))),
        "worst_margin": float(margin.min()),
        "min_quartic": float(num.min()),
        "all_strictly_positive": bool(np.all(num > 0)),
        "worst_direction": _vec_dict(xi[worst]),
    }


# ---------------------------------------------------------------------------
# 1-D pencils g + lam*h


def _pencil_terms(gspec: dsl.MetricSpec, hspec: dsl.MetricSpec, points):
    """(g, h, K(g), K(h), cross) of the closed form (module docstring) as
    flat arrays over the points, from one entry_jet_1d call per metric."""
    flat = np.ravel(points)
    gj, hj = entry_jet_1d(gspec, flat), entry_jet_1d(hspec, flat)
    kg, kh = gaussian_from_jet(*gj), gaussian_from_jet(*hj)
    (g, gz, gzbar, gzz), (h, hz, hzbar, hzz) = gj, hj
    if np.any((g.real <= 0) | (h.real <= 0)):
        raise ValueError("metric values must be positive")
    g, h = g.real, h.real
    cross = (-h * gzz - g * hzz + gz * hzbar + hz * gzbar).real
    return g, h, kg, kh, cross


def _pencil_value(terms, lam):
    """K(g + lam*h) from the _pencil_terms arrays (or their scalars)."""
    g, h, kg, kh, cross = terms
    return (g**3 * kg + lam**2 * h**3 * kh + 2 * lam * cross) / (g + lam * h) ** 3


def pencil_at(gspec: dsl.MetricSpec, hspec: dsl.MetricSpec, points):
    """(K(h), phi) at points, where phi(lam) = K(g + lam*h) in closed form
    (exact as an algebraic identity).

    `points` is a complex scalar or an array of any shape; a scalar is a
    batch of one.  Each metric's entry jets are read in one batched
    entry_jet_1d call here, so callers that need several lams at the same
    points call this once.  K(h) and phi(lam) are floats for a scalar
    point and float arrays of the points' shape otherwise; each phi(lam)
    is one array expression over the batch.
    """
    terms, shape = _pencil_terms(gspec, hspec, points), np.shape(points)
    return _shaped(terms[3], shape), lambda lam: _shaped(_pencil_value(terms, lam), shape)


def pencil_spec(gspec: dsl.MetricSpec, hspec: dsl.MetricSpec, lam: float) -> dsl.MetricSpec:
    """The summed 1-D metric g + lam*h as a MetricSpec, for direct
    curvature cross-checks.  Box: intersection of the operand boxes."""
    if gspec.n != 1 or hspec.n != 1:
        raise ValueError("pencil_spec takes one-coordinate metrics")
    entry = dsl.Binary("+", gspec.entries[0][0],
                       dsl.scale_expr(lam, hspec.entries[0][0]))
    ga, ha = gspec.box[0], hspec.box[0]
    # Rect refuses an empty intersection
    box = (dsl.Rect(max(ga.re_min, ha.re_min), min(ga.re_max, ha.re_max),
                    max(ga.im_min, ha.im_min), min(ga.im_max, ha.im_max)),)
    name = f"{gspec.name}+{dsl._fmt_real(float(lam))}*{hspec.name}"
    return dsl.MetricSpec(name, 1, ((entry,),), box)


PENCIL_DECAY_LAMBDAS = (1.0, 10.0, 100.0, 1e3, 1e4)


def pencil_positive_threshold(gspec: dsl.MetricSpec, hspec: dsl.MetricSpec,
                              point) -> dict:
    """The lam above which the pencil curvature at the point stays
    positive, and the curvature there, in closed form.

    The numerator K(g + lam*h) * (g + lam*h)^3 is a2*lam^2 + a1*lam + a0
    with a2 = h^3 K(h) > 0 (required), a1 = 2*cross and a0 = g^3 K(g), so
    it is positive above its larger root r+, taken cancellation-free.
    With no real root or r+ <= 0 the threshold is 0.0 and
    positive_at_start: the curvature is positive for every lam > 0.
    """
    terms = _pencil_terms(gspec, hspec, point)
    g, h, kg, kh, cross = (t.item() for t in terms)
    if not kh > 0:
        raise ValueError(f"second metric has nonpositive curvature {kh:.6g} at the point")
    a2, a1, a0 = h**3 * kh, 2 * cross, g**3 * kg
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0 or (a1 >= 0 and a0 >= 0):  # no real root, or none above 0
        thr = 0.0
    elif a1 < 0:
        thr = float((-a1 + np.sqrt(disc)) / (2 * a2))
    else:
        thr = float(2 * a0 / (-a1 - np.sqrt(disc)))
    return {
        "threshold": thr,
        "curvature_at_threshold": _pencil_value(terms, thr).item(),
        "positive_at_start": thr == 0.0,
    }


def pencil_decay_check(gspec: dsl.MetricSpec, hspec: dsl.MetricSpec, point) -> dict:
    """Large-lam behavior over PENCIL_DECAY_LAMBDAS: lam*K approaches the
    curvature of the second metric (within 1% at the top), and |K| decays
    like 1/lam (log-log slope -1 +- 0.2 over the last two decades)."""
    lams = list(PENCIL_DECAY_LAMBDAS)
    kh, phi = pencil_at(gspec, hspec, point)
    vals = [phi(l) for l in lams]
    top_ratio = lams[-1] * vals[-1] / kh
    tail = [(l, v) for l, v in zip(lams, vals) if l >= lams[-1] / 100 and v != 0]
    slope = None
    if len(tail) >= 2:
        xs = np.log([l for l, _ in tail])
        ys = np.log([abs(v) for _, v in tail])
        slope = float(np.polyfit(xs, ys, 1)[0])
    ok = abs(top_ratio - 1.0) <= 0.01 and (slope is None or abs(slope + 1.0) <= 0.2)
    if not ok:
        raise ArithmeticError(
            f"decay violation: lam*K/K_h = {top_ratio:.6f}, tail slope {slope}")
    return {
        "lam_values": lams,
        "curvatures": vals,
        "top_ratio": float(top_ratio),
        "tail_slope": slope,
        "limit_curvature": float(kh),
    }
