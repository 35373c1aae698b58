"""Curvature workbench for Hermitian metrics given symbolically in local
coordinates.

The package computes second-order Wirtinger jets, Chern curvature
tensors, and holomorphic sectional curvature for metrics written as
expressions in z1..zn and their conjugates; scans charts for negative
directions; certifies a quartic splitting bound with exact rational
weight constants; analyses one-coordinate metric pencils in closed
form; and assembles warped products over a fibration to study how
scaling the base restores positivity.

Quick start::

    import hsclab
    spec = hsclab.catalog("poincare")
    g, R = hsclab.curvature_at(spec, [[0j]])
    hsclab.hsc_dirs(g, R, [[1.0]])   # -> array([[-4.]])

The ``hsc-lab`` console script exposes the same functionality as
subcommands; ``hsc-lab selftest`` runs the acceptance suite.
"""

__version__ = "0.1.0"

from .acceptance import CHECK_NAMES, canonical_bytes, run_all, run_core
from .certify import (BoundedBlockTensor, WeightChoice,
                      check_block_hypotheses, choose_weights, pencil_at,
                      pencil_decay_check, pencil_positive_threshold,
                      pencil_spec, product_inequality_check,
                      product_inequality_slacks, random_block_tensor,
                      split_bound_check, weight_identities)
from .curvature import (CurvatureTensor, MetricJet, PointOutsideBoxError,
                        curvature, curvature_at, gaussian_curvature_1d,
                        hsc_dirs, metric_jet, metric_jet_from_fd,
                        pair_symmetry_defect, restrict)
from .dsl import (CATALOG_NAMES, FibrationSpec, MetricError, MetricSpec,
                  ParseError, Rect, catalog, load_fibration, load_spec, parse,
                  save_fibration, save_spec, to_source, validate)
from .positivity import (NegativeWitness, ScanReport, find_negative_witness,
                         min_hsc_at_point, scan_chart, scan_to_csv)
from .warp import (HypothesisViolationError, LambdaSearchResult,
                   ThresholdNotReachedError, assemble, base_growth_check,
                   check_hypotheses, family_negativity_report, lambda_search,
                   paper_G_fibration, submanifold_decreasing_check,
                   warp_demo_fibration)
from .wirtinger import Jet2, SingularPointError, fd_jet

__all__ = [
    "__version__",
    # jets
    "Jet2", "fd_jet", "SingularPointError",
    # expression DSL and metric specs
    "parse", "to_source", "MetricSpec", "Rect", "catalog", "CATALOG_NAMES",
    "validate", "save_spec", "load_spec", "ParseError", "MetricError",
    # curvature
    "MetricJet", "CurvatureTensor", "metric_jet", "metric_jet_from_fd",
    "curvature", "curvature_at", "hsc_dirs", "gaussian_curvature_1d",
    "restrict",
    "pair_symmetry_defect", "PointOutsideBoxError",
    # positivity scans
    "ScanReport", "NegativeWitness", "scan_chart", "scan_to_csv",
    "min_hsc_at_point", "find_negative_witness",
    # split-bound certification and pencils
    "WeightChoice", "choose_weights", "weight_identities",
    "product_inequality_slacks", "product_inequality_check",
    "BoundedBlockTensor", "random_block_tensor", "check_block_hypotheses",
    "split_bound_check", "pencil_at", "pencil_spec",
    "pencil_positive_threshold", "pencil_decay_check",
    # warped products
    "FibrationSpec", "warp_demo_fibration", "assemble",
    "check_hypotheses", "lambda_search", "LambdaSearchResult",
    "HypothesisViolationError", "ThresholdNotReachedError",
    "paper_G_fibration", "submanifold_decreasing_check", "base_growth_check",
    "family_negativity_report", "save_fibration", "load_fibration",
    # acceptance suite
    "run_core", "run_all", "CHECK_NAMES", "canonical_bytes",
]
