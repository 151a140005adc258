"""The package's public names: each module's ``__all__``, ``cli_main`` and
every ``CrystalFlowError``, re-exported by ``crystalflow``."""

import numpy as np
import pytest

import crystalflow

# the names the package has exported all along; the benchmark and the tests
# import them from the package
EXPORTED = [
    "Anisotropy", "AdmissibleCurve", "FlowParams", "FlowState",
    "IntegratorOptions", "Trajectory", "EpochSeries", "RestartRecord",
    "StationaryClass", "TranslationReport", "ConvergenceReport", "build_wulff",
    "square_anisotropy", "regular_polygon_anisotropy", "phi", "phi_dual",
    "facets_adjacent", "build_curve", "transition_number",
    "crystalline_curvature", "curve_index", "is_convex",
    "lengths_from_heights", "reconstruct_parallel", "measure_heights",
    "windowed_lengths", "elastic_energy", "first_variation",
    "facet_identity_residual", "stationary_energy_gap", "rhs", "step",
    "evolve", "apriori_bounds", "detect_vanishing", "restart",
    "dissipation_residual", "stationarity_residual",
    "make_stationary_square_aniso", "classify_stationary_square",
    "translation_check", "make_translating_square_aniso",
    "make_nontranslating_two_rectangles", "convergence_monitor", "cli_main",
    "STATUS_RUNNING", "STATUS_CONVERGED", "STATUS_MAX_TIME",
    "STATUS_TRANSLATING", "CrystalFlowError", "NonConvexWulff",
    "OriginOutside", "DegenerateFacet", "IndexOutOfRange", "NotAdmissible",
    "DegenerateSegment", "BadTopology", "SegmentCollapse", "NotClosed",
    "DimensionMismatch", "NotParallel", "WindowTooSmall", "ZeroLengthSegment",
    "InvalidTriple", "StepUnderflow", "NonzeroCurvatureCollapse",
    "NotAdmissibleAfterMerge", "InsufficientSamples", "InvalidClassParams",
    "NotStationary", "HalfLinesNotParallel", "ParamOutOfRange", "SchemaError",
    "BuildError", "IOFailure", "TimeOutOfRange",
]

# names their modules declared public before the package exported them
MODULE_PUBLIC = [
    "KIND_STAIRCASE", "KIND_RIGHT_ANGLE_CHAIN", "KIND_DOUBLE_CHAIN",
    "KIND_WULFF_SQUARE", "KIND_UNCLASSIFIED", "corner_data", "corner_stencil",
    "line_junctions", "dissipation_rate", "epoch_dissipation_residual",
    "is_square_anisotropy",
]


def test_all_keeps_every_exported_name():
    assert len(EXPORTED) == 76
    missing = set(EXPORTED + MODULE_PUBLIC) - set(crystalflow.__all__)
    assert not missing


def test_all_has_no_duplicates():
    assert len(crystalflow.__all__) == len(set(crystalflow.__all__))


def test_star_import_runs():
    ns = {}
    exec("from crystalflow import *", ns)
    assert set(crystalflow.__all__) <= ns.keys()
    assert ns["SchemaError"] is crystalflow.errors.SchemaError



_SQUARE = crystalflow.square_anisotropy()
_NAN = float("nan")
_UP = [(0.0, 1.0), (0.0, 1.0)]


def _curve(vertices, topology="closed", **kw):
    return crystalflow.build_curve(_SQUARE, vertices, topology, **kw)


# (id, call, error): documented errors of the public functions, each raised
# where the function checks its input
DOCUMENTED_ERRORS = [
    ("wulff-flat-array", lambda: crystalflow.build_wulff(np.ones(3)),
     "NonConvexWulff"),
    ("wulff-nan-vertex", lambda: crystalflow.build_wulff(
        [(1, 1), (_NAN, 1), (-1, -1), (1, -1)]), "NonConvexWulff"),
    ("wulff-equal-vertices", lambda: crystalflow.build_wulff([(1, 1)] * 4),
     "NonConvexWulff"),
    ("wulff-two-distinct", lambda: crystalflow.build_wulff(
        [(1, 1), (1, 1), (-1, 0)]), "NonConvexWulff"),
    ("regular-two-sides",
     lambda: crystalflow.regular_polygon_anisotropy(2), "NonConvexWulff"),
    ("regular-zero-radius",
     lambda: crystalflow.regular_polygon_anisotropy(4, 0.0), "NonConvexWulff"),
    ("adjacent-index", lambda: crystalflow.facets_adjacent(_SQUARE, 0, 9),
     "IndexOutOfRange"),
    ("curve-open-topology", lambda: _curve(_SQUARE.vertices, "open"),
     "BadTopology"),
    ("curve-nan-vertex",
     lambda: _curve([(1, 1), (_NAN, 1), (-1, -1), (1, -1)]),
     "DimensionMismatch"),
    ("curve-no-junction",
     lambda: _curve(np.zeros((0, 2)), "unbounded", ray_directions=_UP),
     "NotAdmissible"),
    ("curve-one-ray",
     lambda: _curve([(0, 0), (2, 0)], "unbounded", ray_directions=_UP[:1]),
     "DimensionMismatch"),
    ("curve-zero-ray",
     lambda: _curve([(0, 0), (2, 0)], "unbounded",
                    ray_directions=[(0.0, 0.0), (0.0, 1.0)]),
     "DegenerateSegment"),
    ("curve-equal-vertices", lambda: _curve([(1, 1)] * 4),
     "DegenerateSegment"),
    ("curve-zero-length-segment",
     lambda: _curve([(0, 0), (0, 2), (0, 2), (3, 2), (3, 0)]),
     "DegenerateSegment"),
    ("params-zero-alpha", lambda: crystalflow.FlowParams(0.0),
     "ParamOutOfRange"),
    ("params-zero-radius", lambda: crystalflow.FlowParams(1.0, 0.0),
     "ParamOutOfRange"),
    ("index-unbounded", lambda: crystalflow.curve_index(
        _curve([(0, 0), (2, 0)], "unbounded", ray_directions=_UP)),
     "NotClosed"),
    ("junction-parallel-lines", lambda: crystalflow.line_junctions(
        np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
        np.array([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), False),
     "NotAdmissible"),
    ("energy-negative-length",  # lengths 2, -0.5, 2, -0.5
     lambda: crystalflow.elastic_energy(
         _curve([(0, 0), (0, 2), (3, 2), (3, 0)]), crystalflow.FlowParams(1.0),
         h=np.array([0.0, 0.0, -3.5, 0.0])), "ZeroLengthSegment"),
    ("pocket-zero-a", lambda: crystalflow.make_translating_square_aniso(
        "pocket", 1.0, a=0.0), "ParamOutOfRange"),
    ("convex-chain-zero-m", lambda: crystalflow.make_translating_square_aniso(
        "convex-chain", 1.0, m=0), "ParamOutOfRange"),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in DOCUMENTED_ERRORS],
                         ids=[c[0] for c in DOCUMENTED_ERRORS])
def test_documented_errors_raise(call, error):
    with pytest.raises(crystalflow.CrystalFlowError) as exc:
        call()
    assert type(exc.value).__name__ == error
