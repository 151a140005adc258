"""The package's public names: each module's ``__all__``, ``cli_main`` and
every ``CrystalFlowError``, re-exported by ``crystalflow``."""

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
