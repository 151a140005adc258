"""Exception hierarchy for crystalflow.

Every error raised on a contract violation derives from CrystalFlowError so
callers can catch the whole family at once; CLI-facing errors additionally
carry the exit-code semantics documented in crystalflow.cli.
"""


class CrystalFlowError(Exception):
    """Base class for all crystalflow errors."""


# ---------------------------------------------------------------- anisotropy

class NonConvexWulff(CrystalFlowError):
    """Wulff vertices do not describe a strictly convex polygon."""


class OriginOutside(CrystalFlowError):
    """The origin is not strictly inside the Wulff shape."""


class DegenerateFacet(CrystalFlowError):
    """A Wulff facet has (numerically) zero length or collinear neighbors."""


class IndexOutOfRange(CrystalFlowError, IndexError):
    """A facet or segment index is outside the valid range."""


# --------------------------------------------------------------------- curve

class NotAdmissible(CrystalFlowError):
    """Curve violates admissibility (facet matching or adjacency)."""


class DegenerateSegment(CrystalFlowError):
    """A segment has zero length or is collinear with its neighbor."""


class BadTopology(CrystalFlowError):
    """Topology flag is not one of the supported values."""


class SegmentCollapse(CrystalFlowError):
    """A height vector drives some segment length to zero or below."""


class NotClosed(CrystalFlowError):
    """Operation requires a closed curve."""


class DimensionMismatch(CrystalFlowError, ValueError):
    """Array argument has the wrong shape for this curve."""


class NotParallel(CrystalFlowError):
    """Two curves do not share segment combinatorics (cannot be compared)."""


# -------------------------------------------------------------------- energy

class WindowTooSmall(CrystalFlowError):
    """No window for an unbounded curve, a disc not strictly holding the
    curve's junctions, or a half-line clip out of (0, cap] during a run."""


class ZeroLengthSegment(CrystalFlowError):
    """A bounded segment length is nonpositive where positivity is required."""


class InvalidTriple(CrystalFlowError):
    """Facet triple is not an admissible local configuration."""


# ---------------------------------------------------------------------- flow

class StepUnderflow(CrystalFlowError):
    """Adaptive step size fell below the configured minimum."""


class NonzeroCurvatureCollapse(CrystalFlowError):
    """A segment with nonzero transition number reached the vanish threshold."""


class NotAdmissibleAfterMerge(CrystalFlowError):
    """Restart surgery produced a curve that fails admissibility checks."""


class InsufficientSamples(CrystalFlowError):
    """Trajectory does not hold enough samples for the requested analysis."""


# ------------------------------------------------------------------ analysis

class InvalidClassParams(CrystalFlowError):
    """Stationary-class parameters are inconsistent or out of range."""


class NotStationary(CrystalFlowError):
    """Curve fails the stationarity residual tolerance."""


class HalfLinesNotParallel(CrystalFlowError):
    """Half-lines of an unbounded curve are not parallel to the direction."""


class ParamOutOfRange(CrystalFlowError):
    """A generator parameter lies outside its admissible interval."""


# ----------------------------------------------------------------------- cli

class SchemaError(CrystalFlowError):
    """Scenario file fails schema validation."""


class BuildError(CrystalFlowError):
    """Scenario inputs cannot be turned into a valid anisotropy/curve."""


class IOFailure(CrystalFlowError):
    """Scenario or output file could not be read/written."""


class TimeOutOfRange(CrystalFlowError):
    """Requested snapshot time is not a row of the trajectory."""
