"""Admissible polygonal curves compatible with a crystalline anisotropy.

A curve is a chain of maximal straight segments, each parallel to a Wulff
facet, with consecutive segments living on *adjacent* facets.  Closed curves
are normalized to clockwise orientation so that nu = tau rotated 90 degrees
counterclockwise is the outward normal.  Unbounded curves have exactly two
half-lines (first and last segment) whose heights stay pinned at zero.

Indexing conventions (0-based throughout):

* segment i of a closed n-gon runs from ``vertices[i]`` to ``vertices[i+1]``
  (cyclic); for an unbounded curve with n segments, ``vertices`` holds the
  n-1 interior junctions, segment 0 is the half-line arriving at
  ``vertices[0]`` and segment n-1 the half-line leaving ``vertices[-1]``.
* ``thetas`` has length n+1 and ``thetas[i]``, ``thetas[i+1]`` are the corner
  angles flanking segment i.  Unbounded ends use the convention theta = 0.
* corner angles are measured from the facet normals: theta = pi - dpsi where
  dpsi in (-pi, pi) is the signed rotation from the incoming to the outgoing
  normal.  theta in (pi, 2pi) marks a clockwise facet step (+1), theta in
  (0, pi) a counterclockwise one (-1); the transition number c_i is +-1 when
  both corners of segment i step the same way and 0 otherwise.

The corner stencil S couples each segment to its two neighbors through the
corners that flank it:

    (S x)_i = x_{i-1} / sin th_i + x_i (cot th_i + cot th_{i+1})
              + x_{i+1} / sin th_{i+1}.

On closed curves the indices are cyclic; at the two missing corners of an
unbounded curve the coefficients are zero.  S is symmetric.  Its
coefficients (``curve.csc`` and ``curve.cot_sum``) are computed once, with
the corner angles, and ``corner_stencil`` is the only place S is applied:

* ``lengths_from_heights``: the parallel curve at heights h has lengths
  L - S h (half-lines, of infinite length, stay infinite);
* ``energy.windowed_lengths``: a half-line's windowed length moves by the
  same row of S h;
* ``energy.first_variation``: the elastic term is S applied to c^2 d / L^2;
* ``energy.facet_identity_residual``: one row of S applied to the supports
  of a facet triple;
* ``flow.apriori_bounds``: S with absolute coefficients.

Segments only translate under the flow, so each keeps its facet until a
restart builds a new curve.  Beside ``csc`` and ``cot_sum`` the curve stores
the per-segment facet coefficients that the energy and flow code read:
``bounded`` (False on half-lines), ``supports`` (phi_dual(nu_i)), ``c_hf``
(c_i H^1(F_i)) and ``c2_delta`` (c_i^2 d_i, d_i = H^1(F_i)^2 phi_dual(nu_i)).
"""

from __future__ import annotations

import numpy as np

from .anisotropy import Anisotropy, bbox_diagonal, facets_adjacent, rot90_ccw
from .errors import (
    BadTopology,
    DegenerateSegment,
    DimensionMismatch,
    IndexOutOfRange,
    NotAdmissible,
    NotClosed,
    NotParallel,
    SegmentCollapse,
)

__all__ = [
    "AdmissibleCurve",
    "build_curve",
    "transition_number",
    "crystalline_curvature",
    "corner_data",
    "corner_stencil",
    "lengths_from_heights",
    "line_junctions",
    "reconstruct_parallel",
    "measure_heights",
    "curve_index",
    "is_convex",
]

CLOSED = "closed"
UNBOUNDED = "unbounded"

_NORMAL_MATCH_TOL = 1e-9  # radians, segment normal vs facet normal


class AdmissibleCurve:
    """Validated admissible curve; treat instances as immutable."""

    def __init__(self, anisotropy, closed, vertices, facet_index, tangents,
                 normals, lengths, thetas, steps, transitions, csc, cot_sum,
                 rays=None):
        self.anisotropy = anisotropy
        self.closed = bool(closed)
        self.vertices = vertices
        self.facet_index = facet_index
        self.tangents = tangents
        self.normals = normals
        self.lengths = lengths
        self.thetas = thetas
        self.steps = steps
        self.transitions = transitions
        self.csc = csc  # (n+1,) 1/sin th per corner, 0 where no corner
        self.cot_sum = cot_sum  # (n,) cot th_i + cot th_{i+1} per segment
        self.rays = rays  # (2, 2) away-pointing half-line directions, or None
        # per-segment facet coefficients (module docstring)
        self.bounded = np.isfinite(lengths)  # half-lines have infinite length
        c = transitions.astype(float)
        self.supports = anisotropy.supports[facet_index]
        self.c_hf = c * anisotropy.facet_lengths[facet_index]
        self.c2_delta = c**2 * anisotropy.delta[facet_index]

    # -------------------------------------------------------------- basics

    @property
    def n(self) -> int:
        return len(self.facet_index)

    @property
    def topology(self) -> str:
        return CLOSED if self.closed else UNBOUNDED

    def is_halfline(self, i: int) -> bool:
        return (not self.closed) and (i == 0 or i == self.n - 1)

    @property
    def total_bounded_length(self) -> float:
        return float(self.lengths[self.bounded].sum())

    @property
    def diameter(self) -> float:
        return bbox_diagonal(self.vertices)

    def __repr__(self):
        return (f"AdmissibleCurve({self.topology}, n={self.n}, "
                f"K={self.anisotropy.K})")

    @property
    def base_points(self) -> np.ndarray:
        """(n, 2) array holding a point on the line supporting each segment."""
        if self.closed:
            return self.vertices
        return np.concatenate([self.vertices[:1], self.vertices])

    def check_heights(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if h.shape != (self.n,):
            raise DimensionMismatch(
                f"height vector must have shape ({self.n},), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise DimensionMismatch("height vector must be finite")
        if not self.closed and (h[0] != 0.0 or h[-1] != 0.0):
            raise DimensionMismatch("half-line heights must be exactly zero")
        return h


def build_curve(anisotropy: Anisotropy, vertices, topology: str = CLOSED,
                ray_directions=None) -> AdmissibleCurve:
    """Construct and validate an admissible curve.

    Parameters
    ----------
    vertices : (m, 2) array.  All segment endpoints for a closed curve; the
        interior junctions only for an unbounded one.
    topology : "closed" or "unbounded".
    ray_directions : (2, 2) array, required for unbounded curves.  Row 0 is
        the direction in which the *first* half-line recedes from
        ``vertices[0]``; row 1 the direction in which the *last* half-line
        leaves ``vertices[-1]``.
    """
    if topology not in (CLOSED, UNBOUNDED):
        raise BadTopology(f"topology must be 'closed' or 'unbounded', got {topology!r}")
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise DimensionMismatch(f"vertices must be an (m, 2) array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("vertex coordinates must be finite")

    closed = topology == CLOSED
    if closed:
        if len(v) < 3:
            raise NotAdmissible("a closed curve needs at least 3 segments")
        if ray_directions is not None:
            raise BadTopology("ray_directions only apply to unbounded curves")
        v = _orient_net_clockwise(v)
        edges = np.roll(v, -1, axis=0) - v
        rays = None
    else:
        if len(v) < 1:
            raise NotAdmissible("an unbounded curve needs at least one junction")
        if ray_directions is None:
            raise BadTopology("unbounded curves require ray_directions")
        rays = np.asarray(ray_directions, dtype=float)
        if rays.shape != (2, 2) or not np.all(np.isfinite(rays)):
            raise DimensionMismatch("ray_directions must be a finite (2, 2) array")
        norms = np.linalg.norm(rays, axis=1)
        if np.any(norms <= 0.0):
            raise DegenerateSegment("ray directions must be nonzero")
        rays = rays / norms[:, None]
        interior = v[1:] - v[:-1]  # bounded segments, if any
        edges = np.concatenate([[-rays[0]], interior, [rays[1]]])

    n = len(edges)
    scale = max(bbox_diagonal(v), 1.0 if not closed else 0.0)
    if scale <= 0.0:
        raise DegenerateSegment("curve vertices all coincide")
    seg_len = np.linalg.norm(edges, axis=1)
    bounded = np.ones(n, dtype=bool)
    if not closed:
        bounded[0] = bounded[-1] = False
    if np.any(seg_len[bounded] <= 1e-12 * scale):
        bad = [int(i) for i in np.nonzero(bounded & (seg_len <= 1e-12 * scale))[0]]
        raise DegenerateSegment(f"zero-length segment(s) at {bad}")

    tangents = edges / seg_len[:, None]
    lengths = np.where(bounded, seg_len, np.inf)
    normals = rot90_ccw(tangents)

    # facet matching: nearest facet normal must agree to the angle tolerance
    facet_index = np.empty(n, dtype=int)
    fn = anisotropy.normals
    for i in range(n):
        dots = fn @ normals[i]
        crosses = fn[:, 0] * normals[i][1] - fn[:, 1] * normals[i][0]
        ang = np.abs(np.arctan2(crosses, dots))
        j = int(np.argmin(ang))
        if ang[j] > _NORMAL_MATCH_TOL:
            raise NotAdmissible(
                f"segment {i} normal matches no Wulff facet "
                f"(best angular gap {ang[j]:.3e} rad)")
        facet_index[i] = j

    # adjacency of consecutive facets (cyclically if closed)
    pairs = range(1, n) if not closed else range(n)
    for i in pairs:
        a, b = int(facet_index[i - 1]), int(facet_index[i])
        if a == b:
            raise DegenerateSegment(
                f"segments {i - 1} and {i} lie on the same facet; merge them")
        if not facets_adjacent(anisotropy, a, b):
            raise NotAdmissible(
                f"segments {i - 1} and {i} use non-adjacent facets {a}, {b}")

    return AdmissibleCurve(anisotropy, closed, v, facet_index, tangents,
                           normals, lengths, *corner_data(normals, closed), rays)


def corner_data(normals: np.ndarray, closed: bool):
    """Corner data of a chain of segment normals.

    Returns ``(thetas, steps, transitions, csc, cot_sum)``: the corner angles
    and facet steps (length n+1, zero at the missing corners of an open
    chain), the transition number of each segment, and the coefficients of
    the corner stencil S.  Raises DegenerateSegment at a straight corner.
    """
    n = len(normals)
    slots = np.arange(n) if closed else np.arange(1, n)
    na, nb = normals[slots - 1], normals[slots]
    dpsi = np.arctan2(na[:, 0] * nb[:, 1] - na[:, 1] * nb[:, 0],
                      na[:, 0] * nb[:, 0] + na[:, 1] * nb[:, 1])
    straight = slots[np.abs(dpsi) < 1e-12]
    if len(straight):
        raise DegenerateSegment(
            f"straight angle (theta = pi) at corner {int(straight[0])}")
    thetas = np.zeros(n + 1)
    steps = np.zeros(n + 1, dtype=int)
    csc = np.zeros(n + 1)
    cot = np.zeros(n + 1)
    thetas[slots] = np.pi - dpsi
    steps[slots] = np.where(dpsi < 0.0, 1, -1)
    sin = np.sin(thetas[slots])
    csc[slots] = 1.0 / sin
    cot[slots] = np.cos(thetas[slots]) / sin
    if closed:
        thetas[n], steps[n], csc[n], cot[n] = thetas[0], steps[0], csc[0], cot[0]
    trans = np.where((steps[:-1] == 1) & (steps[1:] == 1), 1,
                     np.where((steps[:-1] == -1) & (steps[1:] == -1), -1, 0))
    return thetas, steps, trans, csc, cot[:-1] + cot[1:]


def _orient_net_clockwise(v: np.ndarray) -> np.ndarray:
    """Reverse a closed traversal whose net turning is counterclockwise.

    The turning number decides, not the signed area: closed curves with zero
    net turning are admissible here, and their shoelace area crosses zero
    whenever the oppositely-traversed lobes nearly balance, so an area test
    would flip them unpredictably under small parallel displacements.  The
    turning number is locked to a multiple of 2*pi and cannot drift."""
    e = np.roll(v, -1, axis=0) - v
    lens = np.linalg.norm(e, axis=1)
    if np.any(lens <= 0.0):
        return v  # degenerate input; reported downstream with a real message
    t = e / lens[:, None]
    tp = np.roll(t, 1, axis=0)
    turn = float(np.sum(np.arctan2(tp[:, 0] * t[:, 1] - tp[:, 1] * t[:, 0],
                                   np.sum(tp * t, axis=1))))
    if turn > np.pi:  # winds counterclockwise at least once
        return np.concatenate([v[:1], v[1:][::-1]])
    return v


# ------------------------------------------------------------------ queries

def transition_number(curve: AdmissibleCurve, i: int) -> int:
    if not (0 <= i < curve.n):
        raise IndexOutOfRange(f"segment index {i} out of range 0..{curve.n - 1}")
    return int(curve.transitions[i])


def crystalline_curvature(curve: AdmissibleCurve, i: int) -> float:
    """c_i * H^1(F_i) / length_i; zero on half-lines (c = 0, length inf)."""
    if not (0 <= i < curve.n):
        raise IndexOutOfRange(f"segment index {i} out of range 0..{curve.n - 1}")
    return float(curve.c_hf[i] / curve.lengths[i])


def curve_index(curve: AdmissibleCurve) -> int:
    """Net number of clockwise sweeps of the facet assignment around the
    Wulff boundary (closed curves only)."""
    if not curve.closed:
        raise NotClosed("the index is defined for closed curves")
    total = int(curve.steps[:-1].sum())
    K = curve.anisotropy.K
    if total % K != 0:  # pragma: no cover - impossible after validation
        raise NotAdmissible("facet steps do not wind an integer number of turns")
    return total // K


def is_convex(curve: AdmissibleCurve) -> bool:
    c = curve.transitions[curve.bounded]
    if len(c) == 0:
        return True
    return bool(np.all(c != 0) and (np.all(c > 0) or np.all(c < 0)))


# --------------------------------------------------------- height transport

def corner_stencil(x, csc, cot_sum) -> np.ndarray:
    """(S x)_i = x_{i-1} csc_i + x_i cot_sum_i + x_{i+1} csc_{i+1}, with
    cyclic neighbors (see the module docstring)."""
    x_prev = np.concatenate([x[-1:], x[:-1]])
    x_next = np.concatenate([x[1:], x[:1]])
    return x_prev * csc[:-1] + x * cot_sum + x_next * csc[1:]


def lengths_from_heights(curve: AdmissibleCurve, h) -> np.ndarray:
    """Segment lengths L - S h of the parallel curve at height vector h.

    Affine in h.  Half-line entries stay +inf; bounded entries may come out
    nonpositive — callers decide whether that is a collapse or an error.
    """
    h = curve.check_heights(h)
    return curve.lengths - corner_stencil(h, curve.csc, curve.cot_sum)


def line_junctions(points, tangents, closed: bool) -> np.ndarray:
    """Vertices of the curve through the lines ``points[i] + s tangents[i]``:
    the junction of lines i-1 and i for every i when closed, of lines k and
    k+1 otherwise.  Raises NotAdmissible when two consecutive lines are
    parallel."""
    b = np.arange(len(points)) if closed else np.arange(1, len(points))
    a = b - 1
    ta, tb = tangents[a], tangents[b]
    d = ta[:, 0] * tb[:, 1] - ta[:, 1] * tb[:, 0]
    if np.any(np.abs(d) < 1e-14):
        raise NotAdmissible("parallel lines meet at a junction")
    q = points[b] - points[a]
    t = (q[:, 0] * tb[:, 1] - q[:, 1] * tb[:, 0]) / d
    return points[a] + t[:, None] * ta


def reconstruct_parallel(curve: AdmissibleCurve, h) -> AdmissibleCurve:
    """Materialize the parallel curve with segment i displaced by h_i along
    its outward normal.  Raises SegmentCollapse if any bounded length would
    drop to (or below) the relative floor."""
    h = curve.check_heights(h)
    new_len = lengths_from_heights(curve, h)
    floor = 1e-12 * max(curve.total_bounded_length, 1.0)
    bad = np.nonzero(curve.bounded & (new_len <= floor))[0]
    if len(bad):
        raise SegmentCollapse(
            f"segment(s) {[int(i) for i in bad]} collapse at this height vector")

    base = curve.base_points + h[:, None] * curve.normals
    verts = line_junctions(base, curve.tangents, curve.closed)
    rebuilt = build_curve(curve.anisotropy, verts, curve.topology,
                          ray_directions=curve.rays)
    if not np.array_equal(rebuilt.facet_index, curve.facet_index):
        # cannot happen while lengths stay positive; guard against misuse
        raise SegmentCollapse("segment combinatorics changed under reconstruction")
    return rebuilt


def measure_heights(reference: AdmissibleCurve, other: AdmissibleCurve) -> np.ndarray:
    """Signed normal offsets of ``other``'s segment lines relative to
    ``reference`` (the inverse of reconstruct_parallel)."""
    if (reference.closed != other.closed or reference.n != other.n
            or not np.array_equal(reference.facet_index, other.facet_index)):
        raise NotParallel("curves do not share segment combinatorics")
    q = other.base_points - reference.base_points
    return np.einsum("ij,ij->i", q, reference.normals)
