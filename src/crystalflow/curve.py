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
the corner angles.  ``_apply_stencil`` is the one formula for S x: it adds
the shifted views of x, padded with one wrapped entry on each side, times
the rows (csc_i, cot_sum_i, csc_{i+1}) left to right, so each row of an
(n,) or (m, n) x has the row formula's bits.  ``corner_stencil`` takes the
coefficients as arguments.  ``AdmissibleCurve.stencil`` applies the
curve's own S (or a S) and is the one place that chooses how: one row at
n <= ``_DENSE_MAX_N`` is x @ D, D = S built once per curve and scale (row
j is ``_apply_stencil`` of e_j), which agrees with the row formula within
rounding (gamma_3 |S| |x| per entry), not bit for bit; longer rows and
every (m, n) block take ``_apply_stencil`` (an epoch's block as one matrix
product raised the stair-cascade peak RSS by 0.1 to 0.5 MB).  S serves:

* ``lengths_from_heights``: the parallel curve at heights h has lengths
  L - S h (half-lines, of infinite length, stay infinite);
* ``energy.first_variation``: the elastic term is alpha S (c^2 d / L^2);
* ``energy.facet_identity_residual``: one row of S applied to the supports
  of a facet triple;
* ``flow.apriori_bounds``: S with absolute coefficients.

Segments only translate under the flow, so a curve fixes every coefficient
of the height ODE for the epoch it starts; each segment keeps its facet
until a restart builds a new curve.  Beside ``csc`` and ``cot_sum`` the
curve stores the per-segment facet coefficients that the energy and flow
code read: ``bounded`` (False on half-lines), ``supports`` (phi_dual(nu_i)),
``neg_supports`` (-phi_dual(nu_i), the factor from g to h'), ``c_hf``
(c_i H^1(F_i)) and ``c2_delta`` (c_i^2 d_i, d_i = H^1(F_i)^2 phi_dual(nu_i)).
It also memoizes the operands of a S per a (the scaled coefficients and D).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .anisotropy import Anisotropy, bbox_diagonal, rot90_ccw
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
        self.neg_supports = -self.supports
        self.c_hf = c * anisotropy.facet_lengths[facet_index]
        self.c2_delta = c**2 * anisotropy.delta[facet_index]
        # the rows (csc_i, cot_sum_i, csc_{i+1}) of S, and per scale a the
        # scaled rows and D that ``stencil`` applies
        self._coeffs = np.stack([csc[:-1], cot_sum, csc[1:]])
        self._dense = len(facet_index) <= _DENSE_MAX_N
        self._operators = {}

    # -------------------------------------------------------------- basics

    @property
    def n(self) -> int:
        return len(self.facet_index)

    @property
    def topology(self) -> str:
        return CLOSED if self.closed else UNBOUNDED

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

    def stencil(self, x: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """(scale S) x for this curve's corner stencil, x of shape (n,) or
        (m, n) row by row, from operands made once per scale; the module
        docstring says which x take the dense D."""
        coeffs, dense = self._operators.get(scale) or self._operands(scale)
        if dense is not None and x.ndim == 1:
            return x @ dense
        return _apply_stencil(x, coeffs)

    def row_stencil(self, scale: float = 1.0):
        """The function x -> (scale S) x that ``stencil`` applies to one (n,)
        row, for a caller that binds it once and skips the per-call choice."""
        coeffs, dense = self._operators.get(scale) or self._operands(scale)
        return dense.__rmatmul__ if dense is not None else partial(
            _apply_stencil, coeffs=coeffs)

    def _operands(self, scale: float):
        """(the rows of scale S, D or None), made and kept on first use."""
        coeffs = scale * self._coeffs
        dense = _apply_stencil(np.eye(self.n), coeffs) if self._dense else None
        self._operators[scale] = coeffs, dense
        return coeffs, dense

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

    # facet matching: the nearest facet normal of every segment, from one
    # (n, K) angle matrix, must agree to the angle tolerance
    fn = anisotropy.normals
    ang = np.abs(np.arctan2(normals[:, 1:] * fn[:, 0] - normals[:, :1] * fn[:, 1],
                            normals @ fn.T))
    facet_index, gap = ang.argmin(axis=1), ang.min(axis=1)
    unmatched = np.flatnonzero(gap > _NORMAL_MATCH_TOL)
    if len(unmatched):
        i = unmatched[0]
        raise NotAdmissible(
            f"segment {i} normal matches no Wulff facet "
            f"(best angular gap {gap[i]:.3e} rad)")

    # adjacency: consecutive facets (cyclically if closed, the closing corner
    # first) step by +-1 mod K; the first offending pair decides the error
    K = anisotropy.K
    seg = np.arange(n) if closed else np.arange(1, n)
    prev, cur = facet_index[seg - 1], facet_index[seg]
    step = (cur - prev) % K
    bad = np.flatnonzero((step != 1) & (step != K - 1))
    if len(bad):
        i, a, b = seg[bad[0]], prev[bad[0]], cur[bad[0]]
        pair = f"segments {(i - 1) % n} and {i}"
        if a == b:
            raise DegenerateSegment(f"{pair} lie on the same facet; merge them")
        raise NotAdmissible(f"{pair} use non-adjacent facets {a}, {b}")

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

# the most segments at which one row takes the dense product x @ D: a row
# took 1.1 / 1.3 / 3.6 us at n = 20 / 48 / 128, the shifted views 4.7 us at
# n = 129, and the two cross between n = 144 and 160 (timeit minimum, 2-core
# x86-64, OpenBLAS)
_DENSE_MAX_N = 128


def _apply_stencil(x, coeffs) -> np.ndarray:
    """(S x)_i = x_{i-1} csc_i + x_i cot_sum_i + x_{i+1} csc_{i+1}.

    ``coeffs`` holds the rows csc[:-1], cot_sum, csc[1:] or a multiple.  x,
    of shape (n,) or (m, n) row by row, is padded with one wrapped entry on
    each side of its last axis, and the three shifted views times their
    rows are added left to right: each entry has the row formula's bits."""
    xp = np.concatenate((x[..., -1:], x, x[..., :1]), axis=-1)
    out = xp[..., :-2] * coeffs[0]
    out += xp[..., 1:-1] * coeffs[1]
    out += xp[..., 2:] * coeffs[2]
    return out


def corner_stencil(x, csc, cot_sum) -> np.ndarray:
    """S x for the corner coefficients ``csc`` (n+1,) and ``cot_sum`` (n,),
    with cyclic neighbors, by the row formula (see the module docstring)."""
    return _apply_stencil(np.asarray(x, dtype=float),
                          (csc[:-1], cot_sum, csc[1:]))


def lengths_from_heights(curve: AdmissibleCurve, h) -> np.ndarray:
    """Segment lengths L - S h of the parallel curve at height vector h.

    Affine in h.  Half-line entries stay +inf; bounded entries may come out
    nonpositive — callers decide whether that is a collapse or an error.
    """
    h = curve.check_heights(h)
    return curve.lengths - curve.stencil(h)


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
