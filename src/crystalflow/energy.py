"""Anisotropic elastic energy and its first variation.

For a curve with segment lengths L_i, facet data H^1(F_i), phi_dual(nu_i) and
transition numbers c_i, the energy is

    F_alpha = sum_i phi_dual(nu_i) * ( len_i + alpha * c_i^2 H^1(F_i)^2 / L_i )

where len_i is the full segment length for bounded segments and the windowed
(disc-clipped) length for half-lines; half-lines carry no curvature term
(c = 0).  Heights enter every quantity affinely through the length
transformation L_w - S h, L_w the lengths with each half-line's clip at
h = 0, so energies along a flow are evaluated without materializing
intermediate curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anisotropy import Anisotropy, facets_adjacent
from .curve import (
    AdmissibleCurve,
    corner_data,
    corner_stencil,
    lengths_from_heights,
    measure_heights,
)
from .errors import (
    InvalidTriple,
    NotParallel,
    NotStationary,
    ParamOutOfRange,
    WindowTooSmall,
    ZeroLengthSegment,
)

__all__ = [
    "FlowParams",
    "elastic_energy",
    "first_variation",
    "facet_identity_residual",
    "stationarity_residual",
    "stationary_energy_gap",
    "windowed_lengths",
]


@dataclass(frozen=True)
class FlowParams:
    """Elastic flow parameters: bending weight alpha and, for unbounded
    curves, the radius of the origin-centered observation disc."""

    alpha: float
    window_radius: float | None = None

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ParamOutOfRange(f"alpha must be > 0, got {self.alpha}")
        if self.window_radius is not None and not (self.window_radius > 0.0):
            raise ParamOutOfRange("window_radius must be > 0 when given")


# ------------------------------------------------------------------- window

def _window_clips(curve: AdmissibleCurve, p: FlowParams):
    """(L_w, caps): the reference lengths of the windowed energy and the
    largest admissible clip of each half-line, computed on each call.

    L_w is ``curve.lengths`` with each half-line's entry replaced by its clip
    at h = 0, the length from its junction b along its ray d to the circle
    of ``p.window_radius``, and a half-line's cap is the full chord of its
    line across the disc.  A closed curve has L_w = ``curve.lengths`` and no
    caps.  A window that fails to contain the junctions raises
    WindowTooSmall."""
    if curve.closed:
        return curve.lengths, None
    if p.window_radius is None:
        raise WindowTooSmall("window_radius is required for unbounded curves")
    radius = float(p.window_radius)
    if np.any(np.linalg.norm(curve.vertices, axis=1) >= radius):
        raise WindowTooSmall("window disc must strictly contain every junction")
    r2 = radius * radius
    ref, caps = np.array(curve.lengths), []
    for i, b, d in ((0, curve.vertices[0], curve.rays[0]),
                    (-1, curve.vertices[-1], curve.rays[1])):
        ref[i] = float(-(b @ d) + np.sqrt(r2 - float(b @ b) + float(b @ d) ** 2))
        dist2 = float((d[0] * b[1] - d[1] * b[0]) ** 2)
        caps.append(2.0 * np.sqrt(max(r2 - dist2, 0.0)) * (1.0 + 1e-12))
    return ref, np.array(caps)


def windowed_lengths(curve: AdmissibleCurve, p: FlowParams, h=None,
                     lengths=None) -> np.ndarray:
    """Per-segment lengths entering the windowed energy: L_w - S h, or
    ``lengths`` when given, windowed lengths of one row or of each row of an
    (m, n) block.

    L_w is the curve's lengths with each half-line's entry its clip to the
    window disc (``_window_clips``).  A half-line's junction slides along its
    own line, so its clip moves by its row of S h like every other length.
    Raises WindowTooSmall when the disc fails to hold the junctions at h = 0
    or a half-line entry of any row lies outside (0, cap], as a true length's
    +inf does; the junctions at a row's heights are not checked.
    """
    ref, caps = _window_clips(curve, p)
    if lengths is None:
        lengths = ref if h is None else ref - curve.stencil(curve.check_heights(h))
    if caps is not None:
        ends = lengths[..., [0, -1]]
        if not np.all((0.0 < ends) & (ends <= caps)):  # fails on NaN
            raise WindowTooSmall(
                "half-line clip left the window (junction drifted too far)")
    return lengths


# ------------------------------------------------------------------- energy

def elastic_energy(curve: AdmissibleCurve, p: FlowParams, h=None,
                   lengths=None):
    """Windowed anisotropic elastic energy, optionally at height vector h
    or of the given windowed ``lengths`` (see ``windowed_lengths``); the (m,)
    energies of the rows of an (m, n) block of lengths."""
    lens = windowed_lengths(curve, p, h, lengths)
    # half-line clips are positive, so only bounded lengths can trip this
    if lens.min() <= 0.0:
        raise ZeroLengthSegment("nonpositive segment length in energy evaluation")
    # each row is summed as one contiguous 1-D array: the bits of a 1-D call
    length_part = (curve.supports * lens).sum(axis=-1)
    # c = 0 on half-lines, whose windowed lengths are positive and finite
    energy = length_part + p.alpha * (curve.c2_delta / lens).sum(axis=-1)
    return float(energy) if lens.ndim == 1 else energy


def first_variation(curve: AdmissibleCurve, p: FlowParams, h=None,
                    lengths=None, out=None) -> np.ndarray:
    """Gradient g of the energy w.r.t. normal displacement, per segment.

        g = (alpha S(c^2 d / L^2) + c H^1(F)) / L,

    with S the corner stencil of ``curve`` (alpha S from the operand the
    curve builds once per alpha) and d_j = H^1(F_j)^2 phi_dual(nu_j), written
    to ``out`` when given; h_i' = -phi_dual(nu_i) * g_i moves the segments.
    ``lengths`` are windowed (``windowed_lengths``); the true ones that h
    gives (+inf on half-lines, where c = 0 and g is zeroed) give the same bits.
    """
    if lengths is None:
        lengths = curve.lengths if h is None else lengths_from_heights(curve, h)
    if np.minimum.reduce(lengths) <= 0.0:
        raise ZeroLengthSegment("nonpositive segment length in first variation")

    # c^2 d / L^2 is zero where c = 0, half-lines included; np.square
    # without dtype= skips its slow casting path, and a list squares as well
    q = curve.c2_delta / np.square(lengths)
    g = curve.stencil(q, p.alpha)
    g += curve.c_hf
    g = np.divide(g, lengths, out=g if out is None else out)
    if not curve.closed:
        g[0] = g[-1] = 0.0  # the half-lines
    return g


# --------------------------------------------------------------- identities

def facet_identity_residual(a: Anisotropy, f_prev: int, f_mid: int,
                            f_next: int) -> float:
    """Residual of the support/angle identity for one admissible triple:

        phi_dual(nu_prev)/sin th1 + phi_dual(nu_mid)(cot th1 + cot th2)
        + phi_dual(nu_next)/sin th2 + c * H^1(F_mid)  =  0,

    i.e. the middle row of S applied to the supports, plus c H^1(F_mid).
    """
    if not facets_adjacent(a, f_prev, f_mid) or not facets_adjacent(a, f_mid, f_next):
        raise InvalidTriple(
            f"facets ({f_prev}, {f_mid}, {f_next}) are not consecutive-adjacent")
    f = [f_prev, f_mid, f_next]
    _, _, trans, csc, cot_sum = corner_data(a.normals[f], closed=False)
    r = corner_stencil(a.supports[f], csc, cot_sum)[1] + trans[1] * a.facet_lengths[f_mid]
    return abs(float(r))


def stationarity_residual(curve: AdmissibleCurve, p: FlowParams) -> float:
    """max_i |c_i H^1(F_i) + alpha * (neighbor curvature terms)| over bounded
    segments, i.e. the per-segment defect of the stationarity system."""
    g, b = first_variation(curve, p), curve.bounded
    return float(np.max(np.abs(g[b] * curve.lengths[b]), initial=0.0))


def stationary_energy_gap(stationary: AdmissibleCurve, other: AdmissibleCurve,
                          p: FlowParams, tol: float = 1e-8) -> float:
    """Exact energy excess of a parallel curve over a stationary one:

        gap = alpha * sum_i c_i^2 d_i (Lbar_i - L_i)^2 / (L_i^2 Lbar_i).

    Requires ``stationary`` to satisfy the stationarity system to ``tol``
    and ``other`` to be parallel to it (same lines family, half-lines
    coinciding)."""
    h = measure_heights(stationary, other)  # raises NotParallel on mismatch
    if not stationary.closed:
        scale = max(stationary.total_bounded_length, 1.0)
        if abs(h[0]) > 1e-9 * scale or abs(h[-1]) > 1e-9 * scale:
            raise NotParallel("half-lines of a parallel pair must coincide")

    res = stationarity_residual(stationary, p)
    if not (res <= tol):  # fails on a NaN tol or residual
        raise NotStationary(f"stationarity residual {res:.3e} exceeds {tol:.1e}")

    mask = stationary.bounded & (stationary.c2_delta > 0.0)
    L = stationary.lengths[mask]
    Lbar = other.lengths[mask]
    terms = stationary.c2_delta[mask] * (Lbar - L) ** 2 / (L**2 * Lbar)
    return p.alpha * float(np.sum(terms))
