"""Anisotropic elastic energy and its first variation.

For a curve with segment lengths L_i, facet data H^1(F_i), phi_dual(nu_i) and
transition numbers c_i, the energy is

    F_alpha = sum_i phi_dual(nu_i) * ( len_i + alpha * c_i^2 H^1(F_i)^2 / L_i )

where len_i is the full segment length for bounded segments and the windowed
(disc-clipped) length for half-lines; half-lines carry no curvature term
(c = 0).  Heights enter every quantity affinely through the length
transformation, so energies along a flow are evaluated without materializing
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

def _halfline_chord(curve: AdmissibleCurve, which: int, radius: float) -> float:
    """Length of the reference half-line inside the window disc."""
    if which == 0:
        b, d = curve.vertices[0], curve.rays[0]
    else:
        b, d = curve.vertices[-1], curve.rays[1]
    disc = radius * radius - float(b @ b) + float(b @ d) ** 2
    if radius * radius <= float(b @ b) or disc <= 0.0:
        raise WindowTooSmall("half-line junction lies outside the window disc")
    return float(-(b @ d) + np.sqrt(disc))


def _line_chord(curve: AdmissibleCurve, which: int, radius: float) -> float:
    """Full chord of the half-line's supporting line across the disc."""
    b, d = ((curve.vertices[0], curve.rays[0]) if which == 0
            else (curve.vertices[-1], curve.rays[1]))
    dist2 = float((d[0] * b[1] - d[1] * b[0]) ** 2)
    return 2.0 * np.sqrt(max(radius * radius - dist2, 0.0))


def windowed_lengths(curve: AdmissibleCurve, p: FlowParams, h=None,
                     lengths=None) -> np.ndarray:
    """Per-segment lengths entering the windowed energy.

    Bounded segments: the (possibly height-shifted) true length, or
    ``lengths`` when given.  Half-lines: the clip of the segment to the
    window disc, evaluated affinely in the interior neighbor's height.
    Raises WindowTooSmall when the window fails to contain the bounded part
    of the curve or a clip degenerates.
    """
    if lengths is None:
        lengths = curve.lengths if h is None else lengths_from_heights(curve, h)
    if curve.closed:
        return lengths
    lengths = np.array(lengths)  # the half-line entries are replaced below

    if p.window_radius is None:
        raise WindowTooSmall("window_radius is required for unbounded curves")
    R = float(p.window_radius)
    if np.any(np.linalg.norm(curve.vertices, axis=1) >= R):
        raise WindowTooSmall("window disc must strictly contain every junction")

    # a half-line's clip moves with its row of S h, as a bounded length does
    shift = (np.zeros(curve.n) if h is None else
             corner_stencil(np.asarray(h, dtype=float), curve.csc, curve.cot_sum))
    for which, i in ((0, 0), (1, curve.n - 1)):
        chord = _halfline_chord(curve, which, R) - shift[i]
        cap = _line_chord(curve, which, R)
        if not (0.0 < chord <= cap * (1.0 + 1e-12)):
            raise WindowTooSmall(
                "half-line clip left the window (junction drifted too far)")
        lengths[i] = chord
    return lengths


# ------------------------------------------------------------------- energy

def elastic_energy(curve: AdmissibleCurve, p: FlowParams, h=None,
                   lengths=None) -> float:
    """Windowed anisotropic elastic energy, optionally at height vector h
    (``lengths``, if given, is ``lengths_from_heights(curve, h)``)."""
    lens = windowed_lengths(curve, p, h, lengths)
    if np.any(lens[curve.bounded] <= 0.0):
        raise ZeroLengthSegment("nonpositive segment length in energy evaluation")
    length_part = float(np.sum(curve.supports * lens))
    # c = 0 on half-lines, whose windowed lengths are positive and finite
    return length_part + p.alpha * float(np.sum(curve.c2_delta / lens))


def first_variation(curve: AdmissibleCurve, p: FlowParams, h=None,
                    lengths=None) -> np.ndarray:
    """Gradient g of the energy w.r.t. normal displacement, per segment.

        g = c H^1(F) / L + (alpha / L) * S(c^2 d / L^2),

    with S the corner stencil of ``curve`` and d_j = H^1(F_j)^2
    phi_dual(nu_j); zero on half-lines.  The flow moves each segment with
    normal velocity h_i' = -phi_dual(nu_i) * g_i.
    """
    if lengths is None:
        lengths = curve.lengths if h is None else lengths_from_heights(curve, h)
    L = np.asarray(lengths, dtype=float)
    bmask = curve.bounded
    if np.any(L[bmask] <= 0.0):
        raise ZeroLengthSegment("nonpositive segment length in first variation")

    # c^2 d / L^2 is zero where c = 0, half-lines (L = inf) included
    g = curve.c_hf / L + (p.alpha / L) * corner_stencil(
        curve.c2_delta / L**2, curve.csc, curve.cot_sum)
    return np.where(bmask, g, 0.0)


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

    g = first_variation(stationary, p)
    res = float(np.max(np.abs(g * np.where(stationary.bounded,
                                           stationary.lengths, 0.0))))
    if res > tol:
        raise NotStationary(f"stationarity residual {res:.3e} exceeds {tol:.1e}")

    mask = stationary.bounded & (stationary.c2_delta > 0.0)
    L = stationary.lengths[mask]
    Lbar = other.lengths[mask]
    terms = stationary.c2_delta[mask] * (Lbar - L) ** 2 / (L**2 * Lbar)
    return p.alpha * float(np.sum(terms))
