"""Crystalline anisotropies given by convex Wulff polygons.

The anisotropy is encoded by its Wulff shape W, a strictly convex polygon
containing the origin in its interior.  Facet j runs from vertex j to vertex
j+1 in clockwise order; its outward unit normal nu_j and support value
phi_dual(nu_j) = <v_j, nu_j> are precomputed.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFacet, IndexOutOfRange, NonConvexWulff, OriginOutside

__all__ = [
    "Anisotropy",
    "build_wulff",
    "phi",
    "phi_dual",
    "facets_adjacent",
    "square_anisotropy",
    "is_square_anisotropy",
    "regular_polygon_anisotropy",
]

# right-hand (clockwise) traversal: nu = rot90_ccw(tau) points outward
def rot90_ccw(v):
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def bbox_diagonal(points) -> float:
    """Diagonal of the axis-aligned bounding box of (m, 2) points; 0 below
    two points."""
    if len(points) < 2:
        return 0.0
    lo, hi = points.min(axis=0), points.max(axis=0)
    return float(np.linalg.norm(hi - lo))


class Anisotropy:
    """Immutable view of a validated Wulff polygon.

    Attributes
    ----------
    vertices : (K, 2) float array, clockwise order
    normals : (K, 2) outward unit facet normals, rotating clockwise
    facet_lengths : (K,) facet lengths H^1(F_j)
    supports : (K,) support values phi_dual(nu_j) > 0
    delta : (K,) the weights H^1(F_j)^2 * phi_dual(nu_j)
    """

    def __init__(self, vertices: np.ndarray):
        v = np.asarray(vertices, dtype=float)
        self.vertices = v
        self.K = len(v)
        edges = np.roll(v, -1, axis=0) - v
        self.facet_lengths = np.linalg.norm(edges, axis=1)
        tangents = edges / self.facet_lengths[:, None]
        self.tangents = tangents
        self.normals = rot90_ccw(tangents)
        self.supports = np.einsum("ij,ij->i", v, self.normals)
        self.delta = self.facet_lengths**2 * self.supports

    def __repr__(self):
        return f"Anisotropy(K={self.K})"


def build_wulff(vertices) -> Anisotropy:
    """Validate Wulff vertices and construct the anisotropy.

    Input vertices may be in either rotational order; they are normalized to
    clockwise.  Raises NonConvexWulff / DegenerateFacet / OriginOutside on
    invalid input.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise NonConvexWulff(f"expected an (n, 2) vertex array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonConvexWulff("vertex coordinates must be finite")

    # drop consecutive duplicates (cyclically), tolerance relative to diameter
    diam = bbox_diagonal(v)
    if diam <= 0.0:
        raise NonConvexWulff("all vertices coincide")
    tol = 1e-12 * diam
    keep = np.linalg.norm(v - np.roll(v, 1, axis=0), axis=1) > tol
    v = v[keep]
    if len(v) < 3:
        raise NonConvexWulff("need at least 3 distinct vertices")

    # orientation: shoelace area > 0 means counterclockwise -> flip
    x, y = v[:, 0], v[:, 1]
    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if area2 > 0.0:
        v = v[::-1].copy()

    edges = np.roll(v, -1, axis=0) - v
    cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
    # clockwise strictly convex polygon: every consecutive cross product < 0
    flat = np.abs(cross) <= 1e-12 * diam * diam
    if np.any(flat):
        raise DegenerateFacet("consecutive facets are collinear (merge them first)")
    if np.any(cross > 0.0):
        raise NonConvexWulff("vertices are not in convex position")

    a = Anisotropy(v)
    if np.any(a.supports <= tol):
        raise OriginOutside("origin must lie strictly inside the Wulff shape")
    return a


def phi(a: Anisotropy, x) -> float | np.ndarray:
    """Gauge of x w.r.t. the Wulff shape (positively 1-homogeneous).

    W is the intersection of the half-planes <y, nu_j> <= phi_dual(nu_j), so
    phi(x) = max_j <x, nu_j> / phi_dual(nu_j), attained at the facet whose
    normal cone contains x.  Accepts a single point of shape (2,) or a batch
    of shape (m, 2).
    """
    x = np.asarray(x, dtype=float)
    g = np.max((x @ a.normals.T) / a.supports, axis=-1)
    return float(g) if x.ndim == 1 else g


def phi_dual(a: Anisotropy, x) -> float | np.ndarray:
    """Support function of the Wulff shape: max over vertices of <x, v>."""
    x = np.asarray(x, dtype=float)
    return np.max(x @ a.vertices.T, axis=-1)


def facets_adjacent(a: Anisotropy, j: int, k: int) -> bool:
    """Whether facets j and k share a Wulff vertex (cyclic neighbors)."""
    K = a.K
    if not (0 <= j < K) or not (0 <= k < K):
        raise IndexOutOfRange(f"facet index out of range 0..{K - 1}: ({j}, {k})")
    return (j - k) % K == 1 or (k - j) % K == 1


def square_anisotropy() -> Anisotropy:
    """The square Wulff shape [-1, 1]^2 (all supports 1, facet length 2)."""
    return build_wulff([(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)])


def is_square_anisotropy(a: Anisotropy) -> bool:
    """Whether ``a`` is the square [-1, 1]^2 (up to facet order)."""
    return (a.K == 4
            and np.allclose(np.abs(a.normals), np.eye(2)[[0, 1, 0, 1]], atol=1e-9)
            and np.allclose(a.supports, 1.0, atol=1e-9))


def regular_polygon_anisotropy(n: int, circumradius: float = 1.0) -> Anisotropy:
    """Regular n-gon Wulff shape centered at the origin with a horizontal top
    facet (one facet normal is e2)."""
    if n < 3:
        raise NonConvexWulff("regular polygon needs n >= 3")
    if circumradius <= 0.0:
        raise NonConvexWulff("circumradius must be positive")
    k = np.arange(n)
    ang = np.pi / 2 + np.pi / n - 2 * np.pi * k / n  # clockwise
    v = circumradius * np.column_stack([np.cos(ang), np.sin(ang)])
    return build_wulff(v)
