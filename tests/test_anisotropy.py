import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalflow import (
    DegenerateFacet,
    NonConvexWulff,
    OriginOutside,
    build_wulff,
    facets_adjacent,
    phi,
    phi_dual,
    regular_polygon_anisotropy,
    square_anisotropy,
)
from conftest import PENTAGON


# ---------------------------------------------------------------- construction

def test_square_layout(a4):
    assert a4.K == 4
    np.testing.assert_allclose(a4.supports, 1.0)
    np.testing.assert_allclose(a4.facet_lengths, 2.0)
    np.testing.assert_allclose(a4.delta, 4.0)  # support * facet_length^2
    # every facet normal is a signed coordinate axis
    assert np.allclose(np.abs(a4.normals), np.eye(2)[[0, 1, 0, 1]].reshape(4, 2)) \
        or np.allclose(np.sort(np.abs(a4.normals), axis=0),
                       [[0, 0], [0, 0], [1, 1], [1, 1]])
    # tangent is the facet normal rotated clockwise by 90 degrees
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(a4.tangents, a4.normals @ rot.T, atol=1e-15)


def test_regular_polygon_metrics():
    for n in (3, 5, 6, 9):
        a = regular_polygon_anisotropy(n, circumradius=1.0)
        assert a.K == n
        np.testing.assert_allclose(a.supports, np.cos(np.pi / n), rtol=1e-14)
        np.testing.assert_allclose(a.facet_lengths, 2 * np.sin(np.pi / n),
                                   rtol=1e-13)
        # vertices really sit on the unit circle
        np.testing.assert_allclose(np.linalg.norm(a.vertices, axis=1), 1.0,
                                   rtol=1e-14)


def test_build_wulff_rejects_nonconvex():
    verts = [(1, 1), (0.0, 0.2), (-1, 1), (-1, -1), (1, -1)]  # dent at top
    with pytest.raises(NonConvexWulff):
        build_wulff(verts)


def test_build_wulff_rejects_origin_outside():
    verts = [(-0.5, 1), (-0.5, -1), (-2, -1), (-2, 1)]
    with pytest.raises(OriginOutside):
        build_wulff(verts)


def test_build_wulff_dedupes_repeated_vertex():
    verts = [(1, 1), (1, 1), (-1, 1), (-1, -1), (1, -1)]
    assert build_wulff(verts).K == 4


def test_build_wulff_rejects_collinear_facets():
    verts = [(1, 1), (0, 1), (-1, 1), (-1, -1), (1, -1)]
    with pytest.raises(DegenerateFacet):
        build_wulff(verts)


def test_facets_adjacent_square(a4):
    for j in range(4):
        assert facets_adjacent(a4, j, (j + 1) % 4)
        assert facets_adjacent(a4, (j + 1) % 4, j)
        assert not facets_adjacent(a4, j, (j + 2) % 4)
        assert not facets_adjacent(a4, j, j)


# ---------------------------------------------------------------- gauge values

def test_gauge_frozen_values(a4):
    # unit ball of phi is the square [-1,1]^2
    assert phi(a4, (2.0, 2.0)) == pytest.approx(2.0, abs=1e-14)
    assert phi(a4, (1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert phi(a4, (0.3, -1.0)) == pytest.approx(1.0, abs=1e-14)
    # dual gauge is the support function: max over Wulff vertices
    assert phi_dual(a4, (1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)
    assert phi_dual(a4, (1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert phi_dual(a4, (-0.5, 0.25)) == pytest.approx(0.75, abs=1e-14)


def _ray_exit(a, x):
    """Oracle for phi(x): the t > 0 at which x / t meets the Wulff boundary.
    Solves s x = v + u (w - v) on every edge [v, w] and returns 1 / s for
    each hit with s > 0 and u in [0, 1] (two hits when x / t is a vertex).
    An edge parallel to x is skipped: the ray can meet it only at its
    endpoints, which the neighboring edges report."""
    verts = np.asarray(a.vertices)
    hits = []
    for v, w in zip(verts, np.roll(verts, -1, axis=0)):
        m = np.column_stack([x, v - w])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        s, u = np.linalg.solve(m, v)
        if s > 0.0 and -1e-12 <= u <= 1.0 + 1e-12:
            hits.append(1.0 / s)
    return hits


def test_gauge_against_ray_oracle(a6):
    rng = np.random.default_rng(3)
    verts = np.asarray(a6.vertices)
    nxt = np.roll(verts, -1, axis=0)
    for _ in range(50):
        x = rng.normal(size=2)
        if np.linalg.norm(x) < 1e-3:
            continue
        hits = _ray_exit(a6, x)
        assert hits
        for want in hits:
            assert phi(a6, x) == pytest.approx(want, rel=1e-12)
        # support function oracle: max over sampled boundary points
        ts = np.linspace(0.0, 1.0, 200)[:, None]
        bdry = np.concatenate([v + ts * (w - v) for v, w in zip(verts, nxt)])
        lower = float(np.max(bdry @ x))
        assert phi_dual(a6, x) >= lower - 1e-9
        assert phi_dual(a6, x) == pytest.approx(
            float(np.max(verts @ x)), rel=1e-12)


def test_gauge_vectorized_matches_scalar(a4, a6):
    xs = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, -1.0], [0.0, 0.0],
                   [-0.7, -2.2], [4.0, -0.1]])
    for a in (a4, a6, build_wulff(PENTAGON)):
        vec = phi(a, xs)
        assert vec.shape == (len(xs),)
        np.testing.assert_allclose(vec, [phi(a, x) for x in xs], rtol=1e-14)
        assert vec[3] == 0.0 and phi(a, xs[3]) == 0.0
        for x, g in zip(xs, vec):
            if x.any():
                assert g == pytest.approx(_ray_exit(a, x)[0], rel=1e-12)
        vec_d = phi_dual(a, xs)
        np.testing.assert_allclose(vec_d, [phi_dual(a, x) for x in xs],
                                   rtol=1e-14)


finite_coords = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(x=st.tuples(finite_coords, finite_coords),
       t=st.floats(min_value=1e-3, max_value=1e3))
def test_phi_positively_homogeneous(x, t):
    a = square_anisotropy()
    x = np.asarray(x)
    assert phi(a, t * x) == pytest.approx(t * phi(a, x), rel=1e-10, abs=1e-12)
    assert phi_dual(a, t * x) == pytest.approx(t * phi_dual(a, x),
                                               rel=1e-10, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(x=st.tuples(finite_coords, finite_coords),
       y=st.tuples(finite_coords, finite_coords))
def test_phi_subadditive_and_dual_pairing(x, y):
    a = regular_polygon_anisotropy(5)
    x, y = np.asarray(x), np.asarray(y)
    assert phi(a, x + y) <= phi(a, x) + phi(a, y) + 1e-10
    # Fenchel pairing (signed: an odd polygon's gauge is not symmetric)
    assert float(x @ y) <= phi(a, x) * phi_dual(a, y) + 1e-9
