import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalflow import (
    BadTopology,
    DegenerateSegment,
    DimensionMismatch,
    IndexOutOfRange,
    NotAdmissible,
    NotParallel,
    SegmentCollapse,
    StationaryClass,
    build_curve,
    crystalline_curvature,
    curve_index,
    is_convex,
    lengths_from_heights,
    make_stationary_square_aniso,
    measure_heights,
    reconstruct_parallel,
    regular_polygon_anisotropy,
    square_anisotropy,
    transition_number,
)
from crystalflow.curve import corner_stencil

Q = 2 * np.sqrt(2.0)


def pinch_vertices(a4):
    """Closed 12-gon with zero net turning and one short connector."""
    facets = [3, 0, 1, 2, 1, 0, 3, 0, 1, 2, 1, 0]
    lens = [2 * Q, Q, Q, 0.3, Q, Q, 2 * Q, Q, Q, 4 * Q - 0.3, Q, Q]
    taus = a4.tangents[facets]
    pts = np.concatenate([[np.zeros(2)],
                          np.cumsum(taus * np.asarray(lens)[:, None], axis=0)])
    return pts[:-1], facets


# ----------------------------------------------------------------- build/validate

def test_rectangle_combinatorics(a4, rect):
    assert rect.closed
    assert rect.n == 4
    # convex clockwise corners: interior angle 3*pi/2 in the turning convention
    np.testing.assert_allclose(rect.thetas[:4], 1.5 * np.pi, atol=1e-12)
    assert np.all(rect.steps == 1)
    assert np.all(rect.transitions == 1)
    assert is_convex(rect)
    assert curve_index(rect) == 1
    np.testing.assert_allclose(sorted(rect.lengths), [2.4, 2.4, 3.6, 3.6])


def test_staircase_transitions(a4):
    # alternating up/right steps: every transition number is zero
    verts = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
    c = build_curve(a4, verts, "unbounded",
                    ray_directions=[(0.0, -1.0), (0.0, 1.0)])
    assert np.all(c.transitions == 0)
    assert not np.all(c.steps[1:c.n] == c.steps[1])  # steps alternate
    for i in range(c.n):
        assert transition_number(c, i) == 0


def test_segment_off_facet_rejected(a4):
    # a 45-degree edge matches no facet of the square Wulff shape
    with pytest.raises(NotAdmissible):
        build_curve(a4, [(0, 0), (1, 1), (0, 2), (-1, 1)], "closed")


def test_same_facet_neighbors_rejected(a4):
    with pytest.raises(DegenerateSegment):
        build_curve(a4, [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)], "closed")


def test_nonadjacent_facets_rejected(a6):
    # hexagon Wulff: jumping two facets ahead at one corner is inadmissible
    v = np.asarray(a6.vertices)
    verts = [v[0], v[1], v[2], v[4]]  # skips facet 3's corner pair
    with pytest.raises((NotAdmissible, DegenerateSegment)):
        build_curve(a6, 2.0 * np.asarray(verts), "closed")


def test_too_few_vertices(a4):
    with pytest.raises(NotAdmissible):
        build_curve(a4, [(0, 0), (1, 0)], "closed")


def test_bad_vertex_shape(a4):
    with pytest.raises(DimensionMismatch):
        build_curve(a4, [1.0, 2.0, 3.0], "closed")


def test_unbounded_needs_rays(a4):
    with pytest.raises(BadTopology):
        build_curve(a4, [(0, 0), (1, 0)], "unbounded")
    with pytest.raises(BadTopology):
        build_curve(a4, [(0, 0), (1, 0), (1, 1), (0, 1)], "closed",
                    ray_directions=[(0, 1), (0, 1)])


def test_unbounded_masks_and_supports(a4):
    c = build_curve(a4, [(0, 0), (2, 0)], "unbounded",
                    ray_directions=[(0.0, 1.0), (0.0, 1.0)])
    assert not c.closed
    assert c.n == 3
    np.testing.assert_array_equal(c.bounded, [False, True, False])
    assert np.isinf(c.lengths[0]) and np.isinf(c.lengths[2])
    assert c.lengths[1] == pytest.approx(2.0)
    np.testing.assert_allclose(c.supports, 1.0)


# ----------------------------------------------------------------- orientation

def test_ccw_input_is_reversed_to_clockwise(a4):
    cw = build_curve(a4, [(-2, 2), (2, 2), (2, -2), (-2, -2)], "closed")
    ccw = build_curve(a4, [(-2, 2), (-2, -2), (2, -2), (2, 2)], "closed")
    assert curve_index(cw) == 1
    assert curve_index(ccw) == 1
    np.testing.assert_array_equal(cw.facet_index, ccw.facet_index)


def test_zero_turning_orientation_preserved(a4):
    verts, facets = pinch_vertices(a4)
    c = build_curve(a4, verts, "closed")
    assert curve_index(c) == 0
    np.testing.assert_array_equal(c.facet_index, facets)
    # the reversed traversal is a different admissible curve and stays as given
    rev = build_curve(a4, np.concatenate([verts[:1], verts[1:][::-1]]), "closed")
    assert curve_index(rev) == 0
    assert rev.facet_index[0] != c.facet_index[0]


def test_zero_turning_reconstruction_is_stable(a4):
    # shoelace area of this curve sits near zero; small parallel offsets must
    # not flip the traversal and break the height chart
    verts, _ = pinch_vertices(a4)
    c = build_curve(a4, verts, "closed")
    rng = np.random.default_rng(11)
    for _ in range(25):
        h = rng.uniform(-0.05, 0.05, c.n)
        r = reconstruct_parallel(c, h)
        np.testing.assert_array_equal(r.facet_index, c.facet_index)


# ----------------------------------------------------------------- curvature/index

def test_crystalline_curvature_values(a4):
    w = build_curve(a4, 2.0 * np.asarray(a4.vertices), "closed")
    for i in range(4):
        # kappa = c * H1(facet) / length = 1 * 2 / 4
        assert crystalline_curvature(w, i) == pytest.approx(0.5)
    with pytest.raises(IndexOutOfRange):
        crystalline_curvature(w, 4)
    with pytest.raises(IndexOutOfRange):
        transition_number(w, -1)


def test_single_notch_zeroes_curvature(a4, lshape):
    # one concave corner cannot make a c = -1 segment; it only interrupts
    # the convex run, so the two segments flanking the notch get c = 0
    c = lshape
    kappas = np.array([crystalline_curvature(c, i) for i in range(c.n)])
    assert np.count_nonzero(kappas == 0.0) == 2
    assert np.all(kappas >= 0.0)
    assert not is_convex(c)
    assert curve_index(c) == 1


def test_double_concave_run_gives_negative_curvature(a4):
    verts, _ = pinch_vertices(a4)
    c = build_curve(a4, verts, "closed")
    kappas = np.array([crystalline_curvature(c, i) for i in range(c.n)])
    assert kappas.min() < 0 and kappas.max() > 0
    assert not is_convex(c)


def test_doubly_traversed_square_index(a4):
    v = 2.0 * np.asarray(a4.vertices)
    c = build_curve(a4, np.concatenate([v, v]), "closed")
    assert curve_index(c) == 2
    assert c.n == 8


# ----------------------------------------------------------------- heights

def test_lengths_from_heights_matches_reconstruction(a4, lshape):
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = rng.uniform(-0.3, 0.3, lshape.n)
        predicted = lengths_from_heights(lshape, h)
        rebuilt = reconstruct_parallel(lshape, h)
        np.testing.assert_allclose(predicted, rebuilt.lengths,
                                   rtol=1e-12, atol=1e-12)


def test_measure_heights_roundtrip(a4, rect):
    h = np.array([0.2, -0.1, 0.05, 0.3])
    other = reconstruct_parallel(rect, h)
    got = measure_heights(rect, other)
    assert np.linalg.norm(got - h) < 1e-13


def test_measure_heights_rejects_mismatch(a4, rect, wulff2):
    with pytest.raises(NotParallel):
        measure_heights(rect, build_curve(
            a4, [(0, 0), (4, 0), (4, 2), (2, 2), (2, 6), (0, 6)], "closed"))
    # same combinatorics but translated: heights absorb the shift
    shifted = build_curve(a4, np.asarray(rect.vertices) + [0.5, -0.25], "closed")
    h = measure_heights(rect, shifted)
    back = reconstruct_parallel(rect, h)
    assert np.max(np.abs(np.asarray(back.vertices)
                         - np.asarray(shifted.vertices))) < 1e-12


def test_reconstruct_collapse_raises(a4, rect):
    # pushing both long sides inward past the half-width kills the short sides
    with pytest.raises(SegmentCollapse):
        reconstruct_parallel(rect, np.array([-1.3, 0.0, -1.3, 0.0]))


def test_heights_shape_checked(a4, rect):
    with pytest.raises(DimensionMismatch):
        lengths_from_heights(rect, np.zeros(5))


def test_unbounded_halfline_heights_pinned(a4):
    c = build_curve(a4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)],
                    "unbounded", ray_directions=[(0.0, -1.0), (0.0, 1.0)])
    h = np.zeros(c.n)
    h[0] = 0.1  # half-lines carry no height degree of freedom
    with pytest.raises((DimensionMismatch, NotParallel, ValueError)):
        reconstruct_parallel(c, h)


@settings(max_examples=60, deadline=None)
@given(h=st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=4,
                  max_size=4))
def test_parallel_roundtrip_property(h):
    a4 = square_anisotropy()
    rect = build_curve(a4, [(-1.8, 1.2), (1.8, 1.2), (1.8, -1.2), (-1.8, -1.2)],
                       "closed")
    h = np.asarray(h)
    other = reconstruct_parallel(rect, h)
    assert np.linalg.norm(measure_heights(rect, other) - h) < 1e-12
    # transitions are invariant under parallel displacement
    np.testing.assert_array_equal(other.transitions, rect.transitions)


def test_hexagon_curve_thetas(a6):
    w = build_curve(a6, 2.0 * np.asarray(a6.vertices), "closed")
    # all corners turn by -pi/3: theta = pi - (-pi/3) = 4pi/3
    np.testing.assert_allclose(w.thetas[:w.n], 4 * np.pi / 3, rtol=1e-12)
    assert is_convex(w)
    assert curve_index(w) == 1


def _closed_bases():
    a4, a6 = square_anisotropy(), regular_polygon_anisotropy(6)
    lshape = build_curve(a4, [(0, 0), (4, 0), (4, 2), (2, 2), (2, 6), (0, 6)],
                         "closed")
    chain = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", closed=True, m=2), 1.0)
    return [build_curve(a4, 2.0 * a4.vertices, "closed"), lshape, chain,
            build_curve(a6, 2.0 * a6.vertices, "closed"),
            build_curve(a6, [(0, 0), (2, 0), (3, -np.sqrt(3)), (2, -2 * np.sqrt(3)),
                             (1, -2 * np.sqrt(3)), (0.5, -1.5 * np.sqrt(3)),
                             (-0.5, -1.5 * np.sqrt(3)), (-1, -np.sqrt(3))],
                        "closed")]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_corner_stencil_symmetric(which, seed):
    rng = np.random.default_rng(seed)
    base = _closed_bases()[which]
    curve = reconstruct_parallel(base, rng.uniform(-0.1, 0.1, base.n))
    x, y = rng.normal(size=(2, curve.n))
    sx = corner_stencil(x, curve.csc, curve.cot_sum)
    sy = corner_stencil(y, curve.csc, curve.cot_sum)
    scale = float(np.abs(x) @ np.abs(y)) * float(np.max(np.abs(curve.csc)))
    assert abs(sx @ y - x @ sy) <= 1e-13 * scale
