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
    build_wulff,
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
from crystalflow import curve as curve_module
from crystalflow.curve import corner_data, corner_stencil
from conftest import GAMMA3, assert_stencil_product, octagon_curve

Q = 2 * np.sqrt(2.0)


def closed_from_tangents(a, facets, lens):
    """Vertices of the closed walk along the tangents of ``facets``."""
    steps = a.tangents[facets] * np.asarray(lens, dtype=float)[:, None]
    return np.concatenate([[np.zeros(2)], np.cumsum(steps, axis=0)[:-1]])


def pinch_vertices(a4):
    """Closed 12-gon with zero net turning and one short connector."""
    facets = [3, 0, 1, 2, 1, 0, 3, 0, 1, 2, 1, 0]
    lens = [2 * Q, Q, Q, 0.3, Q, Q, 2 * Q, Q, Q, 4 * Q - 0.3, Q, Q]
    return closed_from_tangents(a4, facets, lens), facets


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


def test_nonadjacent_facets_rejected(a4, a6):
    # hexagon parallelogram on tangents t0, t2, -t0 = t3, -t2 = t5: every
    # edge lies on a facet, and corners 1 and 3 skip one facet each; the
    # first of the two offending corners is reported
    verts = closed_from_tangents(a6, [0, 2, 3, 5], [2.0, 1.0, 2.0, 1.0])
    with pytest.raises(NotAdmissible,
                       match="segments 0 and 1 use non-adjacent facets 0, 2"):
        build_curve(a6, verts, "closed")
    # square: a 180-degree reversal jumps two facets
    with pytest.raises(NotAdmissible, match="non-adjacent"):
        build_curve(a4, [(0, 0), (2, 0), (1, 0), (1, 1), (0, 1)], "closed")


def test_first_offending_corner_decides_the_error(a4):
    # square facets 0..3 have tangents S, W, N, E.  Two faults each: the
    # first (lowest) offending corner decides which error is raised
    reversal_first = closed_from_tangents(a4, [3, 1, 0, 1, 1, 2],
                                          [3, 1, 1, 1, 1, 1])
    with pytest.raises(NotAdmissible, match="segments 0 and 1 use non-adjacent"):
        build_curve(a4, reversal_first, "closed")
    same_facet_first = closed_from_tangents(a4, [3, 3, 0, 1, 3, 2],
                                            [1, 1, 1, 3, 1, 1])
    with pytest.raises(DegenerateSegment, match="segments 0 and 1 lie on the same"):
        build_curve(a4, same_facet_first, "closed")


def test_closing_corner_names_last_segment(a4):
    # counterclockwise input, reversed to clockwise: segments 4 and 0 both
    # run along y = 0 and meet at the closing corner
    with pytest.raises(DegenerateSegment,
                       match="segments 4 and 0 lie on the same facet"):
        build_curve(a4, [(1, 0), (2, 0), (2, 1), (0, 1), (0, 0)], "closed")


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
            build_curve(a6, 2.0 * a6.vertices, "closed"), octagon_curve(a6)]


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


def _stencil_rows(x, csc, cot_sum):
    """S x one row at a time in Python floats, as the module docstring
    writes it."""
    n = len(x)
    return [x[i - 1] * csc[i] + x[i] * cot_sum[i] + x[(i + 1) % n] * csc[i + 1]
            for i in range(n)]


def _generic_curve(n, closed, rng):
    """An n-segment admissible curve with generic corner angles: the Wulff
    polygon of an irregular n-facet anisotropy (vertices on the unit circle
    at jittered angles), or, unbounded, n - 2 of its edges with the two
    flanking edges as half-lines."""
    ang = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    a = build_wulff(np.column_stack([np.cos(ang), np.sin(ang)]))
    wulff = build_curve(a, a.vertices, "closed")
    if closed:
        return wulff
    v = wulff.vertices
    return build_curve(a, v[:n - 1], "unbounded",
                       ray_directions=[v[-1] - v[0], v[n - 1] - v[n - 2]])


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("n", [3, 4, 20])
def test_corner_stencil_matches_row_formula(n, closed):
    # a chain of random segment normals: every corner angle is generic
    rng = np.random.default_rng(10 * n + closed)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    _, _, _, csc, cot_sum = corner_data(
        np.column_stack([np.cos(psi), np.sin(psi)]), closed)
    x = rng.normal(size=n)
    want = np.array(_stencil_rows(x.tolist(), csc.tolist(), cot_sum.tolist()))
    assert corner_stencil(x, csc, cot_sum).tobytes() == want.tobytes()
    assert corner_stencil(x.tolist(), csc, cot_sum).tobytes() == want.tobytes()
    # the stencil bound to an admissible curve, from the operands it built:
    # at these n a dense product, within rounding of the row formula
    curve = _generic_curve(n, closed, rng)
    assert (curve.n, curve.closed) == (n, closed)
    x = rng.normal(size=n)
    want = np.array(_stencil_rows(x.tolist(), curve.csc.tolist(),
                                  curve.cot_sum.tolist()))
    assert_stencil_product(curve, x, curve.stencil(x))
    assert corner_stencil(x, curve.csc, curve.cot_sum).tobytes() == want.tobytes()


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("n", [129, 400])
def test_curve_stencil_above_the_dense_size_is_the_row_formula(n, closed):
    # shifted views: every entry, of one row or of a block, scaled or not,
    # has the bits of the row formula
    rng = np.random.default_rng(10 * n + closed)
    curve = _generic_curve(n, closed, rng)
    assert (curve.n, curve.closed) == (n, closed)
    X = rng.normal(size=(3, n))
    for scale in (1.0, 0.7):
        csc, cot_sum = scale * curve.csc, scale * curve.cot_sum
        want = np.array([_stencil_rows(x.tolist(), csc.tolist(), cot_sum.tolist())
                         for x in X])
        assert curve.stencil(X[0], scale).tobytes() == want[0].tobytes()
        assert curve.stencil(X, scale).tobytes() == want.tobytes()


@pytest.mark.parametrize("closed", [True, False])
def test_dense_stencil_holds_the_coefficients(closed):
    # D's column i is row i of S: csc_i one row above the diagonal, cot_sum_i
    # on it and csc_{i+1} one row below, cyclically, and exact zeros
    # elsewhere (the missing corners of an unbounded curve are zeros too)
    n = 20
    curve = _generic_curve(n, closed, np.random.default_rng(7))
    i = np.arange(n)
    for scale in (1.0, 0.7):
        csc, cot_sum = scale * curve.csc, scale * curve.cot_sum
        want = np.zeros((n, n))
        want[(i - 1) % n, i] = csc[:-1]
        want[i, i] = cot_sum
        want[(i + 1) % n, i] = csc[1:]
        curve.stencil(np.zeros(n), scale)
        assert np.array_equal(curve._operators[scale][1], want)
        assert np.count_nonzero(want) == 3 * n - 2 * (not closed)


@pytest.mark.parametrize("n", [128, 129])
def test_stencil_paths_agree_at_the_switch(n, monkeypatch):
    # on either side of _DENSE_MAX_N, a row's dense product and its shifted
    # views both lie within gamma_3 (|S| |x|)_i of the exact S x, so they
    # agree within 2 gamma_3; the shifted views have the row formula's bits
    rng = np.random.default_rng(n)
    X = rng.normal(size=(2, n))
    got = {}
    for dense in (True, False):
        monkeypatch.setattr(curve_module, "_DENSE_MAX_N", n if dense else n - 1)
        curve = _generic_curve(n, True, np.random.default_rng(3))
        monkeypatch.undo()
        assert curve._dense is dense
        got[dense] = np.array([curve.stencil(x, 0.7) for x in X])
        for x, row in zip(X, got[dense]):
            assert_stencil_product(curve, x, row, 0.7)
    bound = 2 * float(GAMMA3) * corner_stencil(
        np.abs(X), np.abs(0.7 * curve.csc), np.abs(0.7 * curve.cot_sum))
    assert np.all(np.abs(got[True] - got[False]) <= bound)


def test_corner_stencil_on_facet_triples(a6):
    # the open triple of energy.facet_identity_residual, x a plain list
    for mid in range(a6.K):
        for s1 in (1, -1):
            for s2 in (1, -1):
                f = [(mid - s1) % a6.K, mid, (mid + s2) % a6.K]
                _, _, _, csc, cot_sum = corner_data(a6.normals[f], closed=False)
                x = a6.supports[f].tolist()
                want = np.array(_stencil_rows(x, csc.tolist(), cot_sum.tolist()))
                got = corner_stencil(x, csc, cot_sum)
                assert got.tobytes() == want.tobytes(), f
