import numpy as np
import pytest

from crystalflow import (
    AdmissibleCurve,
    FlowParams,
    InvalidTriple,
    NotParallel,
    NotStationary,
    WindowTooSmall,
    ZeroLengthSegment,
    build_curve,
    corner_stencil,
    elastic_energy,
    facet_identity_residual,
    first_variation,
    lengths_from_heights,
    make_nontranslating_two_rectangles,
    make_stationary_square_aniso,
    make_translating_square_aniso,
    phi_dual,
    reconstruct_parallel,
    regular_polygon_anisotropy,
    square_anisotropy,
    stationary_energy_gap,
    StationaryClass,
    windowed_lengths,
)
from conftest import PENTAGON_SCALE, pentagon_curve


# ----------------------------------------------------------------- energy values

def test_wulff_square_energy_closed_form(a4, p1):
    # side 2R, four segments: F = 8R + 8*alpha/R
    for R in (0.5, 1.0, 2.0, 3.7):
        w = build_curve(a4, R * np.asarray(a4.vertices), "closed")
        assert elastic_energy(w, p1) == pytest.approx(8 * R + 8 / R, rel=1e-14)
    # alpha scales only the curvature part
    p3 = FlowParams(alpha=3.0)
    w = build_curve(a4, 2.0 * np.asarray(a4.vertices), "closed")
    assert elastic_energy(w, p3) == pytest.approx(16 + 24 / 2, rel=1e-14)


def test_rectangle_energy(a4, rect, p1):
    # sides 3.6 and 2.4, all transitions +1, delta = 4
    want = 2 * (3.6 + 2.4) + 1.0 * (2 * 4 / 3.6 + 2 * 4 / 2.4)
    assert elastic_energy(rect, p1) == pytest.approx(want, rel=1e-14)


# an irregular Wulff pentagon: no two facets share length and support
def test_energy_on_unequal_facets():
    w = pentagon_curve()
    assert not np.array_equal(w.facet_index, np.arange(w.n))
    p = FlowParams(alpha=0.7)
    h = np.random.default_rng(4).uniform(-0.05, 0.05, w.n)
    L = lengths_from_heights(w, h)
    want = 0.0
    for i in range(w.n):
        sup = phi_dual(w.anisotropy, w.normals[i])
        HF = w.lengths[i] / PENTAGON_SCALE  # the Wulff edge on segment i
        c = w.transitions[i]
        want += sup * L[i] + p.alpha * c**2 * HF**2 * sup / L[i]
    assert elastic_energy(w, p, h) == pytest.approx(want, rel=1e-14)


def test_energy_with_heights_matches_materialized(a4, lshape, p1):
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rng.uniform(-0.25, 0.25, lshape.n)
        on_chart = elastic_energy(lshape, p1, h)
        materialized = elastic_energy(reconstruct_parallel(lshape, h), p1)
        assert on_chart == pytest.approx(materialized, rel=1e-13)


# ----------------------------------------------------------------- first variation

def test_first_variation_zero_at_wulff(a4, p1):
    w = build_curve(a4, np.sqrt(1.0) * np.asarray(a4.vertices), "closed")
    g = first_variation(w, p1)
    assert np.linalg.norm(g) < 1e-14


def test_first_variation_matches_finite_differences(a4, lshape, p1):
    eps = 1e-6
    h0 = np.zeros(lshape.n)
    g = first_variation(lshape, p1)
    for i in range(lshape.n):
        hp = h0.copy(); hp[i] += eps
        hm = h0.copy(); hm[i] -= eps
        fd = (elastic_energy(lshape, p1, hp)
              - elastic_energy(lshape, p1, hm)) / (2 * eps)
        # dF/dh_i = g_i * L_i
        assert fd == pytest.approx(g[i] * lshape.lengths[i], rel=1e-7, abs=1e-9)


def test_first_variation_fd_hexagon(a6):
    p = FlowParams(alpha=0.7)
    rng = np.random.default_rng(9)
    for w in (build_curve(a6, 1.5 * np.asarray(a6.vertices), "closed"),
              pentagon_curve()):
        h0 = rng.uniform(-0.05, 0.05, w.n)
        g = first_variation(w, p, h0)
        L = lengths_from_heights(w, h0)
        eps = 1e-6
        for i in range(w.n):
            hp = h0.copy(); hp[i] += eps
            hm = h0.copy(); hm[i] -= eps
            fd = (elastic_energy(w, p, hp) - elastic_energy(w, p, hm)) / (2 * eps)
            assert fd == pytest.approx(g[i] * L[i], rel=1e-6, abs=1e-9)


def test_first_variation_fd_unbounded(a4):
    p = FlowParams(alpha=1.0, window_radius=40.0)
    c = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", m=2), 1.0)
    rng = np.random.default_rng(2)
    h0 = np.zeros(c.n)
    h0[c.bounded] = rng.uniform(-0.05, 0.05, int(np.sum(c.bounded)))
    g = first_variation(c, p, h0)
    L = windowed_lengths(c, p, h0)
    eps = 1e-6
    for i in np.nonzero(c.bounded)[0]:
        hp = h0.copy(); hp[i] += eps
        hm = h0.copy(); hm[i] -= eps
        fd = (elastic_energy(c, p, hp) - elastic_energy(c, p, hm)) / (2 * eps)
        assert fd == pytest.approx(g[i] * L[i], rel=1e-6, abs=1e-8)
    # half-lines carry no variation
    assert g[0] == 0.0 and g[-1] == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -0.5])
def test_first_variation_rejects_nonpositive_lengths(lshape, bad):
    # every bounded segment of a closed and of an unbounded curve; the
    # infinite half-lines never trip the check
    chain = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", m=2), 1.0)
    for curve, p in ((lshape, FlowParams(alpha=1.0)),
                     (chain, FlowParams(alpha=1.0, window_radius=40.0))):
        tiny = np.where(curve.bounded, 1e-6, np.inf)
        g = first_variation(curve, p, lengths=tiny)
        assert np.all(np.isfinite(g))
        assert np.all(g[~curve.bounded] == 0.0)
        for i in np.flatnonzero(curve.bounded):
            L = curve.lengths.copy()
            L[i] = bad
            with pytest.raises(ZeroLengthSegment):
                first_variation(curve, p, lengths=L)


def test_first_variation_takes_list_lengths(lshape):
    # lengths given as a list, of floats or of ints, give the array's bits
    p = FlowParams(alpha=1.0)
    g = first_variation(lshape, p)
    L = lshape.lengths
    assert first_variation(lshape, p, lengths=L.tolist()).tobytes() == g.tobytes()
    ints = [int(x) for x in L]
    assert ints == L.tolist()  # the L-shape's sides are whole numbers
    got = first_variation(lshape, p, lengths=ints)
    assert got.tobytes() == g.tobytes()


def _catalog_curves():
    """(name, curve factory) of closed and unbounded catalog curves; a
    factory builds a fresh curve, with no stencil scale made yet."""
    def stationary(kind, closed, m=None):
        return lambda: make_stationary_square_aniso(
            StationaryClass(kind, closed=closed, m=m), 1.0)
    return [("lshape", lambda: build_curve(
                square_anisotropy(),
                [(0, 0), (4, 0), (4, 2), (2, 2), (2, 6), (0, 6)], "closed")),
            ("pentagon", pentagon_curve),
            ("wulff-square", stationary("wulff-square", True)),
            ("closed-chain", stationary("right-angle-chain", True, 2)),
            ("staircase", stationary("staircase", False, 3)),
            ("open-chain", stationary("right-angle-chain", False, 2)),
            ("convex-chain", _convex_chain)]


def test_first_variation_matches_two_quotient_form():
    # g = (alpha S q + c_hf) / L, q = c^2 d / L^2, agrees with
    # alpha / L * S q + c_hf / L within a few ulp of the terms' magnitude;
    # half-lines get exact zeros, ``out`` is written, and one curve
    # evaluated at several alphas in turn gives what fresh curves give
    eps = np.finfo(float).eps
    for name, make in _catalog_curves():
        curve = make()
        h = np.random.default_rng(curve.n).uniform(-0.02, 0.02, curve.n)
        h[~curve.bounded] = 0.0
        L = lengths_from_heights(curve, h)
        q = curve.c2_delta / L**2
        abs_s = corner_stencil(q, np.abs(curve.csc), np.abs(curve.cot_sum))
        for alpha in (0.3, 1.0, 3.0, 0.3):
            p = FlowParams(alpha=alpha)
            g = first_variation(curve, p, h=h)
            assert g.tobytes() == first_variation(make(), p, h=h).tobytes()
            out = np.full(curve.n, np.nan)
            assert first_variation(curve, p, lengths=L, out=out) is out
            assert out.tobytes() == g.tobytes(), (name, alpha)
            b = curve.bounded
            want = (alpha / L * corner_stencil(q, curve.csc, curve.cot_sum)
                    + curve.c_hf / L)
            scale = (alpha * abs_s + np.abs(curve.c_hf)) / L
            assert np.all(np.abs(g - want)[b] <= 4 * eps * scale[b]), (
                name, alpha)
            assert g[~b].tolist() == [0.0] * int((~b).sum())
            assert not np.signbit(g[~b]).any()


# ----------------------------------------------------------------- facet identity

def test_facet_identity_all_regular_polygons():
    worst = 0.0
    for n in range(3, 13):
        a = regular_polygon_anisotropy(n)
        for mid in range(n):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    prev = (mid - s1) % n
                    nxt = (mid + s2) % n
                    worst = max(worst,
                                facet_identity_residual(a, prev, mid, nxt))
    assert worst <= 1e-12


def test_facet_identity_rejects_nonadjacent(a6):
    with pytest.raises(InvalidTriple):
        facet_identity_residual(a6, 0, 3, 4)


# ----------------------------------------------------------------- energy gap

def test_stationary_energy_gap_closed(a4, p1):
    z = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", closed=True, m=1), 1.0)
    h = np.array([0.0, 0.05, -0.03, 0.0, 0.02, 0.04])
    zp = reconstruct_parallel(z, h)
    gap = stationary_energy_gap(z, zp, p1)
    direct = elastic_energy(zp, p1) - elastic_energy(z, p1)
    assert gap == pytest.approx(direct, abs=1e-13)
    assert gap > 0.0


def test_stationary_energy_gap_unbounded():
    p = FlowParams(alpha=1.0, window_radius=40.0)
    c = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", m=2), 1.0)
    h = np.zeros(c.n)
    h[1:4] = [0.03, 0.04, -0.02]
    cp = reconstruct_parallel(c, h)
    gap = stationary_energy_gap(c, cp, p)
    direct = elastic_energy(cp, p) - elastic_energy(c, p)
    assert gap == pytest.approx(direct, abs=1e-12)
    # the difference does not depend on the window
    p_wide = FlowParams(alpha=1.0, window_radius=90.0)
    direct_wide = elastic_energy(cp, p_wide) - elastic_energy(c, p_wide)
    assert direct == pytest.approx(direct_wide, abs=1e-11)


def test_energy_gap_requires_stationary(a4, rect, p1):
    other = reconstruct_parallel(rect, np.array([0.01, 0.0, 0.0, 0.0]))
    with pytest.raises(NotStationary):
        stationary_energy_gap(rect, other, p1)


def test_energy_gap_requires_parallel(a4, p1):
    z = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", closed=True, m=1), 1.0)
    w = build_curve(a4, np.asarray(a4.vertices), "closed")
    with pytest.raises(NotParallel):
        stationary_energy_gap(z, w, p1)


# ----------------------------------------------------------------- windows

def test_window_required_for_unbounded(a4, rect, p1):
    c = build_curve(a4, [(0, 0), (2, 0)], "unbounded",
                    ray_directions=[(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(WindowTooSmall):
        elastic_energy(c, FlowParams(alpha=1.0))
    # a closed curve needs none: its lengths are the whole story
    assert elastic_energy(rect, p1, lengths=rect.lengths) == elastic_energy(rect, p1)


def test_window_too_small_raises(a4):
    c = build_curve(a4, [(-6, 0), (6, 0)], "unbounded",
                    ray_directions=[(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(WindowTooSmall):
        windowed_lengths(c, FlowParams(alpha=1.0, window_radius=5.0))
    ok = windowed_lengths(c, FlowParams(alpha=1.0, window_radius=10.0))
    assert ok[1] == pytest.approx(12.0)
    assert ok[0] == pytest.approx(8.0)  # chord of the vertical half-line


def test_windowed_lengths_track_heights(a4):
    # moving the middle segment up shortens both upward half-lines
    c = build_curve(a4, [(-2, 0), (2, 0)], "unbounded",
                    ray_directions=[(0.0, 1.0), (0.0, 1.0)])
    p = FlowParams(alpha=1.0, window_radius=20.0)
    base = windowed_lengths(c, p)
    h = np.array([0.0, 0.5, 0.0])
    moved = windowed_lengths(c, p, h)
    assert moved[0] == pytest.approx(base[0] - 0.5)
    assert moved[2] == pytest.approx(base[2] - 0.5)
    assert moved[1] == pytest.approx(base[1])


def _convex_chain():
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    return chain


def test_window_clips_cached_per_radius():
    # one curve used at two radii gives what fresh curves give at each, from
    # heights or from given windowed lengths; true lengths, +inf on the
    # half-lines, are no windowed lengths and are refused
    c = _convex_chain()
    h = np.where(c.bounded, 0.05, 0.0)
    true = lengths_from_heights(c, h)
    for R in (60.0, 25.0, 60.0, 25.0):
        p = FlowParams(alpha=1.0, window_radius=R)
        fresh = _convex_chain()
        for kw in ({}, {"h": h}):
            got = windowed_lengths(c, p, **kw)
            assert got.tobytes() == windowed_lengths(fresh, p, **kw).tobytes()
        L = windowed_lengths(fresh, p, h)
        assert windowed_lengths(c, p, lengths=L).tobytes() == L.tobytes()
        assert elastic_energy(c, p, h) == elastic_energy(fresh, p, h)
        assert elastic_energy(c, p, lengths=L) == elastic_energy(fresh, p, h)
        for bad in (true, np.array([true, L])):
            with pytest.raises(WindowTooSmall):
                windowed_lengths(c, p, lengths=bad)
            with pytest.raises(WindowTooSmall):
                elastic_energy(c, p, lengths=bad)
    assert elastic_energy(c, FlowParams(alpha=1.0, window_radius=60.0),
                          h) == pytest.approx(172.8418289, abs=1e-6)
    # a window that misses a junction (at radius 2.37) fails on every call
    small = FlowParams(alpha=1.0, window_radius=2.0)
    for _ in range(3):
        with pytest.raises(WindowTooSmall):
            windowed_lengths(c, small)
        with pytest.raises(WindowTooSmall):
            elastic_energy(c, small, h)


def test_halfline_clip_moves_by_its_row_of_stencil(a4, monkeypatch):
    # with pinned heights a half-line's row of S h is its bounded
    # neighbour's term alone, bit for bit, and its clip moves by that row
    # as the parallel curve's clip does; given lengths, windowed_lengths
    # applies no stencil and returns them
    stair = build_curve(a4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)],
                        "unbounded", ray_directions=[(0.0, -1.0), (0.0, 1.0)])
    corner = build_curve(a4, [(0.0, 0.0)], "unbounded",
                         ray_directions=[(-1.0, 0.0), (0.0, 1.0)])
    cases = [(_convex_chain(), 60.0), (stair, 20.0),
             (make_nontranslating_two_rectangles(1.0), 20.0), (corner, 5.0)]
    rng = np.random.default_rng(11)
    calls = []
    stencil = AdmissibleCurve.stencil
    for c, radius in cases:
        p = FlowParams(alpha=1.0, window_radius=radius)
        clips = windowed_lengths(c, p)
        assert clips[c.bounded].tobytes() == c.lengths[c.bounded].tobytes()
        for shape in ((5, c.n), (c.n,)):
            H = rng.uniform(-0.05, 0.05, shape)
            H[..., [0, -1]] = 0.0
            SH = c.stencil(H)
            assert SH[..., 0].tobytes() == (H[..., 1] * c.csc[1]).tobytes()
            assert SH[..., -1].tobytes() == (H[..., -2] * c.csc[-2]).tobytes()
            L = clips - SH  # as the epoch's block pass
            if H.ndim == 1:
                assert windowed_lengths(c, p, H).tobytes() == L.tobytes()
                moved = windowed_lengths(reconstruct_parallel(c, H), p)
                assert L[[0, -1]] == pytest.approx(moved[[0, -1]], rel=1e-12)
            with monkeypatch.context() as m:
                m.setattr(AdmissibleCurve, "stencil",
                          lambda *a, **k: calls.append(1) or stencil(*a, **k))
                got = windowed_lengths(c, p, lengths=L)
            assert got.tobytes() == L.tobytes()
    assert calls == []
