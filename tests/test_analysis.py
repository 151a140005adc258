import math

import numpy as np
import pytest

import crystalflow.analysis as analysis
from crystalflow.cli import _perturb
from crystalflow import (
    FlowParams,
    HalfLinesNotParallel,
    IntegratorOptions,
    InvalidClassParams,
    NotStationary,
    ParamOutOfRange,
    EpochSeries,
    StationaryClass,
    Trajectory,
    build_curve,
    classify_stationary_square,
    convergence_monitor,
    elastic_energy,
    evolve,
    FlowState,
    lengths_from_heights,
    make_nontranslating_two_rectangles,
    make_stationary_square_aniso,
    make_translating_square_aniso,
    reconstruct_parallel,
    stationarity_residual,
    stationary_energy_gap,
    translation_check,
)

ALPHA = 1.0
PW = FlowParams(alpha=ALPHA, window_radius=80.0)
RESID_TOL = 1e-12


def roundtrip(klass, connectors=None):
    c = make_stationary_square_aniso(klass, ALPHA, connectors=connectors)
    p = FlowParams(alpha=ALPHA, window_radius=None if klass.closed else 80.0)
    r = stationarity_residual(c, p)
    k2 = classify_stationary_square(c, ALPHA)
    return c, r, k2


# ----------------------------------------------------------------- catalog

def test_staircase_family():
    for m in (2, 5, 9):
        c, r, k2 = roundtrip(StationaryClass("staircase", m=m))
        assert r <= RESID_TOL
        assert (k2.kind, k2.closed, k2.m) == ("staircase", False, m)
        assert np.all(c.transitions == 0)


def test_right_angle_chains_open():
    for m in (1, 2, 3, 4, 5, 6, 12):
        c, r, k2 = roundtrip(StationaryClass("right-angle-chain", m=m))
        assert r <= RESID_TOL
        assert (k2.kind, k2.closed, k2.m) == ("right-angle-chain", False, m)
        assert c.n == 3 * m + 1
        # the m right-angle sides all have length sqrt(2 alpha)
        want = np.sqrt(2 * ALPHA)
        sides = c.lengths[np.abs(c.transitions) == 1]
        np.testing.assert_allclose(sides, want, rtol=1e-13)


def test_right_angle_chains_closed():
    for m in (1, 2, 3, 4, 5, 6, 12):
        c, r, k2 = roundtrip(StationaryClass("right-angle-chain",
                                             closed=True, m=m))
        assert r <= RESID_TOL
        assert (k2.kind, k2.closed, k2.m) == ("right-angle-chain", True, m)
        assert c.n == 6 * m


def test_double_chains_open():
    pairs = [(2.0, 2.0), (1.5, np.sqrt(18.0)), (1.6, np.sqrt(64.0 / 7.0))]
    for m in (1, 2, 3, 4, 6, 12):
        for a, b in pairs:
            assert 1 / a**2 + 1 / b**2 == pytest.approx(1 / (2 * ALPHA))
            c, r, k2 = roundtrip(
                StationaryClass("double-right-angle-chain", m=m, a=a, b=b))
            assert r <= RESID_TOL
            assert (k2.kind, k2.closed, k2.m) == \
                ("double-right-angle-chain", False, m)
            assert sorted([k2.a, k2.b]) == pytest.approx(sorted([a, b]),
                                                         rel=1e-9)
            assert c.n == 4 * m + 1


def test_double_chain_open_from_b_alone():
    # the open family's a follows from 1/a^2 + 1/b^2 = 1/(2 alpha)
    b = 1.5 * np.sqrt(2.0)
    c, r, k2 = roundtrip(
        StationaryClass("double-right-angle-chain", m=2, b=b))
    assert r <= RESID_TOL
    assert (k2.kind, k2.closed, k2.m) == ("double-right-angle-chain", False, 2)
    assert (k2.a, k2.b) == (1.8973665961010275, 2.121320343559643)
    assert 1 / k2.a**2 + 1 / k2.b**2 == pytest.approx(1 / (2 * ALPHA))


def test_double_chains_closed():
    for m in (1, 2, 3, 4, 6, 12):
        c, r, k2 = roundtrip(
            StationaryClass("double-right-angle-chain", closed=True, m=m))
        assert r <= RESID_TOL
        assert (k2.kind, k2.closed, k2.m) == \
            ("double-right-angle-chain", True, m)
        # closure forces both diagonal side lengths to sqrt(4 alpha)
        assert k2.a == pytest.approx(np.sqrt(4 * ALPHA), rel=1e-9)
        assert k2.b == pytest.approx(np.sqrt(4 * ALPHA), rel=1e-9)
        assert c.n == 8 * m


@pytest.mark.parametrize("kind", ["right-angle-chain",
                                  "double-right-angle-chain"])
def test_closed_chain_classified_under_relabeling(a4, kind):
    chain = make_stationary_square_aniso(StationaryClass(kind, closed=True, m=2),
                                         ALPHA)
    verts = np.asarray(chain.vertices)
    for shift in (1, 2, 5):
        for order in (1, -1):
            relabeled = build_curve(a4, np.roll(verts, -shift, axis=0)[::order],
                                    "closed")
            k2 = classify_stationary_square(relabeled, ALPHA)
            assert (k2.kind, k2.closed, k2.m) == (kind, True, 2), (shift, order)


@pytest.mark.parametrize("klass", [
    StationaryClass("right-angle-chain", m=3),
    StationaryClass("double-right-angle-chain", m=1, a=1.5, b=np.sqrt(18.0)),
    StationaryClass("double-right-angle-chain", m=3, a=1.6,
                    b=np.sqrt(64.0 / 7.0)),
], ids=["right-m3", "double-m1", "double-m3"])
def test_open_chain_classified_backwards(a4, klass):
    # the same chain traversed from its other end: reversed vertices, swapped
    # half-lines
    chain = make_stationary_square_aniso(klass, ALPHA, connectors=[1.0, 2.5]
                                         if klass.m == 3 else None)
    backwards = build_curve(a4, np.asarray(chain.vertices)[::-1], "unbounded",
                            ray_directions=np.asarray(chain.rays)[::-1])
    assert np.array_equal(backwards.lengths, chain.lengths[::-1])
    k2 = classify_stationary_square(backwards, ALPHA)
    assert (k2.kind, k2.closed, k2.m) == (klass.kind, False, klass.m)
    if klass.a is not None:
        assert sorted([k2.a, k2.b]) == pytest.approx(sorted([klass.a, klass.b]),
                                                     rel=1e-9)


def test_wulff_square_catalog():
    c, r, k2 = roundtrip(StationaryClass("wulff-square", closed=True))
    assert r <= RESID_TOL
    assert k2.kind == "wulff-square"
    np.testing.assert_allclose(c.lengths, np.sqrt(4 * ALPHA), rtol=1e-14)


@pytest.mark.parametrize("kind", ["right-angle-chain",
                                  "double-right-angle-chain"])
def test_default_closing_connectors(kind, monkeypatch):
    # with default connectors, each facet group's connectors add up to the
    # total that closure leaves it, and the closing one is the group mean
    fill, seen = analysis._fill_closing_connectors, []

    def spy(lens, taus, groups, connectors, m):
        fill(lens, taus, groups, connectors, m)
        seen.append((lens.copy(), taus, groups))

    monkeypatch.setattr(analysis, "_fill_closing_connectors", spy)
    for m in (1, 2, 3, 8, 512):
        make_stationary_square_aniso(StationaryClass(kind, closed=True, m=m),
                                     ALPHA)
        lens, taus, groups = seen.pop()
        sides = np.setdiff1d(np.arange(len(lens)), np.concatenate(groups))
        fixed = lens[sides] @ taus[sides]
        for group in groups:
            total = -float(fixed @ taus[group[0]])
            assert np.sum(lens[group]) == pytest.approx(total, rel=1e-12)
            assert lens[group[-1]] == pytest.approx(total / len(group),
                                                    rel=1e-12)


def test_sliding_family_stays_stationary():
    # the free connectors parameterize a family: changing them keeps the
    # curve stationary and in the same class
    base = StationaryClass("right-angle-chain", m=3)
    for conn in ([1.0, 1.0], [0.5, 4.0], [2.7, 0.9]):
        c, r, k2 = roundtrip(base, connectors=conn)
        assert r <= RESID_TOL
        assert k2.m == 3
    # a closed chain takes one free connector per facet group of two; the
    # other connector of each group closes the curve
    closed = StationaryClass("right-angle-chain", closed=True, m=2)
    for conn in ([2.0, 3.5], [0.7, 4.9]):
        c, r, k2 = roundtrip(closed, connectors=conn)
        assert r <= RESID_TOL
        assert (k2.kind, k2.closed, k2.m) == ("right-angle-chain", True, 2)
        # each group's sides leave 4 sqrt(2 alpha) for its two connectors
        want = conn + [4 * np.sqrt(2 * ALPHA) - v for v in conn]
        np.testing.assert_allclose(np.sort(c.lengths[c.transitions == 0]),
                                   np.sort(want), rtol=1e-12)
    # staircases: every parallel displacement of the interior is stationary
    st = make_stationary_square_aniso(StationaryClass("staircase", m=6), ALPHA)
    rng = np.random.default_rng(4)
    h = np.zeros(st.n)
    h[st.bounded] = rng.uniform(-0.2, 0.2, int(np.sum(st.bounded)))
    slid = reconstruct_parallel(st, h)
    assert stationarity_residual(slid, PW) <= RESID_TOL


def test_bad_class_params():
    right, double = "right-angle-chain", "double-right-angle-chain"
    cases = [
        (StationaryClass("no-such-kind"), ALPHA, None),
        (StationaryClass(right, m=2), 0.0, None),  # alpha must be positive
        (StationaryClass("staircase", m=1), ALPHA, None),  # >= 2 segments
        (StationaryClass("staircase", closed=True, m=4), ALPHA, None),
        (StationaryClass("staircase", m=4), ALPHA, [1.0]),  # takes 2
        (StationaryClass("staircase", m=4), ALPHA, [1.0, 0.0]),
        (StationaryClass(right, m=0), ALPHA, None),
        (StationaryClass(right, closed=True, m=0), ALPHA, None),
        (StationaryClass(double, m=0), ALPHA, None),
        (StationaryClass(double, closed=True), ALPHA, None),  # m missing
        (StationaryClass(right, m=2), ALPHA, [-1.0]),
        (StationaryClass(right, m=3), ALPHA, [math.nan, 1.0]),
        (StationaryClass("staircase", m=4), ALPHA, [1.0, math.nan]),
        (StationaryClass(right, m=3), ALPHA, [1.0]),  # takes 2
        (StationaryClass(right, closed=True, m=2), ALPHA, [1.0]),  # takes 2
        (StationaryClass(right, closed=True, m=2), ALPHA, [1.0, -1.0]),
        # cannot close the loop
        (StationaryClass(right, closed=True, m=2), ALPHA, [20.0, 1.0]),
        # violates 1/a^2 + 1/b^2 = 1/(2 alpha)
        (StationaryClass(double, m=1, a=1.5, b=1.5), ALPHA, None),
        (StationaryClass(double, m=1, a=1.0), ALPHA, None),  # a <= sqrt(2)
        (StationaryClass(double, m=1, b=1.4), ALPHA, None),  # b <= sqrt(2)
        (StationaryClass(double, m=3), ALPHA, [1.0]),  # takes 2
        (StationaryClass(double, m=3), ALPHA, [1.0, 0.0]),
        (StationaryClass(double, closed=True, m=1, a=1.5), ALPHA, None),
        (StationaryClass(double, closed=True, m=1, b=3.0), ALPHA, None),
        (StationaryClass(double, closed=True, m=2), ALPHA, [1.0]),  # takes 3
    ]
    for klass, alpha, connectors in cases:
        with pytest.raises(InvalidClassParams):
            make_stationary_square_aniso(klass, alpha, connectors=connectors)


@pytest.mark.parametrize("error, build", [
    (InvalidClassParams, lambda alpha: make_stationary_square_aniso(
        StationaryClass("right-angle-chain", m=2), alpha)),
    (ParamOutOfRange, make_nontranslating_two_rectangles),
    (ParamOutOfRange, lambda alpha: make_translating_square_aniso(
        "single-step", alpha, lam=0.4)),
], ids=["stationary", "two-rectangles", "translating"])
def test_generators_refuse_nan_alpha(error, build):
    # alpha <= 0 is false for a NaN, which would pass on to the curve
    with pytest.raises(error, match="^alpha must be positive$"):
        build(math.nan)


def test_classify_rejects_nonstationary(rect):
    with pytest.raises(NotStationary):
        classify_stationary_square(rect, ALPHA)


def test_classify_unclassified_pattern(a4):
    # a transition pattern outside the catalog: force the residual gate open
    # and check the fallback kind
    verts = [(0, 0), (3, 0), (3, 1), (2, 1), (2, 2), (4, 2), (4, 3), (0, 3)]
    c = build_curve(a4, verts, "closed")
    k = classify_stationary_square(c, ALPHA, tol=1e9)
    assert k.kind == "unclassified"


# ----------------------------------------------------------------- translating

def test_translating_profiles_accepted():
    cases = [
        ("single-step", {"lam": 0.4}),
        ("single-step", {"lam": 1.2}),
        ("convex-rectangle", {"a": 1.5}),
        ("convex-rectangle", {"a": 1.9}),
        ("pocket", {"lam": 0.4, "a": 1.0}),
        ("convex-chain", {"m": 2, "a": 0.6}),
        ("convex-chain", {"m": 3, "a": 0.58}),
    ]
    for kind, kw in cases:
        c, lam = make_translating_square_aniso(kind, ALPHA, **kw)
        rep = translation_check(c, FlowParams(alpha=ALPHA), (0.0, 1.0))
        assert rep is not None and rep.accepted, (kind, kw)
        assert rep.residual <= 1e-10
        assert rep.velocity == pytest.approx(lam, abs=1e-10)
        assert lam > 0


@pytest.mark.parametrize("m", range(1, 9))
def test_convex_chain_leg_sums_alternate(m):
    # the inverse squared legs of consecutive legs sum to a and b in turn,
    # and the chain reads the same from either end
    a, b = 0.6, 0.25
    x = analysis._convex_chain_inverse_squares(m, a, b)
    assert x.shape == (2 * m,)
    sums = x[:-1] + x[1:]
    np.testing.assert_allclose(sums[0::2], a, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sums[1::2], b, rtol=1e-12, atol=1e-12)
    assert np.array_equal(x, x[::-1])


@pytest.mark.parametrize("kind, good, bad, extra", [
    ("single-step", {"lam": 0.5}, {"lam": 2.0}, {"a": 3.0}),
    ("convex-rectangle", {"a": 1.5}, {"a": 1.0}, {"lam": 0.5}),
    ("pocket", {"a": 1.0, "lam": 0.4}, {"a": 1.0, "lam": 1.0}, {"m": 2}),
    ("convex-chain", {"m": 3, "a": 0.58}, {"m": 3, "a": 0.7}, {"lam": 0.5}),
], ids=["single-step", "convex-rectangle", "pocket", "convex-chain"])
def test_translating_param_ranges(kind, good, bad, extra):
    # a parameter out of range, or one the kind does not take, is refused
    # with exactly ParamOutOfRange
    make_translating_square_aniso(kind, ALPHA, **good)
    with pytest.raises(ParamOutOfRange) as exc:
        make_translating_square_aniso(kind, ALPHA, **bad)
    assert type(exc.value) is ParamOutOfRange
    with pytest.raises(ParamOutOfRange) as exc:
        make_translating_square_aniso(kind, ALPHA, **good, **extra)
    assert type(exc.value) is ParamOutOfRange
    assert str(exc.value) == f"unexpected parameters: {sorted(extra)}"
    with pytest.raises(ParamOutOfRange, match="unknown translating kind"):
        make_translating_square_aniso("no-such-kind", ALPHA, **good)


def test_two_rectangle_profile_rejected():
    c = make_nontranslating_two_rectangles(ALPHA)
    rep = translation_check(c, FlowParams(alpha=ALPHA), (0.0, 1.0))
    assert rep is not None
    assert not rep.accepted
    assert rep.residual > 1.0  # far from translating, not a borderline call


def test_translation_check_contract(a4, rect):
    # closed curves never translate
    assert translation_check(rect, FlowParams(alpha=ALPHA), (0.0, 1.0)) is None
    c, lam = make_translating_square_aniso("single-step", ALPHA, lam=0.5)
    # direction must be parallel to the half-lines
    with pytest.raises(HalfLinesNotParallel):
        translation_check(c, FlowParams(alpha=ALPHA), (1.0, 1.0))
    # reversed direction fits with negative speed: rejected
    rep = translation_check(c, FlowParams(alpha=ALPHA), (0.0, -1.0))
    assert rep.residual <= 1e-10 and not rep.accepted
    assert rep.velocity == pytest.approx(-0.5, abs=1e-10)



@pytest.mark.parametrize("error, call", [
    (NotStationary, lambda rect, step: classify_stationary_square(
        rect, ALPHA, tol=math.nan)),
    (NotStationary, lambda rect, step: stationary_energy_gap(
        rect, reconstruct_parallel(rect, np.array([0.01, 0.0, 0.0, 0.0])),
        FlowParams(alpha=ALPHA), tol=math.nan)),
    (HalfLinesNotParallel, lambda rect, step: translation_check(
        step, FlowParams(alpha=ALPHA), (math.nan, 1.0))),
    (HalfLinesNotParallel, lambda rect, step: translation_check(
        step, FlowParams(alpha=ALPHA), (math.inf, 0.0))),
], ids=["classify-nan-tol", "energy-gap-nan-tol", "eta-nan", "eta-inf"])
def test_nan_fails_library_preconditions(rect, error, call):
    # a NaN compares false both ways, so each precondition is written to
    # fail on it: the non-stationary rectangle with tol NaN, and a direction
    # that is not finite
    step, _ = make_translating_square_aniso("single-step", ALPHA, lam=0.5)
    with pytest.raises(error):
        call(rect, step)

# ----------------------------------------------------------------- monitor

def test_monitor_on_converged_run(a4, p1, rect):
    traj = evolve(rect, p1, IntegratorOptions(max_time=200.0, max_step=0.25))
    rep = convergence_monitor(traj)
    assert rep.converged and rep.stationary and not rep.generalized
    assert rep.status == "Converged"
    assert rep.residual <= 1e-7
    assert rep.limit is not None and rep.limit.n == 4
    assert rep.classification is not None
    assert rep.classification.kind == "wulff-square"


def test_monitor_measures_the_limit_once(p1, rect, monkeypatch):
    # one stationarity residual per report on a converged square run: the
    # family match does not measure the limit again
    traj = evolve(rect, p1, IntegratorOptions(max_time=200.0, max_step=0.25))
    residual, calls = analysis.stationarity_residual, []
    monkeypatch.setattr(analysis, "stationarity_residual",
                        lambda *args: calls.append(1) or residual(*args))
    rep = convergence_monitor(traj)
    assert rep.stationary and rep.classification.kind == "wulff-square"
    assert len(calls) == 1


def test_monitor_on_interrupted_run(a4, p1, wulff2):
    traj = evolve(wulff2, p1, IntegratorOptions(max_time=1.0))
    rep = convergence_monitor(traj)
    assert not rep.converged and not rep.stationary
    assert rep.status == "MaxTime"
    assert rep.classification is None
    assert rep.residual > 1e-6


@pytest.mark.parametrize("alpha", [1.0, 0.3])
@pytest.mark.parametrize("klass", [
    StationaryClass("staircase", m=3),
    StationaryClass("right-angle-chain", closed=True, m=1),
    StationaryClass("double-right-angle-chain", closed=True, m=1),
    StationaryClass("wulff-square", closed=True)], ids=lambda k: k.kind)
def test_perturbed_catalog_curves_flow_back_to_their_family(klass, alpha):
    # heights perturbed by 0.05 of the mean bounded length (a scenario's
    # perturb_heights, seed 0): the flow settles with no restart, and the
    # limit classifies as the family it started from
    curve = _perturb(make_stationary_square_aniso(klass, alpha),
                     {"seed": 0, "scale": 0.05})
    p = FlowParams(alpha=alpha, window_radius=None if klass.closed else 80.0)
    traj = evolve(curve, p, IntegratorOptions(max_time=200.0, max_step=0.5))
    assert traj.status == "Converged" and not traj.restarts
    got = convergence_monitor(traj).classification
    assert (got.kind, got.closed, got.m) == (klass.kind, klass.closed, klass.m)


@pytest.mark.parametrize("m", [21, 22])
def test_right_angle_chains_flow_back_on_both_stencil_paths(m):
    # n = 6m: 126 segments take the dense stencil product, 132 the shifted
    # views (curve._DENSE_MAX_N = 128); perturbed as above, both settle with
    # no restart on their own family
    klass = StationaryClass("right-angle-chain", closed=True, m=m)
    curve = _perturb(make_stationary_square_aniso(klass, 1.0),
                     {"seed": 0, "scale": 0.05})
    assert curve.n == 6 * m
    traj = evolve(curve, FlowParams(alpha=1.0),
                  IntegratorOptions(max_time=200.0, max_step=0.5))
    assert traj.status == "Converged" and not traj.restarts
    got = convergence_monitor(traj).classification
    assert (got.kind, got.closed, got.m) == (klass.kind, True, m)


def test_monitor_generalized_limit(a4, p1):
    # hand-built: a run that "converged" onto a hairline segment
    q = 2 * np.sqrt(2.0)
    facets = [3, 0, 1, 2, 1, 0, 3, 0, 1, 2, 1, 0]
    lens = [2 * q, q, q, 0.3, q, q, 2 * q, q, q, 4 * q - 0.3, q, q]
    taus = a4.tangents[facets]
    pts = np.concatenate([[np.zeros(2)],
                          np.cumsum(taus * np.asarray(lens)[:, None], axis=0)])
    pinch = build_curve(a4, pts[:-1], "closed")
    d = np.zeros(12)
    d[2], d[4] = -0.1, 0.1
    slope = lengths_from_heights(pinch, d)[3] - pinch.lengths[3]
    u = (1e-13 - pinch.lengths[3]) / slope
    st = FlowState(pinch, u * d, 1.0, 0)
    L = lengths_from_heights(pinch, st.h)
    s = EpochSeries(np.ones(1), st.h[None, :],
                    np.array([elastic_energy(pinch, p1, st.h)]), np.zeros(1),
                    np.zeros(1), np.zeros(1), L.min(keepdims=True),
                    L.sum(keepdims=True))
    traj = Trajectory(p1, IntegratorOptions(), epochs=[pinch], series=[s],
                      status="Converged", final_state=st)
    rep = convergence_monitor(traj)
    assert rep.converged and rep.generalized
    assert not rep.stationary
