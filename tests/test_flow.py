import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import crystalflow.flow as flow
from crystalflow import (
    DimensionMismatch,
    FlowParams,
    FlowState,
    InsufficientSamples,
    IntegratorOptions,
    NonzeroCurvatureCollapse,
    NotAdmissibleAfterMerge,
    ParamOutOfRange,
    EpochSeries,
    STATUS_CONVERGED,
    STATUS_MAX_TIME,
    STATUS_TRANSLATING,
    StationaryClass,
    StepUnderflow,
    Trajectory,
    WindowTooSmall,
    ZeroLengthSegment,
    apriori_bounds,
    build_curve,
    curve_index,
    detect_vanishing,
    dissipation_residual,
    elastic_energy,
    evolve,
    first_variation,
    is_convex,
    lengths_from_heights,
    make_stationary_square_aniso,
    make_translating_square_aniso,
    reconstruct_parallel,
    restart,
    rhs,
    step,
    windowed_lengths,
)
from crystalflow.cli import emit_series
from crystalflow.flow import dissipation_rate
from conftest import (
    assert_stencil_product,
    octagon_curve,
    pentagon_curve,
    series_lengths,
    wulff_curve,
)

Q = 2 * np.sqrt(2.0)


def make_pinch(a4):
    facets = [3, 0, 1, 2, 1, 0, 3, 0, 1, 2, 1, 0]
    lens = [2 * Q, Q, Q, 0.3, Q, Q, 2 * Q, Q, Q, 4 * Q - 0.3, Q, Q]
    taus = a4.tangents[facets]
    pts = np.concatenate([[np.zeros(2)],
                          np.cumsum(taus * np.asarray(lens)[:, None], axis=0)])
    return build_curve(a4, pts[:-1], "closed")


# ----------------------------------------------------------------- right-hand side

def test_rhs_zero_at_small_wulff(a4, p1):
    w = build_curve(a4, np.asarray(a4.vertices), "closed")  # side 2 = sqrt(4a)
    st = FlowState(w, np.zeros(4), 0.0, 0)
    assert np.linalg.norm(rhs(st, p1)) < 1e-14


def test_rhs_wulff_square_closed_form(a4, p1, wulff2):
    # uniform square of radius R: every height obeys h' = -1/R + alpha/R^3
    st = FlowState(wulff2, np.zeros(4), 0.0, 0)
    np.testing.assert_allclose(rhs(st, p1), -1 / 2 + 1 / 8, rtol=1e-14)
    half = build_curve(a4, 0.5 * np.asarray(a4.vertices), "closed")
    st2 = FlowState(half, np.zeros(4), 0.0, 0)
    np.testing.assert_allclose(rhs(st2, p1), -2 + 8, rtol=1e-14)  # expanding


def test_single_step_advances(a4, p1, rect):
    st = FlowState(rect, np.zeros(4), 0.0, 0)
    opts = IntegratorOptions()
    new, err = step(st, p1, opts)
    assert new.t > 0
    assert err <= opts.rel_tol
    # first-order agreement with the vector field over one accepted step
    assert np.linalg.norm(new.h - new.t * rhs(st, p1)) < 10 * new.t**2


def test_step_scales_its_tolerances_like_evolve(p1, lshape):
    # substeps k is rel_tol / k^5 and abs_tol / k^5 at substeps 1, as in
    # evolve: the tighter tolerances reject the step of dt 0.05 that the
    # unscaled ones accept
    st = FlowState(lshape, np.zeros(lshape.n), 0.0, 0)
    new, err = step(st, p1, IntegratorOptions(substeps=4), dt=0.05)
    same, same_err = step(st, p1, IntegratorOptions(
        rel_tol=1e-8 / 4**5, abs_tol=1e-10 / 4**5), dt=0.05)
    assert (new.t, err) == (same.t, same_err)
    np.testing.assert_array_equal(new.h, same.h)
    assert new.t < step(st, p1, IntegratorOptions(), dt=0.05)[0].t == 0.05


# ----------------------------------------------------------------- oracle match

def test_wulff_heights_match_scalar_ode(a4, p1, wulff2):
    # radius ODE dR/dt = -1/R + 1/R^3, heights h_i = R - R0 on all four sides
    sol = solve_ivp(lambda t, R: -1 / R + 1 / R**3, (0.0, 3.0), [2.0],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    traj = evolve(wulff2, p1, IntegratorOptions(
        max_time=3.0, rel_tol=1e-10, abs_tol=1e-12, max_step=0.25))
    (s,) = traj.series
    want = sol.sol(s.t)[0] - 2.0
    assert np.max(np.abs(s.h - want[:, None])) < 1e-8


# ----------------------------------------------------------------- trajectories

def test_rectangle_converges_to_wulff(a4, p1, rect):
    traj = evolve(rect, p1, IntegratorOptions(max_time=200.0, max_step=0.25))
    assert traj.status == STATUS_CONVERGED
    final = traj.final_state
    L = lengths_from_heights(traj.epochs[-1], final.h)
    np.testing.assert_allclose(L, 2.0, atol=1e-6)  # side sqrt(4 alpha)
    assert np.max(np.abs(rhs(final, p1))) <= 1e-8


def test_converged_time_independent_of_max_time(a4, p1):
    # the stop rule reads the last rows, not a window sized by max_time, so
    # a run that settles on the Wulff shape stops at the same row whatever
    # time it was allowed
    rect = build_curve(a4, [(-1.5, 0.6), (1.5, 0.6), (1.5, -0.6), (-1.5, -0.6)],
                       "closed")
    ends = set()
    for max_time in (60.0, 200.0, 400.0):
        traj = evolve(rect, p1, IntegratorOptions(max_time=max_time, max_step=0.5))
        assert traj.status == STATUS_CONVERGED
        ends.add((traj.final_state.t, len(traj.series[-1].t)))
    assert len(ends) == 1


def test_stop_rule_counts_trailing_still_rows(p1, lshape):
    # Converged once the last _STOP_ROWS rows have max |h'| <= tol: a run
    # that dips under the tolerance and climbs back above it starts its
    # count again, and a row exactly at the tolerance counts as still
    tol, m = 1e-8, flow._STOP_ROWS
    rows = flow._OpenEpoch(lshape, p1, IntegratorOptions(stationarity_tol=tol),
                           100.0)
    peaks = ([1e-3] * 3 + [1e-9] * (m - 1) + [2 * tol] + [1e-9] * (m - 1)
             + [tol, 1e-9])
    unit = np.linspace(-1.0, 1.0, lshape.n)  # max |entry| is 1
    got = []
    for j, peak in enumerate(peaks):
        rows.record(float(j), np.zeros(lshape.n), 0.0, peak * unit, 0.0)
        got.append(rows.status(1.0))
    want = [STATUS_CONVERGED if j >= m - 1
            and max(peaks[j - m + 1:j + 1]) <= tol else flow.STATUS_RUNNING
            for j in range(len(peaks))]
    assert got == want
    assert got.count(STATUS_CONVERGED) == 2


@pytest.mark.parametrize("substeps", [2, 4])
@pytest.mark.parametrize("name", ["rect", "lshape"])
def test_stop_rule_read_at_step_ends(name, substeps, request, p1, monkeypatch):
    # the stop rule is read after each accepted step's last row, so a run
    # with rows inside its steps still ends on a step's end, less than a
    # step after the first row at which the rule held
    curve = request.getfixturevalue(name)
    filled = _filled_rows(monkeypatch)
    opts = IntegratorOptions(max_time=200.0, max_step=0.5, substeps=substeps)
    traj = evolve(curve, p1, opts)
    assert traj.status == STATUS_CONVERGED
    s = traj.series[-1]
    assert s.t[-1] not in {t for t, _ in filled}
    m, tol = flow._STOP_ROWS, opts.stationarity_tol
    still = s.max_abs_rate <= tol
    assert still[-m:].all()
    first = next(j for j in range(m - 1, len(still))
                 if still[j - m + 1:j + 1].all())
    assert s.t[-1] - s.t[first] < opts.max_step


def test_energy_decreases_along_samples(a4, p1, wulff2):
    traj = evolve(wulff2, p1, IntegratorOptions(max_time=2.0))
    (s,) = traj.series
    assert np.all(np.diff(s.energy) <= 1e-12)


def test_evolve_is_deterministic(a4, p1, lshape):
    opts = IntegratorOptions(max_time=0.5)
    t1 = evolve(lshape, p1, opts)
    t2 = evolve(lshape, p1, opts)
    assert len(t1.series) == len(t2.series)
    for s1, s2 in zip(t1.series, t2.series):
        np.testing.assert_array_equal(s1.t, s2.t)
        np.testing.assert_array_equal(s1.h, s2.h)


def test_substeps_refine_sampling(a4, p1, wulff2):
    opts1 = IntegratorOptions(max_time=1.0)
    opts4 = IntegratorOptions(max_time=1.0, substeps=4)
    n1 = len(evolve(wulff2, p1, opts1).series[0].t)
    n4 = len(evolve(wulff2, p1, opts4).series[0].t)
    assert n4 > 2 * n1
    with pytest.raises(ParamOutOfRange):
        IntegratorOptions(substeps=0)


def test_substeps_must_be_an_integer():
    for value in (2.5, 2.0, True, "2", None):
        with pytest.raises(ParamOutOfRange):
            IntegratorOptions(substeps=value)
    # max_step / substeps is the row spacing, above min_step
    with pytest.raises(ParamOutOfRange):
        IntegratorOptions(min_step=0.03, max_step=0.1, substeps=4)


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_time",
                                   "stationarity_tol"])
def test_options_reject_nan(field):
    # a NaN compares false both ways; a run with max_time NaN stopped at t=0
    with pytest.raises(ParamOutOfRange):
        IntegratorOptions(**{field: float("nan")})


def test_substeps_scale_tolerances_and_max_step(a4, p1, monkeypatch):
    # substeps k steps with rel_tol / k^5 and abs_tol / k^5 under the given
    # max_step, and lays its rows on a grid of spacing g = max_step / k: a
    # step longer than g ends on a multiple of g; the trajectory keeps the
    # options it was given
    runs = [(make_pinch(a4), p1, 0.6, 2, 2),
            (_perturbed_convex_chain(), FlowParams(alpha=1.0, window_radius=60.0),
             2.0, 4, 1)]
    attempt, seen = flow._attempt_step, []

    def spy(*args):
        seen.append(args[0].opts)  # the epoch's options
        return attempt(*args)

    monkeypatch.setattr(flow, "_attempt_step", spy)
    for curve, p, max_time, k, n_epochs in runs:
        seen.clear()
        opts = IntegratorOptions(max_time=max_time, substeps=k)
        traj = evolve(curve, p, opts)
        assert traj.options is opts
        assert traj.n_epochs == n_epochs
        assert {(o.rel_tol, o.abs_tol, o.max_step) for o in seen} == {
            (1e-8 / k**5, 1e-10 / k**5, 0.1)}
        g = 0.1 / k
        for s in traj.series:
            gaps = np.diff(s.t)
            assert gaps.max() <= g * (1.0 + 1e-12)
            # a row more than g after the row before it would be off the grid
            assert len(s.t) >= (s.t[-1] - s.t[0]) / g


# A closed staircase of three steps, with two restarts before t = 1.
# Measured RHS evaluations per recorded row at substeps 1, 2, 4, 8, 16, 40:
# 10.23, 9.59, 8.22, 7.31, 7.06, 7.06 with the round-off floor, and 13.20
# at 40 without it (rows 1422 instead of 334).
STAIRCASE = [(0, 0), (0, 2.5), (2, 2.5), (2, 2.2), (4, 2.2), (4, 1.7),
             (5.5, 1.7), (5.5, 1.5), (8, 1.5), (8, 0)]
RHS_PER_ROW_MAX = 12.0


def test_scaled_tolerances_floored_at_roundoff(a4, p1, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        return first_variation(*args, **kwargs)

    monkeypatch.setattr(flow, "first_variation", spy)
    stairs = build_curve(a4, STAIRCASE, "closed")
    rows = []
    for k in (1, 2, 4, 8, 16, 40):
        calls.clear()
        traj = evolve(stairs, p1, IntegratorOptions(max_time=1.0, max_step=0.5,
                                                    substeps=k))
        rows.append(sum(len(s.t) for s in traj.series))
        assert len(traj.restarts) == 2
        assert len(calls) / rows[-1] < RHS_PER_ROW_MAX, (k, len(calls), rows[-1])
    assert rows == sorted(rows), rows
    # a tolerance given below the floor is kept
    tight = flow._scaled(IntegratorOptions(rel_tol=1e-15, abs_tol=1e-17,
                                           substeps=2))
    assert (tight.rel_tol, tight.abs_tol) == (1e-15, 1e-17)


def test_step_underflow(a4, p1, wulff2):
    with pytest.raises(StepUnderflow):
        evolve(wulff2, p1, IntegratorOptions(
            min_step=0.5, max_step=0.6, rel_tol=1e-15, abs_tol=1e-17,
            max_time=3.0))


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_dt(a4, p1, dt):
    # halving a NaN or infinite step never reaches min_step, so such a step
    # is refused before any attempt; a finite one below min_step underflows
    rect = build_curve(a4, [(0, 0), (0, 2), (3, 2), (3, 0)], "closed")
    state = FlowState(rect, np.zeros(4), 0.0, 0)
    with pytest.raises(ParamOutOfRange, match="step size must be finite"):
        step(state, p1, IntegratorOptions(), dt=dt)
    with pytest.raises(StepUnderflow):
        step(state, p1, IntegratorOptions(), dt=1e-16)


@pytest.mark.parametrize("max_step,min_step", [
    (0.1, 0.02), (0.1, 0.015), (0.05, 0.01), (0.1, 0.05)])
def test_first_step_within_max_step(a4, p1, max_step, min_step):
    # the first step is floored at 10 min_step, which the options allow
    # above max_step; the cap still holds for evolve's first row and step()
    rect = build_curve(a4, [(-1.5, 0.6), (1.5, 0.6), (1.5, -0.6), (-1.5, -0.6)],
                       "closed")
    opts = IntegratorOptions(rel_tol=1e-3, abs_tol=1e-3, max_step=max_step,
                             min_step=min_step, max_time=2.0)
    traj = evolve(rect, p1, opts)
    for s in traj.series:  # a spacing of t rounds to about 1e-16
        assert np.diff(s.t).max() <= max_step * (1.0 + 1e-12)
    first, _ = step(FlowState(rect, np.zeros(rect.n), 0.0, 0), p1, opts)
    assert 0.0 < first.t <= max_step


# ----------------------------------------------------------------- a priori bounds

def test_apriori_bounds_hold_along_flow(a4, p1, rect):
    d1, d2, t_guard = apriori_bounds(rect, p1)
    assert d1 > 0 and d2 > 0 and t_guard > 0
    traj = evolve(rect, p1, IntegratorOptions(max_time=t_guard,
                                              max_step=t_guard / 20))
    L0 = rect.lengths
    (s,) = traj.series
    assert np.all(np.max(np.abs(s.h), axis=1) <= d1 * s.t + 1e-9)
    assert np.all(series_lengths(rect, s) >= L0 - d2 * s.t[:, None] - 1e-9)


def test_apriori_bounds_without_bounded_segment(a4):
    # a corner of two half-lines: no segment can halve, so T = +inf
    corner = build_curve(a4, [(0, 0)], "unbounded",
                         ray_directions=[(-1, 0), (0, 1)])
    p = FlowParams(alpha=1.0, window_radius=10.0)
    assert apriori_bounds(corner, p) == (np.inf, 0.0, np.inf)
    assert evolve(corner, p).status == STATUS_CONVERGED


def test_length_lower_bound_from_energy(a4, p1):
    # on every sample: L_i >= alpha * c_i^2 * delta_i / F  (the elastic term
    # of one segment can never exceed the whole energy)
    pinch = make_pinch(a4)
    traj = evolve(pinch, p1, IntegratorOptions(max_time=1.0))
    for k in range(traj.n_epochs):
        ref = traj.epochs[k]
        dseg = ref.anisotropy.delta[ref.facet_index]
        c2 = ref.transitions.astype(float) ** 2
        s = traj.series[k]
        lhs = series_lengths(ref, s)[:, ref.bounded]
        rhs_ = (c2 * dseg)[ref.bounded] / s.energy[:, None]
        assert np.all(lhs >= rhs_ - 1e-12)


# ----------------------------------------------------------------- events/restarts

def test_detect_vanishing_threshold(a4, rect):
    h = np.array([-1.1999999, 0.0, -1.1999999, 0.0])
    st = FlowState(rect, h, 0.0, 0)
    np.testing.assert_array_equal(detect_vanishing(st, IntegratorOptions()),
                                  [1, 3])
    assert len(detect_vanishing(FlowState(rect, np.zeros(4), 0.0, 0),
                                IntegratorOptions())) == 0


def test_restart_noop_and_guards(a4, p1, rect):
    st = FlowState(rect, np.zeros(4), 0.0, 0)
    assert restart(st, []) is st
    with pytest.raises(NonzeroCurvatureCollapse):
        restart(st, [1])  # transition number +1 there


def test_restart_merges_collapsed_connector(a4, p1):
    pinch = make_pinch(a4)
    # segment 3 is the short c=0 connector; push it down to hairline length
    d = np.zeros(12)
    d[2], d[4] = -0.1, 0.1  # the neighbors move toward each other
    slope = (lengths_from_heights(pinch, d)[3] - pinch.lengths[3]) / 1.0
    assert slope < 0
    u = (1e-12 - pinch.lengths[3]) / slope
    h = u * d
    assert abs(lengths_from_heights(pinch, h)[3]) < 1e-11
    st = FlowState(pinch, h, 0.37, 0)
    before = elastic_energy(pinch, p1, h)
    new = restart(st, [3])
    assert new.epoch == 1
    assert new.t == pytest.approx(0.37)
    assert new.reference.n == 10
    np.testing.assert_allclose(new.h, 0.0, atol=1e-15)
    after = elastic_energy(new.reference, p1)
    assert after <= before + 1e-10
    # merged segment keeps the combined length
    La = lengths_from_heights(pinch, h)
    assert np.any(np.abs(new.reference.lengths - (La[2] + La[4])) < 1e-9)


def test_pinch_evolution_restarts_once(a4, p1):
    pinch = make_pinch(a4)
    traj = evolve(pinch, p1, IntegratorOptions(max_time=0.6, substeps=2))
    assert traj.status == STATUS_MAX_TIME
    assert len(traj.restarts) == 1
    rec = traj.restarts[0]
    assert rec.vanished == (3,)
    assert rec.t == pytest.approx(0.2806, abs=5e-3)
    assert rec.merge_map == (0, 1, 2, -1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert rec.index_before == 0 and rec.index_after == 0
    assert pinch.transitions[3] == 0  # the vanished segment had c = 0
    assert traj.epochs[1].n == 10
    # energy does not increase across the restart
    k0, k1 = traj.series
    assert k1.energy[0] <= k0.energy[-1] + 1e-10
    # post-restart curve is admissible and reconstructible
    post = reconstruct_parallel(traj.epochs[1], traj.final_state.h)
    assert post.n == 10


def _closed_staircase(a4, k):
    """A rectangle whose top-right corner is cut into a descending staircase
    of k steps: 4 + 2k segments, every tread and riser with c = 0."""
    treads = [1.0 + 0.25 * (i % 3) for i in range(k)]
    risers = [0.3 + 0.1 * (i % 2) for i in range(k)]
    x, y = 2.0, sum(risers) + 1.0
    pts = [(0.0, 0.0), (0.0, y), (x, y)]
    for tread, riser in zip(treads, risers):
        y -= riser
        pts.append((x, y))
        x += tread
        pts.append((x, y))
    pts.append((x, 0.0))
    return build_curve(a4, pts, "closed")


# Measured at substeps 2, max_step 0.5 and t = 10: segment counts
# 10 -> 8 -> 6 -> 4 (STAIRCASE), 12 -> ... -> 6 (pinch), 8 -> 6 (octagon),
# 12 -> ... -> 4 and 20 -> ... -> 4 (staircases of 4 and 8 steps).
def test_restarts_bounded_by_segment_count(a4, a6, p1):
    # each restart removes a segment and merges its neighbors, so n falls at
    # every restart; a closed curve keeps at least 3 segments, so it
    # restarts at most n0 - 3 times, and its index never changes
    curves = [build_curve(a4, STAIRCASE, "closed"), make_pinch(a4),
              octagon_curve(a6), _closed_staircase(a4, 4),
              _closed_staircase(a4, 8)]
    for curve in curves:
        traj = evolve(curve, p1, IntegratorOptions(max_time=10.0, max_step=0.5,
                                                   substeps=2))
        counts = [ref.n for ref in traj.epochs]
        assert len(traj.restarts) >= 1
        assert all(b < a for a, b in zip(counts, counts[1:])), counts
        assert len(traj.restarts) <= curve.n - 3
        assert {curve_index(e) for e in traj.epochs} == {curve_index(curve)}


def _zigzag_profile(a4):
    """Unbounded zig-zag, n = 7: a half-line up into (0, 0), steps right and
    up to (5, 2), a half-line down.  Segment 5 has c = 1, the rest c = 0."""
    return build_curve(a4, [(0, 0), (2, 0), (2, 1), (3, 1), (3, 2), (5, 2)],
                       "unbounded", ray_directions=[(0.0, -1.0), (0.0, -1.0)])


def test_restart_on_unbounded_profile(a4):
    zz = _zigzag_profile(a4)
    assert zz.transitions[3] == 0
    # risers 2 and 4 move toward each other until tread 3 is a hairline
    d = np.zeros(zz.n)
    d[2], d[4] = -1.0, 1.0
    slope = lengths_from_heights(zz, d)[3] - zz.lengths[3]
    h = (1e-12 - zz.lengths[3]) / slope * d
    La = lengths_from_heights(zz, h)
    assert abs(La[3]) < 1e-11
    new, rec = flow._restart_with_record(FlowState(zz, h, 0.5, 0), [3])
    assert rec.vanished == (3,)
    assert rec.merge_map == (0, 1, 2, -1, 2, 3, 4)
    assert rec.index_before is None and rec.index_after is None
    ref = new.reference
    assert not ref.closed and ref.n == 5
    # the half-lines stay first and last, on their own lines
    np.testing.assert_array_equal(ref.bounded, [False, True, True, True, False])
    np.testing.assert_array_equal(ref.rays, zz.rays)
    np.testing.assert_array_equal(ref.facet_index[[0, -1]], zz.facet_index[[0, -1]])
    np.testing.assert_allclose(ref.vertices[[0, -1]], zz.vertices[[0, -1]],
                               atol=1e-12)
    # the merged riser spans both old ones
    assert ref.lengths[2] == pytest.approx(La[2] + La[4], abs=1e-9)
    p = FlowParams(alpha=1.0, window_radius=20.0)
    assert elastic_energy(ref, p) <= elastic_energy(zz, p, h) + 1e-10


def test_restart_guards_on_unbounded_profile(a4):
    # n = 3: both half-lines run upward, the middle tread has c = 0
    c = build_curve(a4, [(0, 0), (1, 0)], "unbounded",
                    ray_directions=[(0, -1), (0, 1)])
    assert c.transitions[1] == 0
    st = FlowState(c, np.zeros(3), 0.0, 0)
    with pytest.raises(NotAdmissibleAfterMerge,
                       match="both half-lines merged into one line"):
        restart(st, [1])
    for i in (0, 2):
        with pytest.raises(NotAdmissibleAfterMerge,
                           match=f"cannot remove segment {i}"):
            restart(st, [i])


def test_restart_record_ignores_order_and_duplicates(a4):
    # removing treads 1 and 3 folds risers 2 and 4 into the first
    # half-line's line, which keeps the half-line's offset
    zz = _zigzag_profile(a4)
    st = FlowState(zz, np.zeros(zz.n), 0.0, 0)
    new, rec = flow._restart_with_record(st, [1, 3])
    assert rec.vanished == (1, 3)
    assert rec.merge_map == (0, -1, 0, -1, 0, 1, 2)
    np.testing.assert_allclose(new.reference.vertices, [(0, 2), (5, 2)],
                               atol=1e-12)
    for van in ([3, 1], [3, 1, 3], np.array([[1], [3]])):
        assert flow._restart_with_record(st, van)[1] == rec


def _perturbed_convex_chain():
    """Unbounded convex-chain profile, its bounded heights perturbed."""
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    b = chain.bounded
    scale = 0.1 * chain.total_bounded_length / int(np.sum(b))
    h = np.where(b, np.random.default_rng(3).uniform(-1.0, 1.0, chain.n) * scale,
                 0.0)
    return reconstruct_parallel(chain, h)


def test_first_variation_takes_either_length_kind(lshape):
    # first_variation gives the same bits from true lengths (+inf on the
    # half-lines) and from windowed ones: c = 0 on a half-line, and its g
    # is zeroed
    p = FlowParams(alpha=1.0, window_radius=60.0)
    for curve in (_perturbed_convex_chain(), lshape):
        bumps = np.random.default_rng(5).uniform(-0.05, 0.05, curve.n)
        for h in (np.zeros(curve.n), np.where(curve.bounded, bumps, 0.0)):
            true = lengths_from_heights(curve, h)
            windowed = windowed_lengths(curve, p, h)
            assert np.isinf(true).any() != curve.closed
            g = first_variation(curve, p, h=h)
            for L in (true, windowed):
                assert first_variation(curve, p, lengths=L).tobytes() == g.tobytes()


def _frozen_lengths(ref, p, calls):
    """The windowed lengths block ``freeze`` computed for the epoch of
    ``ref``, from ``block_stencils``' record: L_w - S H, S H checked as a
    stencil product."""
    blocks = [(x, out) for c, x, scale, out in calls if c is ref]
    H, SH = (np.concatenate(part) for part in zip(*blocks))
    assert_stencil_product(ref, H, SH)
    return H, windowed_lengths(ref, p) - SH


def test_epoch_series_rows_match_state(a4, tmp_path, block_stencils):
    # closed with one restart, and unbounded (half-line rows of the windowed
    # energy).  W and max |h'| come from each row's own evaluation; F and
    # the bounded lengths from the row's lengths in freeze's block, whose
    # stencil has the row formula's bits, which a row's own call has only
    # above curve._DENSE_MAX_N segments
    runs = [("pinch", make_pinch(a4), FlowParams(alpha=1.0), 0.6, 2),
            ("chain", _perturbed_convex_chain(),
             FlowParams(alpha=1.0, window_radius=60.0), 2.0, 1)]
    for name, curve, p, max_time, n_epochs in runs:
        block_stencils.clear()
        traj = evolve(curve, p, IntegratorOptions(max_time=max_time, substeps=2))
        assert len(traj.series) == len(traj.epochs) == n_epochs
        files = emit_series(traj, name, str(tmp_path))
        for k, (ref, s) in enumerate(zip(traj.epochs, traj.series)):
            m = len(s.t)
            assert s.h.shape == (m, ref.n)
            assert {c.shape for c in (s.energy, s.dissipation, s.max_abs_rate,
                                      s.min_bounded_length,
                                      s.total_bounded_length)} == {(m,)}
            H, frozen = _frozen_lengths(ref, p, block_stencils)
            assert H.tobytes() == s.h.tobytes()
            b = ref.bounded
            sup = ref.supports[b]
            for j in range(m):
                st = FlowState(ref, s.h[j], s.t[j], k)
                L, r = lengths_from_heights(ref, s.h[j]), rhs(st, p)
                # each per-row column rounds exactly as its row's own sum
                assert s.dissipation[j] == np.sum(r[b] ** 2 * L[b] / sup)
                assert s.max_abs_rate[j] == np.max(np.abs(r))
                assert dissipation_rate(ref, r, L) == s.dissipation[j]
                L = frozen[j]
                assert s.energy[j] == elastic_energy(ref, p, lengths=L)
                assert s.min_bounded_length[j] == np.min(L[b])
                assert s.total_bounded_length[j] == np.sum(L[b])
            with open(tmp_path / files[k]) as fh:
                assert len(fh.read().splitlines()) == m + 1  # header + rows
            if k >= 1:
                assert s.t[0] == traj.restarts[k - 1].t


def test_epoch_rows_survive_capacity_growth(a4, monkeypatch):
    # with room for 2 rows to start with, the height array doubles again and
    # again in each epoch; every column comes out the same
    curve, p = make_pinch(a4), FlowParams(alpha=1.0)
    opts = IntegratorOptions(max_time=0.6, substeps=2)
    ref = evolve(curve, p, opts)
    monkeypatch.setattr(flow, "_MAX_CAPACITY_ELEMENTS", 0)
    grown = evolve(curve, p, opts)
    assert len(grown.series) == len(ref.series) == 2
    for a, b in zip(ref.series, grown.series):
        assert len(a.t) > 8
        for f in dataclasses.fields(EpochSeries):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _block_bases(a4, a6):
    """(curve, params, heights scale) of the block-form checks: a closed
    octagon, a windowed unbounded chain, a closed chain of 384 segments and
    the corner of two half-lines (n = 2, no bounded segment)."""
    corner = build_curve(a4, [(0.0, 0.0)], "unbounded",
                         ray_directions=[(-1.0, 0.0), (0.0, 1.0)])
    return [(octagon_curve(a6), FlowParams(alpha=0.7), 0.05),
            (_perturbed_convex_chain(), FlowParams(alpha=1.0,
                                                   window_radius=60.0), 0.05),
            (_perturbed_closed_chain(), FlowParams(alpha=1.0), 1e-3),
            (corner, FlowParams(alpha=1.0, window_radius=5.0), 0.0)]


def _block_heights(ref, m, scale, seed):
    """(m, n) heights of a small random flow, half-lines pinned at 0."""
    h = np.random.default_rng(seed).uniform(-scale, scale, (m, ref.n))
    if not ref.closed:
        h[:, [0, -1]] = 0.0
    return h


def test_block_forms_match_their_rows(a4, a6):
    # the stencil of an (m, n) block has the row formula's bits in each
    # row, and so has each row's own call on the 384-segment chain; a row's
    # dense product at smaller n lies within gamma_3 of S x.  Every figure
    # computed from given rows of windowed lengths comes out with the bits
    # of its 1-D call
    for k, (ref, p, scale) in enumerate(_block_bases(a4, a6)):
        H = _block_heights(ref, 7, scale, k)
        for alpha in (1.0, p.alpha):
            assert_stencil_product(ref, H, ref.stencil(H, alpha), alpha)
            for h in H:
                assert_stencil_product(ref, h, ref.stencil(h, alpha), alpha)
        L = windowed_lengths(ref, p) - ref.stencil(H)
        got = windowed_lengths(ref, p, lengths=L)
        assert got.tobytes() == np.array(
            [windowed_lengths(ref, p, lengths=x) for x in L]).tobytes()
        got = elastic_energy(ref, p, lengths=L)
        assert got.shape == (7,)
        assert got.tobytes() == np.array(
            [elastic_energy(ref, p, lengths=x) for x in L]).tobytes()


def test_freeze_matches_per_row_figures(a4, a6, block_stencils):
    # freeze computes F and the bounded min and total in row chunks that
    # tile the epoch; every row, across chunk ends and in the last, short
    # chunk, equals its own recomputation from that row of the chunk's
    # lengths, and a curve with no bounded segment reads 0
    for k, (ref, p, scale) in enumerate(_block_bases(a4, a6)):
        chunk = max(1, flow._FREEZE_ELEMENTS // ref.n)
        m = 2 * chunk + 3 if ref.n > 2 else 5
        H = _block_heights(ref, m, scale, k)
        # grows its height array
        rows = flow._OpenEpoch(ref, p, IntegratorOptions(stationarity_tol=1e-8),
                               4.0)
        for j, h in enumerate(H):
            rows.record(0.5 * j, h, 3.0 * j, np.full(ref.n, float(j)), 2.0 * j)
        block_stencils.clear()
        s = rows.freeze()
        assert [len(x) for _, x, _, _ in block_stencils] == (
            [chunk] * (m // chunk) + [m % chunk] * (m % chunk > 0))
        assert s.h.tobytes() == H.tobytes()
        frozen = _frozen_lengths(ref, p, block_stencils)[1]
        b = ref.bounded
        energy, low, total = [], [], []
        for L in frozen:
            energy.append(elastic_energy(ref, p, lengths=L))
            low.append(np.min(L[b]) if b.any() else 0.0)
            total.append(np.sum(L[b]))
        for column, want in [(s.energy, energy), (s.min_bounded_length, low),
                             (s.total_bounded_length, total),
                             (s.t, 0.5 * np.arange(m)),
                             (s.dissipation, 2.0 * np.arange(m)),
                             (s.dissipated, 3.0 * np.arange(m)),
                             (s.max_abs_rate, np.arange(m))]:
            assert column.tobytes() == np.asarray(want, dtype=float).tobytes()
        if ref.n == 2:
            assert not s.min_bounded_length.any()
            assert not s.total_bounded_length.any()


def test_window_left_by_a_clip_raises_from_evolve(monkeypatch):
    # the convex chain translates along its half-lines, so in a window a
    # half-line clip shrinks until it reaches its vanish threshold: an event,
    # located on the step's extension, which raises with its time, the last
    # row's.  A run in a window of radius 1e6 has the same rows, bit for bit
    # (first_variation reads no half-line entry), up to the step before the
    # clip's stages reach the edge and the steps shrink; the first of its
    # rows whose clip, in the smaller window, is at or below its threshold
    # is the first one past the raised time
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    near = 1.01 * float(np.linalg.norm(chain.vertices, axis=1).max())
    record, recorded = flow._OpenEpoch.record, []

    def spy(self, t, h, *args):
        recorded.append((t, h.tobytes()))
        return record(self, t, h, *args)

    for radius, opts, rows in [
            (near, IntegratorOptions(max_time=20.0), (16.30, 16.37)),
            (12.0, IntegratorOptions(max_time=100.0, max_step=0.5),
             (83.92, 84.42))]:
        p = FlowParams(alpha=1.0, window_radius=radius)
        recorded.clear()
        monkeypatch.setattr(flow._OpenEpoch, "record", spy)
        with pytest.raises(WindowTooSmall, match="left the window") as exc_info:
            evolve(chain, p, opts)
        monkeypatch.undo()
        t = recorded[-1][0]
        assert f"t={t:.6g}" in str(exc_info.value)

        wide = evolve(chain, FlowParams(alpha=1.0, window_radius=1e6), opts)
        assert wide.status == STATUS_MAX_TIME
        (s,) = wide.series
        same = [a == (u, x.tobytes()) for a, u, x in zip(recorded, s.t, s.h)]
        L_w = windowed_lengths(chain, p)
        thr = np.maximum(opts.vanish_fraction * L_w,
                         1e-10 * max(chain.total_bounded_length, 1.0))
        clips = (L_w - chain.stencil(s.h))[:, [0, -1]]
        j = int(np.flatnonzero((clips <= thr[[0, -1]]).any(axis=1))[0])
        assert same.index(False) >= j - 1
        assert s.t[j - 1] < t < s.t[j]
        assert (round(s.t[j - 1], 2), round(s.t[j], 2)) == rows
    # at radius 12 the crossing row's clip has run out
    assert 0.0 < clips[j - 1].min() < 0.03 and clips[j].min() < -0.04
    traj = evolve(chain, FlowParams(alpha=1.0, window_radius=near),
                  IntegratorOptions(max_time=10.0))
    assert traj.status == STATUS_MAX_TIME


def test_missing_window_fails_before_any_step(monkeypatch):
    # an unbounded curve needs window_radius: evolve and step raise before
    # any Runge-Kutta step, and step runs once the window is given
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    pairs, rk_pair = [], flow._rk_pair

    def spy(*args):
        pairs.append(args)
        return rk_pair(*args)

    monkeypatch.setattr(flow, "_rk_pair", spy)
    state = FlowState(chain, np.zeros(chain.n), 0.0, 0)
    bare = FlowParams(alpha=1.0)
    with pytest.raises(WindowTooSmall, match="window_radius is required"):
        evolve(chain, bare, IntegratorOptions(max_time=100.0))
    with pytest.raises(WindowTooSmall, match="window_radius is required"):
        step(state, bare, IntegratorOptions())
    assert pairs == []
    new, err = step(state, FlowParams(alpha=1.0, window_radius=60.0),
                    IntegratorOptions())
    assert len(pairs) >= 1 and new.t > 0.0 and err >= 0.0


def test_detect_vanishing_never_returns_a_half_line():
    # its thresholds come from true lengths, inf on the half-lines, where
    # the true length is inf too: inf <= inf, yet no half-line is returned.
    # At a height vector that shrinks a bounded segment below its
    # threshold, that segment is returned
    curve = _perturbed_convex_chain()
    b = curve.bounded
    thr = np.maximum(IntegratorOptions().vanish_fraction * curve.lengths,
                     1e-10 * max(curve.total_bounded_length, 1.0))
    bumps = np.random.default_rng(5).uniform(-0.05, 0.05, curve.n)
    k = int(np.flatnonzero(b)[curve.n // 2])
    unit = np.zeros(curve.n)
    unit[k] = 1.0
    rate = curve.stencil(unit)  # the lengths fall by rate per unit of h_k
    i = int(np.argmax(np.where(b, rate / curve.lengths, -np.inf)))
    collapse = unit * curve.lengths[i] / rate[i]  # L_i = 0 exactly, or nearly
    for h in (np.zeros(curve.n), np.where(b, bumps, 0.0), collapse):
        van = detect_vanishing(FlowState(curve, h, 0.0, 0), IntegratorOptions())
        L = lengths_from_heights(curve, h)
        assert np.isinf(L[~b]).all()
        assert van.tolist() == np.flatnonzero(b & (L <= thr)).tolist()
    assert i in van.tolist()


# ----------------------------------------------------------------- stage kernel

def _perturbed_closed_chain():
    """Closed right-angle chain with m = 64 (n = 384), its heights perturbed."""
    chain = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", closed=True, m=64), 1.0)
    scale = 0.1 * chain.total_bounded_length / chain.n
    h = np.random.default_rng(5).uniform(-1.0, 1.0, chain.n) * scale
    return reconstruct_parallel(chain, h)


def _stage_bases(a6, lshape):
    """(name, curve, params, max_time) of the stage-kernel bases: square,
    hexagon, an irregular pentagon, a windowed unbounded chain and a closed
    chain of 384 segments."""
    return [("lshape", lshape, FlowParams(alpha=1.0), 0.5),
            ("hexagon", wulff_curve(a6, 1.5), FlowParams(alpha=1.0), 0.5),
            ("pentagon", pentagon_curve(), FlowParams(alpha=0.7), 0.5),
            ("chain", _perturbed_convex_chain(),
             FlowParams(alpha=1.0, window_radius=60.0), 1.0),
            ("closed-chain", _perturbed_closed_chain(), FlowParams(alpha=1.0),
             0.1)]


def test_stage_kernel_matches_public_functions(a6, lshape, monkeypatch):
    # every height vector the stages build passes the public check, and its
    # unchecked lengths and rates equal windowed_lengths and rhs exactly; on
    # the bounded segments the lengths are lengths_from_heights'
    for name, curve, p, max_time in _stage_bases(a6, lshape):
        built = []
        stage_lengths = flow._stage_lengths

        def spy(ep, h):
            built.append(h)
            return stage_lengths(ep, h)

        monkeypatch.setattr(flow, "_stage_lengths", spy)
        traj = evolve(curve, p, IntegratorOptions(max_time=max_time,
                                                  substeps=2))
        monkeypatch.undo()
        (ref,) = traj.epochs
        ep = flow._OpenEpoch(ref, p, IntegratorOptions(), 0.0)
        b = ref.bounded
        assert len(built) > 50, name
        for h in built[::max(1, len(built) // 200)]:
            lengths = flow._stage_lengths(ep, h)
            np.testing.assert_array_equal(lengths, windowed_lengths(ref, p, h))
            np.testing.assert_array_equal(lengths[b],
                                          lengths_from_heights(ref, h)[b])
            if (lengths[ref.bounded] > 0.0).all():
                np.testing.assert_array_equal(
                    flow._height_rates(ref, p, lengths),
                    rhs(FlowState(ref, h, 0.0, 0), p))


# Dormand-Prince 5(4): the rows of stages 2 to 7, the last one also the 5th
# order weights, then the 4th order weights
DOPRI_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DOPRI_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
            187 / 2100, 1 / 40)


def _dopri_reference(h, k, dt):
    """One Dormand-Prince step from h with stage rates k, each tableau row
    added term by term, left to right: (stage heights, the error
    dt |(b5 - b4) k|, and per stage, then for the error, the scale
    max(|h|, dt sum_j |a_j k_j|) of its rounding).  The error has no h
    term: |h5 - h4| of the rounded h5 and h4 is only good to ulps of |h|."""
    def combine(coeffs, base):
        acc, mag = coeffs[0] * k[0], np.abs(coeffs[0] * k[0])
        for c, ki in zip(coeffs[1:], k[1:]):
            acc = acc + c * ki
            mag = mag + np.abs(c * ki)
        scales.append(np.maximum(np.abs(base), dt * mag))
        return acc * dt + base

    scales = []
    hs = [combine(row, h) for row in DOPRI_A]
    b5_b4 = np.subtract(DOPRI_A[-1] + (0.0,), DOPRI_B4)
    return hs, np.abs(combine(b5_b4, 0.0)), scales


# the largest deviation from the reference allowed for the stage heights,
# h5 and err, in units of eps times the rounding scale of each entry: 2.4
# measured, about 16 the worst case of two recursive sums of 8 terms
STEP_ULPS = 8


def test_dopri_step_matches_reference(a6, lshape, monkeypatch):
    # exactly: the kept stage rates and lengths are rhs and windowed_lengths
    # (on bounded segments lengths_from_heights) at the stage heights, the
    # last stage's rates are
    # the rates at h5, and the pinned half-line heights are +0.0; within a
    # few ulp of their rounding scale (the pair sums each row in another
    # order): the stage heights, h5 and err are the term-by-term tableau
    # sums of those rates
    stage_lengths, built = flow._stage_lengths, []

    def spy(ep, h):
        built.append(h)
        return stage_lengths(ep, h)

    monkeypatch.setattr(flow, "_stage_lengths", spy)
    eps = np.finfo(float).eps
    for name, curve, p, max_time in _stage_bases(a6, lshape):
        traj = evolve(curve, p, IntegratorOptions(max_time=max_time))
        ep = flow._OpenEpoch(curve, p, IntegratorOptions(), 0.0)
        bounded = curve.bounded
        (s,) = traj.series
        assert len(s.t) > 5, name
        for j in range(0, len(s.t) - 1, max(1, len(s.t) // 10)):
            h = s.h[j]
            k1 = rhs(FlowState(curve, h, s.t[j], 0), p)
            for dt in (s.t[j + 1] - s.t[j], 0.3 * (s.t[j + 1] - s.t[j])):
                built.clear()
                got = flow._rk_pair(ep, h, k1, dt)
                assert got is not None and len(built) == 6, name
                hs, err, scales = _dopri_reference(h, got.rates, dt)
                assert got.rates[0].tobytes() == k1.tobytes()
                assert built[-1].tobytes() == got.h.tobytes()
                for r, heights in enumerate(built, 1):
                    state = FlowState(curve, heights, 0.0, 0)  # checks h
                    assert got.rates[r].tobytes() == rhs(state, p).tobytes()
                    assert got.lengths[r].tobytes() == windowed_lengths(
                        curve, p, heights).tobytes(), (name, j, dt, r)
                    assert got.lengths[r][bounded].tobytes() == (
                        lengths_from_heights(curve, heights)[bounded].tobytes()
                    ), (name, j, dt, r)
                    if not curve.closed:
                        assert not np.signbit(heights[[0, -1]]).any()
                pairs = list(zip(built, hs, scales)) + [
                    (got.err, err, scales[6])]
                for a, b, scale in pairs:
                    # entries with a zero scale (the half-lines) are exact
                    assert np.all((a == b)[scale == 0.0]), (name, j, dt)
                    dev = np.abs(a - b)[scale > 0.0] / scale[scale > 0.0]
                    assert dev.max() <= STEP_ULPS * eps, (name, j, dt)


@pytest.mark.parametrize("bad", ["shape", "nan", "inf", "halfline"])
def test_bad_heights_rejected(bad):
    curve = _perturbed_convex_chain()
    p = FlowParams(alpha=1.0, window_radius=60.0)
    h = np.zeros(curve.n + 1 if bad == "shape" else curve.n)
    h[1] = {"nan": np.nan, "inf": np.inf}.get(bad, 0.0)
    if bad == "halfline":
        h[0] = 1e-3
    with pytest.raises(DimensionMismatch):
        FlowState(curve, h, 0.0, 0)
    with pytest.raises(DimensionMismatch):
        lengths_from_heights(curve, h)
    with pytest.raises(DimensionMismatch):
        reconstruct_parallel(curve, h)
    st = FlowState(curve, np.zeros(curve.n), 0.0, 0)
    st.h = h  # heights swapped in after the state was checked
    with pytest.raises(DimensionMismatch):
        rhs(st, p)
    for dt in (None, 0.01):
        with pytest.raises(DimensionMismatch):
            step(st, p, IntegratorOptions(), dt)


def test_windowed_rows_keep_halflines_pinned():
    p = FlowParams(alpha=1.0, window_radius=60.0)
    traj = evolve(_perturbed_convex_chain(), p,
                  IntegratorOptions(max_time=5.0, substeps=4))
    (s,) = traj.series
    assert len(s.t) > 100
    assert np.all(s.h[:, 0] == 0.0) and np.all(s.h[:, -1] == 0.0)


def test_rates_evaluated_once_per_state(a4, monkeypatch):
    # within an epoch, no state's rates are computed twice.  A state is its
    # height vector: near the event, distinct stage heights (1e-17 apart)
    # round to the same lengths, so the lengths alone do not tell states
    # apart.  first_variation receives lengths; the heights behind them are
    # read through a spy on flow._stage_lengths.
    stage_lengths = getattr(flow, "_stage_lengths", None)
    built = {}  # id of each length vector the stages build -> (it, heights)

    def stage_spy(ref, h):
        lengths = stage_lengths(ref, h)
        built[id(lengths)] = (lengths, h.tobytes())  # kept alive: ids unique
        return lengths

    seen, repeats = set(), []

    def spy(curve, p, h=None, lengths=None, out=None):
        heights = h.tobytes() if h is not None else built[id(lengths)][1]
        key = (id(curve), heights)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return first_variation(curve, p, h=h, lengths=lengths, out=out)

    monkeypatch.setattr(flow, "_stage_lengths", stage_spy, raising=False)
    monkeypatch.setattr(flow, "first_variation", spy)
    traj = evolve(make_pinch(a4), FlowParams(alpha=1.0),
                  IntegratorOptions(max_time=0.6, substeps=2))
    assert traj.n_epochs == 2
    assert len(seen) > 100
    assert not repeats, f"{len(repeats)} of {len(seen)} states evaluated twice"


def test_event_refined_past_overshoot(a6, monkeypatch):
    # evolve accepts only steps that keep every length positive, and the
    # locator returns a fraction theta of the step whose continuous
    # extension lands the vanishing connectors in (0, threshold], within
    # the event-time tolerance of one that keeps them above it; the mirror
    # pair's roots differ by round-off, and both vanish in the one row
    events = []
    locate = flow._locate_event

    def spy(*args):
        events.append(args)
        return locate(*args)

    monkeypatch.setattr(flow, "_locate_event", spy)
    traj = evolve(octagon_curve(a6), FlowParams(alpha=2.636701360340325),
                  IntegratorOptions(max_time=0.6217225483672809, substeps=2))
    assert [r.vanished for r in traj.restarts] == [(4, 5)]
    for ref, s in zip(traj.epochs, traj.series):
        assert np.all(series_lengths(ref, s)[:, ref.bounded] > 0.0)

    (args,) = events
    ep, t, h, lengths, dt, stages = args
    ref, thr, opts = ep.ref, ep.thr, ep.opts
    for o in (opts, dataclasses.replace(opts, abs_tol=opts.abs_tol / 100)):
        theta = locate(flow._OpenEpoch(ref, ep.p, o, 0.0), t, h, lengths, dt,
                       stages)
        lens = flow._stage_lengths(ep, flow._extension(h, dt, stages, theta)[1])
        assert flow._vanished(lens, thr).tolist() == [4, 5]
        assert np.all(lens[ref.bounded] > 0.0)
        assert 0.0 < theta < 1.0
        tol = max(o.abs_tol, 1e-14 * max(1.0, abs(t), dt)) / dt
        before = flow._extension(h, dt, stages, max(theta - tol, 0.0))[1]
        assert not len(flow._vanished(flow._stage_lengths(ep, before), thr))


def _restarting_run(a4, a6, name):
    """(curve, max_time) of a run with one restart: the octagon or the pinch."""
    if name == "octagon":
        return octagon_curve(a6), 1.0
    return make_pinch(a4), 0.6


def _probe_run(a4, a6, name):
    """(curve, max_time) of a run whose every event ends in a restart: the
    octagon, the pinch, or a closed staircase of the restart-count test."""
    if name == "staircase":
        return build_curve(a4, STAIRCASE, "closed"), 1.0
    if name.startswith("staircase-"):
        return _closed_staircase(a4, int(name.split("-")[1])), 10.0
    return _restarting_run(a4, a6, name)


@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["octagon", "pinch", "staircase",
                                  "staircase-4", "staircase-8"])
def test_event_located_in_few_probes(a4, a6, name, substeps, monkeypatch):
    # the first root of the length quartics on the step's continuous
    # extension, checked on at most two rows: the root's, and the root
    # moved past round-off when that row falls a hair short (1.49 length
    # evaluations per event on the 192 events of the seed 1-3 stair-cascade
    # batches).  The locator evaluates lengths, never rates: no step and no
    # first variation inside it.  Each event row is the extension at the located
    # theta bit for bit, or the step's end at theta = 1.
    curve, max_time = _probe_run(a4, a6, name)
    locate, stage_lengths = flow._locate_event, flow._stage_lengths
    gaps, inside, events = [], [], []

    def counted_locate(*args):
        gaps.append(0)
        inside.append(True)
        try:
            events.append((args, locate(*args)))
            return events[-1][1]
        finally:
            inside.pop()

    def counted_lengths(ref, h):
        if inside:
            gaps[-1] += 1
        return stage_lengths(ref, h)

    def forbidden(name, fn):
        def call(*args, **kwargs):
            assert not inside, f"{name} called inside _locate_event"
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(flow, "_locate_event", counted_locate)
    monkeypatch.setattr(flow, "_stage_lengths", counted_lengths)
    monkeypatch.setattr(flow, "_rk_pair", forbidden("_rk_pair", flow._rk_pair))
    monkeypatch.setattr(flow, "first_variation",
                        forbidden("first_variation", flow.first_variation))
    traj = evolve(curve, FlowParams(alpha=1.0),
                  IntegratorOptions(max_time=max_time, substeps=substeps))
    assert len(gaps) == len(traj.restarts) >= 1
    assert max(gaps) <= 2
    for k, ((_, t, h, _, dt, stages), theta) in enumerate(events):
        s = traj.series[k]
        if theta < 1.0:
            row = flow._extension(h, dt, stages, theta)[1]
            assert s.t[-1] == t + theta * dt
        else:
            row = stages.h
            assert theta == 1.0
        assert s.h[-1].tobytes() == row.tobytes()
        assert s.t[-1] == traj.restarts[k].t


@pytest.mark.parametrize("name", ["pinch", "octagon", "staircase-4"])
def test_one_vanish_test_per_step(a4, a6, name, monkeypatch):
    # each accepted step's end is tested against the vanish thresholds once,
    # and that test is the step's event set; only an event row inside the
    # step (theta < 1) is tested again
    curve, max_time = _probe_run(a4, a6, name)
    vanished, attempt, locate = (flow._vanished, flow._attempt_step,
                                 flow._locate_event)
    tests, steps, thetas = [], [], []

    def counted(fn, calls):
        def call(*args):
            calls.append(fn(*args))
            return calls[-1]
        return call

    monkeypatch.setattr(flow, "_vanished", counted(vanished, tests))
    monkeypatch.setattr(flow, "_attempt_step", counted(attempt, steps))
    monkeypatch.setattr(flow, "_locate_event", counted(locate, thetas))
    traj = evolve(curve, FlowParams(alpha=1.0),
                  IntegratorOptions(max_time=max_time))
    event_rows = sum(theta < 1.0 for theta in thetas)
    assert len(thetas) == len(traj.restarts) >= 1 and event_rows >= 1
    assert len(tests) == len(steps) + event_rows


# Measured per epoch at substeps 1-4 (default options otherwise): the most
# attempts whose stage leaves the admissible region is 7 on the closed
# staircase of 4 steps and 6 on STAIRCASE; halving every such attempt took
# 31-37 and 27-35.
OVERSHOOTS_PER_EPOCH_MAX = 10


@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["staircase", "staircase-4"])
def test_overshoot_retried_at_the_crossing(a4, a6, name, substeps, monkeypatch):
    # a stage that takes only still segments to zero length or below is
    # retried at its linear crossing, not at half the step, so few attempts
    # per epoch leave the admissible region
    curve, max_time = _probe_run(a4, a6, name)
    rk_pair, overshoots = flow._rk_pair, {}

    def spy(ep, *args):
        res = rk_pair(ep, *args)
        if not isinstance(res, flow._Stages):  # a stage overshot
            overshoots[ep] = overshoots.get(ep, 0) + 1
        return res

    monkeypatch.setattr(flow, "_rk_pair", spy)
    traj = evolve(curve, FlowParams(alpha=1.0),
                  IntegratorOptions(max_time=max_time, substeps=substeps))
    assert len(traj.restarts) >= 2 and overshoots
    assert max(overshoots.values()) <= OVERSHOOTS_PER_EPOCH_MAX, overshoots


def test_still_segments(a4, a6):
    # still: c = 0 on a segment and on both neighbours, so its height rate
    # is 0, and the pinned half-lines; a zero-transition segment next to a
    # curved one is not
    p = FlowParams(alpha=1.0)
    stairs = _closed_staircase(a4, 4)  # the treads and risers are 2..9
    assert stairs.transitions.tolist() == [1, 1] + [0] * 8 + [1, 1]
    octagon = octagon_curve(a6)
    assert octagon.transitions.tolist() == [1, 1, 1, 1, 0, 0, 1, 1]
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    zigzag = _zigzag_profile(a4)  # segment 4, c = 0, meets 5, c = 1
    for curve, still in [
            (stairs, [0, 0, 0] + [1] * 6 + [0, 0, 0]),
            (build_curve(a4, STAIRCASE, "closed"), [0, 0, 0, 1, 1, 1, 1, 0, 0, 0]),
            (octagon, [0] * 8),
            (make_pinch(a4), [0] * 12),
            (chain, [1] + [0] * (chain.n - 2) + [1]),
            (zigzag, [1, 1, 1, 1, 0, 0, 1])]:
        q = p if curve.closed else FlowParams(alpha=1.0, window_radius=60.0)
        ep = flow._OpenEpoch(curve, q, IntegratorOptions(), 0.0)
        assert ep.still.tolist() == [bool(x) for x in still]
        rates = flow._height_rates(curve, q, ep.L_w)
        assert not rates[ep.still].any()


def test_clip_event_reached_without_halving(monkeypatch):
    # the convex chain in a window 1.01 times its junction radius: a stage
    # that takes a (pinned, so still) half-line clip to 0 aims the retry at
    # the clip's crossing, and the row before the event row is a full step's
    # end; halving recorded 7 rows between t = 16.270 and the event row
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    near = 1.01 * float(np.linalg.norm(chain.vertices, axis=1).max())
    record, rows = flow._OpenEpoch.record, []

    def spy(self, t, *args):
        rows.append(t)
        return record(self, t, *args)

    monkeypatch.setattr(flow._OpenEpoch, "record", spy)
    with pytest.raises(WindowTooSmall, match="left the window at t=16.3127"):
        evolve(chain, FlowParams(alpha=1.0, window_radius=near),
               IntegratorOptions(max_time=20.0))
    assert rows[-2] < 16.2701 < rows[-1]


@pytest.mark.parametrize("substeps", [1, 2])
def test_singular_vanishing_halves(a6, substeps):
    # the octagon's vanishing pair (4, 5) has c = 0 between curved segments:
    # its length falls like (T - t)^(1/2), not linearly, so an overshoot
    # there halves the step; aimed at a linear crossing, this run ended in
    # StepUnderflow at t = 0.683279 instead of restarting
    traj = evolve(octagon_curve(a6), FlowParams(alpha=0.39196),
                  IntegratorOptions(max_time=1.3151, vanish_fraction=5.05e-8,
                                    substeps=substeps))
    (rec,) = traj.restarts
    assert rec.vanished == (4, 5)
    assert f"{rec.t:.6f}" == "0.683279"


def test_restart_times_are_python_floats(a4, p1):
    # a located event time is a float, not a numpy scalar, so the restart
    # records and every later epoch's times are too
    traj = evolve(_closed_staircase(a4, 4), p1,
                  IntegratorOptions(max_time=10.0, max_step=0.5, substeps=2))
    assert len(traj.restarts) == 4
    assert all(type(rec.t) is float for rec in traj.restarts)


def test_event_located_on_a_long_step(rect, monkeypatch):
    # a step of 200 at t = 0 with abs_tol 1e-15.  With seven equal stage
    # rates the extension's weights sum to theta, so the heights move
    # linearly in theta and the crossing time is exact.  The row at the
    # root lies 1.9e-15 above the threshold, and a move of 2^-50 max L /
    # |dL/dtheta| still leaves it 1.4e-16 above, so the locator moves 2^-48
    ep = flow._OpenEpoch(rect, FlowParams(alpha=1.0),
                         IntegratorOptions(abs_tol=1e-15), 0.0)
    ep.thr = thr = np.full(4, 1e-6)
    d = np.eye(4)[0]
    shrink = flow._stage_lengths(ep, -d) - rect.lengths  # length change per unit
    j = int(np.argmin(shrink))
    k1 = d * rect.lengths[j] / shrink[j] / 200.0  # segment j is gone at dt = 200
    extension, probes = flow._extension, []

    def probe(*args):
        probes.append(args[-1])
        assert len(probes) <= 2
        return extension(*args)

    monkeypatch.setattr(flow, "_extension", probe)
    dt = 200.0 * (1.0 - 1e-9)
    lengths = np.zeros((7, 4))
    lengths[6] = flow._stage_lengths(ep, dt * k1)
    stages = flow._Stages(dt * k1, None, np.tile(k1, (7, 1)), lengths)
    theta = flow._locate_event(ep, 0.0, np.zeros(4), rect.lengths, dt, stages)
    lens = flow._stage_lengths(ep, extension(np.zeros(4), dt, stages, theta)[1])
    assert 0.0 < lens[j] <= thr[j]
    assert theta * dt == pytest.approx(200.0 * (1.0 - thr[j] / rect.lengths[j]),
                                       abs=2e-12)


# Measured against scipy's DOP853 (rtol 1e-12, atol 1e-14) with a terminal
# event on the zero-transition lengths: the first restart time's relative
# error at substeps 1, 2 and 4 is 1.30e-12, 1.02e-12 and 2.47e-14 on the
# pinch, and 8.69e-9, 7.54e-10 and 2.28e-11 on the octagon.
RESTART_TIME_RTOL = {"pinch": (1e-11, 3e-11, 5e-13),
                     "octagon": (5e-8, 5e-9, 2e-10)}


def _dop853(curve, p, max_time, opts):
    """scipy's DOP853 on the height ODE up to the first time a
    zero-transition segment reaches its vanish threshold, with its dense
    output."""
    thr = np.maximum(opts.vanish_fraction * curve.lengths,
                     1e-10 * max(curve.total_bounded_length, 1.0))
    watch = curve.bounded & (curve.transitions == 0)

    def rates(t, h):
        try:
            return rhs(FlowState(curve, h, t, 0), p)
        except ZeroLengthSegment:  # a trial stage off the region: rejected
            return np.full(curve.n, 1e30)

    def event(t, h):
        return float(np.min((lengths_from_heights(curve, h) - thr)[watch]))

    event.terminal, event.direction = True, -1
    return solve_ivp(rates, (0.0, max_time), np.zeros(curve.n),
                     method="DOP853", rtol=1e-12, atol=1e-14, events=event,
                     dense_output=True)


def _dop853_restart_time(curve, p, max_time, opts):
    """The first restart time, from ``_dop853``'s terminal event."""
    return float(_dop853(curve, p, max_time, opts).t_events[0][0])


@pytest.mark.parametrize("name", ["pinch", "octagon"])
def test_restart_time_matches_dop853(a4, a6, name):
    # the located restart time against an independent solver's terminal
    # event; the error falls as substeps tightens the step control where
    # integration error dominates it: on the pinch substeps 1 and 2 read
    # about the same, so substeps 1 has its bound only
    curve, max_time = _restarting_run(a4, a6, name)
    p = FlowParams(alpha=1.0)
    t_ref = _dop853_restart_time(curve, p, max_time, IntegratorOptions())
    errors = []
    for k, bound in zip((1, 2, 4), RESTART_TIME_RTOL[name]):
        traj = evolve(curve, p, IntegratorOptions(max_time=max_time, substeps=k))
        errors.append(abs(traj.restarts[0].t - t_ref) / t_ref)
        assert errors[-1] < bound
    ordered = errors if name == "octagon" else errors[1:]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


# Measured against _dop853's dense output at three times in the first epoch
# (pinch 0.05, 0.15, 0.25; octagon 0.1, 0.3, 0.45): the largest relative
# height error at substeps 1 and 4 is 1.79e-9 and 1.33e-13 on the pinch,
# and 7.69e-8 and 1.05e-10 on the octagon.
REQUESTED_HEIGHT_RTOL = {"pinch": (5e-9, 5e-13), "octagon": (2e-7, 3e-10)}
REQUESTED_TIMES = {"pinch": (0.05, 0.15, 0.25), "octagon": (0.1, 0.3, 0.45)}


@pytest.mark.parametrize("name", ["pinch", "octagon"])
def test_requested_rows_match_dop853(a4, a6, name):
    # the row at a requested time, taken from the extension of the step
    # that spans it, against an independent solver's dense output
    curve, max_time = _restarting_run(a4, a6, name)
    p = FlowParams(alpha=1.0)
    times = REQUESTED_TIMES[name]
    sol = _dop853(curve, p, max_time, IntegratorOptions())
    for k, bound in zip((1, 4), REQUESTED_HEIGHT_RTOL[name]):
        s = evolve(curve, p, IntegratorOptions(max_time=max_time, substeps=k),
                   times=times).series[0]
        for t in times:
            (j,) = np.flatnonzero(s.t == t)
            want = sol.sol(t)
            assert np.abs(s.h[j] - want).max() < bound * np.abs(want).max()


# ----------------------------------------------------------------- invariants

# Measured on these five curves (660 runs, alpha in [0.5, 2], substeps 1 and
# 2, max_time 0.5 to 1.5): the scaled runs agreed to 4.8e-9 in final energy
# and 1.4e-9 in restart time, relative.  Not to rounding, because the first
# step size 0.01 / max|h'| scales by lam rather than lam^2, so the two runs
# take different steps, each within rel_tol = 1e-8.
SCALING_ENERGY_RTOL = 2e-8
SCALING_RESTART_RTOL = 5e-9


def _scaling_bases(a4, a6):
    """Closed curves: a rectangle, an L-shape and the pinch on the square,
    the Wulff hexagon and a non-convex 8-gon on the hexagon."""
    rect = build_curve(a4, [(-1.8, 1.2), (1.8, 1.2), (1.8, -1.2), (-1.8, -1.2)],
                       "closed")
    lshape = build_curve(a4, [(0, 0), (4, 0), (4, 2), (2, 2), (2, 6), (0, 6)],
                         "closed")
    return [rect, lshape, make_pinch(a4), wulff_curve(a6, 1.5), octagon_curve(a6)]


@settings(max_examples=40, deadline=None)
@given(which=st.integers(0, 4), lam=st.sampled_from([0.5, 2.0]),
       alpha=st.floats(0.5, 2.0), substeps=st.integers(1, 2))
def test_parabolic_scaling(a4, a6, which, lam, alpha, substeps):
    # Gamma run with alpha / lam^2 against lam * Gamma run with alpha, its
    # times scaled by lam^2 and its height tolerance by lam:
    # F_alpha(lam Gamma) = lam F_{alpha / lam^2}(Gamma), restarts at lam^2 t
    curve = _scaling_bases(a4, a6)[which]
    opts = IntegratorOptions(max_time=1.0, substeps=substeps)
    small = evolve(curve, FlowParams(alpha=alpha / lam**2), opts)
    big = evolve(
        build_curve(curve.anisotropy, lam * np.asarray(curve.vertices), "closed"),
        FlowParams(alpha=alpha),
        dataclasses.replace(opts, max_time=lam**2 * opts.max_time,
                            max_step=lam**2 * opts.max_step,
                            min_step=lam**2 * opts.min_step,
                            abs_tol=lam * opts.abs_tol,
                            stationarity_tol=opts.stationarity_tol / lam))
    assert big.status == small.status
    assert big.series[-1].t[-1] == pytest.approx(lam**2 * small.series[-1].t[-1],
                                                 rel=1e-14)
    assert big.series[-1].energy[-1] == pytest.approx(
        lam * small.series[-1].energy[-1], rel=SCALING_ENERGY_RTOL)
    assert len(big.restarts) == len(small.restarts)
    for rb, rs in zip(big.restarts, small.restarts):
        assert rb.vanished == rs.vanished
        assert rb.t == pytest.approx(lam**2 * rs.t, rel=SCALING_RESTART_RTOL)


# every column of an EpochSeries
_ROW_COLUMNS = ("t", "h", "energy", "dissipation", "dissipated", "max_abs_rate",
                "min_bounded_length", "total_bounded_length")


QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])  # (x, y) -> (-y, x)


def _rotated(curve, rot):
    """``curve`` turned by the rotation matrix ``rot``, rays too."""
    v = np.asarray(curve.vertices) @ rot.T
    if curve.closed:
        return build_curve(curve.anisotropy, v, "closed")
    return build_curve(curve.anisotropy, v, "unbounded",
                       ray_directions=np.asarray(curve.rays) @ rot.T)


def _equivariance_runs(a4):
    """(curve, params, options): the pinch, the closed staircase and the
    windowed convex chain on the square."""
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    p = FlowParams(alpha=1.0)
    return [(make_pinch(a4), p, IntegratorOptions(max_time=2.0, substeps=2)),
            (build_curve(a4, STAIRCASE, "closed"), p,
             IntegratorOptions(max_time=10.0, max_step=0.5, substeps=2)),
            (chain, FlowParams(alpha=1.0, window_radius=60.0),
             IntegratorOptions(max_time=20.0, substeps=4))]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["pinch", "staircase",
                                                  "convex-chain"])
def test_square_rotation_equivariance(a4, which):
    # the quarter turn (x, y) -> (-y, x) maps the square's facets onto
    # facets and every height ODE onto itself: each epoch's rows and every
    # restart come out bit for bit the same
    curve, p, opts = _equivariance_runs(a4)[which]
    base = evolve(curve, p, opts)
    turned = evolve(_rotated(curve, QUARTER_TURN), p, opts)
    assert turned.status == base.status
    assert turned.restarts == base.restarts
    assert turned.n_epochs == base.n_epochs
    for s, s0 in zip(turned.series, base.series):
        for c in _ROW_COLUMNS:
            assert getattr(s, c).tobytes() == getattr(s0, c).tobytes()


# Measured on the octagon turned by 60 degrees (max_time 1): the restart
# times agree to 1.1e-13 relative, while the two step sequences part at
# round-off and rows of equal index lie up to 1.1e-7 apart in t.
HEXAGON_RESTART_RTOL = 1e-12


def test_hexagon_rotation_equivariance(a6):
    curve, p = octagon_curve(a6), FlowParams(alpha=1.0)
    opts = IntegratorOptions(max_time=1.0)
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    base = evolve(curve, p, opts)
    turned = evolve(_rotated(curve, np.array([[c, -s], [s, c]])), p, opts)
    assert turned.status == base.status
    assert [e.n for e in turned.epochs] == [e.n for e in base.epochs] == [8, 6]
    assert [r.vanished for r in turned.restarts] == \
        [r.vanished for r in base.restarts] == [(4, 5)]
    assert turned.restarts[0].t == pytest.approx(base.restarts[0].t,
                                                 rel=HEXAGON_RESTART_RTOL)


# ----------------------------------------------------------------- dissipation

def test_dissipation_residual_small(a4, p1, wulff2):
    traj = evolve(wulff2, p1, IntegratorOptions(
        max_time=2.0, max_step=0.5, substeps=4,
        rel_tol=1e-8, abs_tol=1e-10))
    assert dissipation_residual(traj) < 1e-6


def test_dissipation_residual_needs_samples(a4, p1, wulff2):
    e = elastic_energy(wulff2, p1)
    s = EpochSeries(np.zeros(1), np.zeros((1, 4)), np.array([e]), np.zeros(1),
                    np.zeros(1), np.zeros(1), wulff2.lengths.min(keepdims=True),
                    wulff2.lengths.sum(keepdims=True))
    lonely = Trajectory(p1, IntegratorOptions(), epochs=[wulff2], series=[s])
    with pytest.raises(InsufficientSamples):
        dissipation_residual(lonely)


# the stage times of the Dormand-Prince pair, as fractions of the step
DOPRI_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])


def test_cumulative_quadrature_exact_on_quadratics():
    # Q = int W dt rides on the step: its 5th order weights, and the
    # continuous extension's weights at every row inside the step,
    # integrate a quadratic W(t) from its values at the stage times exactly
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t, dt, q = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2.0), rng.uniform()
        grid = dt / rng.integers(2, 9)
        c = rng.uniform(-1.0, 1.0, 3)

        def prim(s):  # an antiderivative of W
            return c[0] * s + c[1] * s**2 / 2 + c[2] * s**3 / 3

        s = t + DOPRI_C * dt
        w = c[0] + c[1] * s + c[2] * s**2
        stages = flow._Stages(np.zeros(1), None, np.zeros((7, 1)), None)
        rows = list(flow._extension_rows(t, np.zeros(1), q, dt, t + dt, grid,
                                         stages, w))
        assert rows and all(r[0] == round(r[0] / grid) * grid for r in rows)
        scale = np.abs(c).sum() * (1.0 + abs(t) + dt) ** 3
        for t_j, _, q_j in rows + [(t + dt, None, q + dt * (flow._B5 @ w))]:
            assert q_j - q == pytest.approx(prim(t_j) - prim(t), abs=1e-14 * scale)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 40, 41, 1000, 1001])
def test_stage_block_dissipation_matches_loop(a6, m):
    # dissipation_rate of (m, n) blocks sums each row as the 1-D call on
    # that row does, bit for bit, on a closed curve and on one with
    # half-lines (whose rows are sliced)
    rng = np.random.default_rng(m)
    for ref in (octagon_curve(a6), _perturbed_convex_chain()):
        rates = rng.standard_normal((m, ref.n))
        lengths = rng.uniform(0.1, 3.0, (m, ref.n))
        got = dissipation_rate(ref, rates, lengths)
        assert got.shape == (m,)
        want = [dissipation_rate(ref, r, L) for r, L in zip(rates, lengths)]
        assert got.tobytes() == np.array(want).tobytes()


def test_epoch_residual_drops_repeated_times():
    # the residual is the spread of F + Q over the rows; a repeated row (an
    # event row and the next epoch's first row share t) changes nothing.
    # With F = F0 - Q on a dyadic grid every operation is exact.
    q = np.array([0.0, 0.5, 0.5, 1.0, 1.5, 2.0])
    assert flow.epoch_dissipation_residual(10.0 - q, q) == 0.0
    assert flow.epoch_dissipation_residual(10.0 - q[[0, 1, 3]], q[[0, 1, 3]]) == 0.0
    assert flow.epoch_dissipation_residual(
        np.array([10.0, 9.0, 9.0]), np.array([0.0, 0.75, 0.75])) == 0.25


# The Wulff square of radius 2 relaxing to radius 1 by t = 10: after t of
# about 3 its steps at rel_tol / k^5 reach max_step / k and beyond, so a
# step spans several rows of the grid.
def _wulff_run(wulff2, p1, substeps):
    return evolve(wulff2, p1, IntegratorOptions(
        max_time=10.0, rel_tol=1e-7, abs_tol=1e-9, max_step=0.5,
        substeps=substeps))


# Measured on _wulff_run at substeps 4: the largest |F + Q - F(0)| over the
# rows is 6.1e-11, F(0) = 20.
ENERGY_BALANCE_ATOL = 3e-10


def test_dissipated_balances_energy(a4, p1, wulff2):
    (s,) = _wulff_run(wulff2, p1, 4).series
    assert s.dissipated[0] == 0.0 and np.all(np.diff(s.dissipated) > 0.0)
    np.testing.assert_allclose(s.energy + s.dissipated, s.energy[0], rtol=0.0,
                               atol=ENERGY_BALANCE_ATOL)


def test_dissipated_restarts_each_epoch(a4):
    traj = evolve(make_pinch(a4), FlowParams(alpha=1.0),
                  IntegratorOptions(max_time=0.6, substeps=2))
    assert traj.n_epochs == 2
    for s in traj.series:
        assert s.dissipated[0] == 0.0
        assert np.all(np.diff(s.dissipated) >= 0.0) and s.dissipated[-1] > 0.0
        D = s.energy + s.dissipated
        assert D.max() - D.min() <= 1e-9 * s.energy[0]


# ----------------------------------------------------------------- extension

def _filled_rows(monkeypatch):
    """A list that collects (t, h) of every row evolve takes from a step's
    continuous extension."""
    filled, rows = [], flow._extension_rows

    def spy(*args):
        for row in rows(*args):
            filled.append(row[:2])
            yield row

    monkeypatch.setattr(flow, "_extension_rows", spy)
    return filled


# Measured on _wulff_run at substeps 4: the 7 filled rows' heights lie within
# 2.3e-11 of the scalar ODE, and every row within 2.3e-11.
EXTENSION_HEIGHT_ATOL = 1e-10


def test_extension_rows_match_scalar_ode(a4, p1, wulff2, monkeypatch):
    # radius ODE dR/dt = -1/R + 1/R^3, heights h_i = R - R0 on all four sides
    sol = solve_ivp(lambda t, R: -1 / R + 1 / R**3, (0.0, 10.0), [2.0],
                    rtol=1e-13, atol=1e-14, dense_output=True)
    filled = _filled_rows(monkeypatch)
    (s,) = _wulff_run(wulff2, p1, 4).series
    assert len(filled) >= 5
    for t, h in filled:
        assert np.max(np.abs(h - (sol.sol(t)[0] - 2.0))) < EXTENSION_HEIGHT_ATOL
    assert np.max(np.abs(s.h - (sol.sol(s.t)[0] - 2.0)[:, None])) \
        < EXTENSION_HEIGHT_ATOL


@pytest.mark.parametrize("substeps", [1, 2, 4, 8])
def test_extension_rows_on_the_grid(a4, p1, wulff2, substeps, monkeypatch):
    # every filled row is a row, exactly on a multiple j*g of the spacing
    # g = max_step / k; no two rows lie more than g apart; at k = 1 no row is
    # filled
    filled = _filled_rows(monkeypatch)
    (s,) = _wulff_run(wulff2, p1, substeps).series
    g = 0.5 / substeps
    assert all(t == round(t / g) * g for t, _ in filled)
    assert {t for t, _ in filled} <= set(s.t.tolist())
    assert np.diff(s.t).max() <= g * (1.0 + 1e-12)
    assert (len(filled) == 0) == (substeps == 1)


def test_extension_rows_built_only_when_a_row_is_inside(a4, p1, wulff2,
                                                        monkeypatch):
    # at substeps 1 a step spans no grid multiple, so the extension rows are
    # built only for the steps that span a requested time: one per time
    rows, calls = flow._extension_rows, []

    def spy(*args):
        calls.append(args[0])
        return rows(*args)

    monkeypatch.setattr(flow, "_extension_rows", spy)
    opts = IntegratorOptions(max_time=10.0, max_step=0.5)
    (s,) = evolve(wulff2, p1, opts).series
    assert calls == [] and len(s.t) > 10
    (s,) = evolve(wulff2, p1, opts, times=[1.3, 0.0, 10.0, 11.0]).series
    assert len(calls) == 1 and 1.3 in s.t.tolist()


@pytest.mark.parametrize("name", ["wulff", "pinch"])
def test_requested_times_add_rows_only(a4, p1, wulff2, name):
    # a requested time inside a step (a long one on the Wulff square at
    # substeps 4, short ones on the pinch) becomes one row, however often it
    # is asked for, in the epoch that spans it; t = 0, a step's end, a
    # restart time, max_time and times outside the run add none, and every
    # other row keeps its bits
    if name == "wulff":
        curve, inside = wulff2, [0.1234, 2.3, 7.77]
        opts = IntegratorOptions(max_time=10.0, rel_tol=1e-7, abs_tol=1e-9,
                                 max_step=0.5, substeps=4)
    else:
        curve, inside = make_pinch(a4), [0.1234, 0.3, 0.55]
        opts = IntegratorOptions(max_time=0.6)
    plain = evolve(curve, p1, opts)
    rows = np.concatenate([s.t for s in plain.series])
    assert not np.isin(inside, rows).any()
    times = inside + inside[1:2] + [0.0, float(rows[3]), opts.max_time, -1.0,
                                    2 * opts.max_time]
    times += [r.t for r in plain.restarts]
    traj = evolve(curve, p1, opts, times=times[::-1])
    assert (traj.status, traj.restarts) == (plain.status, plain.restarts)
    assert traj.n_epochs == plain.n_epochs
    added = []
    for s, s0 in zip(traj.series, plain.series):
        new = ~np.isin(s.t, s0.t)
        added += s.t[new].tolist()
        assert s0.t[0] < s.t[new].min(initial=np.inf)
        assert s.t[new].max(initial=-np.inf) < s0.t[-1]
        for c in _ROW_COLUMNS:
            assert getattr(s, c)[~new].tobytes() == getattr(s0, c).tobytes()
    assert added == inside


@pytest.mark.parametrize("times", [[1.0, np.nan], ["x"], [[1.0, 2.0]], [None],
                                   5.0])
def test_requested_times_must_be_finite(a4, p1, times):
    # times are read once as a 1-D float array; anything else is bad input
    with pytest.raises(ParamOutOfRange, match="times must be finite"):
        evolve(make_pinch(a4), p1, IntegratorOptions(max_time=0.6), times=times)


@settings(max_examples=60, deadline=None)
@given(max_time=st.floats(0.01, 0.35))
@example(max_time=0.09729)
def test_run_ends_on_max_time(a4, max_time):
    # the last step ends on max_time exactly, not on t + (max_time - t),
    # which can round one ulp short (0.09728999999999999 for 0.09729)
    traj = evolve(wulff_curve(a4, 1.7), FlowParams(alpha=1.0),
                  IntegratorOptions(max_time=max_time, max_step=0.1),
                  times=[max_time])
    assert traj.status == STATUS_MAX_TIME
    assert traj.final_state.t == traj.series[-1].t[-1] == max_time
    assert traj.series[-1].t[-2] < max_time


# ----------------------------------------------------------------- divergence

def test_channel_translates_to_divergence(a4):
    chan = build_curve(a4, [(-0.5, 0.0), (0.5, 0.0)], "unbounded",
                       ray_directions=[(0.0, 1.0), (0.0, 1.0)])
    p = FlowParams(alpha=1.0, window_radius=5000.0)
    for substeps in (1, 4):  # with and without rows inside the steps
        traj = evolve(chan, p, IntegratorOptions(max_time=800.0, max_step=2.0,
                                                 substeps=substeps))
        assert traj.status == STATUS_TRANSLATING
        # pure translation: the single bounded height ran away, rate constant
        assert abs(traj.final_state.h[1]) > 1000.0
        assert rhs(traj.final_state, p)[1] == pytest.approx(2.0, rel=1e-12)


def test_convexity_preserved(a4, p1, rect):
    traj = evolve(rect, p1, IntegratorOptions(max_time=5.0))
    for h in traj.series[0].h:
        assert is_convex(reconstruct_parallel(rect, h))
