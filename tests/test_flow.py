import numpy as np
import pytest
from scipy.integrate import solve_ivp

from crystalflow import (
    FlowParams,
    FlowState,
    InsufficientSamples,
    IntegratorOptions,
    NonzeroCurvatureCollapse,
    ParamOutOfRange,
    EpochSeries,
    STATUS_CONVERGED,
    STATUS_MAX_TIME,
    STATUS_TRANSLATING,
    StepUnderflow,
    Trajectory,
    apriori_bounds,
    build_curve,
    detect_vanishing,
    dissipation_residual,
    elastic_energy,
    evolve,
    is_convex,
    lengths_from_heights,
    reconstruct_parallel,
    restart,
    rhs,
    segment_supports,
    step,
)
from crystalflow.cli import emit_series
from crystalflow.flow import dissipation_rate

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
    assert np.max(np.abs(traj.series[-1].h_rates[-1])) <= 1e-8


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


def test_step_underflow(a4, p1, wulff2):
    with pytest.raises(StepUnderflow):
        evolve(wulff2, p1, IntegratorOptions(
            min_step=0.5, max_step=0.6, rel_tol=1e-15, abs_tol=1e-17,
            max_time=3.0))


# ----------------------------------------------------------------- a priori bounds

def test_apriori_bounds_hold_along_flow(a4, p1, rect):
    d1, d2, t_guard = apriori_bounds(rect, p1)
    assert d1 > 0 and d2 > 0 and t_guard > 0
    traj = evolve(rect, p1, IntegratorOptions(max_time=t_guard,
                                              max_step=t_guard / 20))
    L0 = rect.lengths
    (s,) = traj.series
    assert np.all(np.max(np.abs(s.h), axis=1) <= d1 * s.t + 1e-9)
    assert np.all(s.lengths >= L0 - d2 * s.t[:, None] - 1e-9)


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
        lhs = s.lengths[:, ref.bounded]
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


def test_epoch_series_rows_match_state(a4, p1, tmp_path):
    pinch = make_pinch(a4)
    traj = evolve(pinch, p1, IntegratorOptions(max_time=0.6, substeps=2))
    assert len(traj.series) == len(traj.epochs) == 2
    files = emit_series(traj, "pinch", str(tmp_path))
    for k, (ref, s) in enumerate(zip(traj.epochs, traj.series)):
        m = len(s.t)
        assert s.h.shape == s.lengths.shape == s.h_rates.shape == (m, ref.n)
        assert s.energy.shape == (m,)
        for j in range(m):
            st = FlowState(ref, s.h[j], s.t[j], k)
            np.testing.assert_array_equal(s.lengths[j],
                                          lengths_from_heights(ref, s.h[j]))
            assert s.energy[j] == elastic_energy(ref, p1, s.h[j])
            np.testing.assert_array_equal(s.h_rates[j], rhs(st, p1))
        # the column-wise integrand rounds exactly as a sum over each row
        b = ref.bounded
        sup = segment_supports(ref)[b]
        want = [np.sum(r[b] ** 2 * L[b] / sup) for r, L in zip(s.h_rates, s.lengths)]
        np.testing.assert_array_equal(dissipation_rate(ref, s), want)
        with open(tmp_path / files[k]) as fh:
            assert len(fh.read().splitlines()) == m + 1  # header + one per row
        if k >= 1:
            assert s.t[0] == traj.restarts[k - 1].t


# ----------------------------------------------------------------- dissipation

def test_dissipation_residual_small(a4, p1, wulff2):
    traj = evolve(wulff2, p1, IntegratorOptions(
        max_time=2.0, max_step=0.5, substeps=4,
        rel_tol=1e-8, abs_tol=1e-10))
    assert dissipation_residual(traj, p1) < 1e-6


def test_dissipation_residual_needs_samples(a4, p1, wulff2):
    s = EpochSeries(np.zeros(1), np.zeros((1, 4)), wulff2.lengths[None, :],
                    np.array([elastic_energy(wulff2, p1)]), np.zeros((1, 4)))
    lonely = Trajectory(p1, IntegratorOptions(), epochs=[wulff2], series=[s])
    with pytest.raises(InsufficientSamples):
        dissipation_residual(lonely, p1)


# ----------------------------------------------------------------- divergence

def test_channel_translates_to_divergence(a4):
    chan = build_curve(a4, [(-0.5, 0.0), (0.5, 0.0)], "unbounded",
                       ray_directions=[(0.0, 1.0), (0.0, 1.0)])
    p = FlowParams(alpha=1.0, window_radius=5000.0)
    traj = evolve(chan, p, IntegratorOptions(max_time=800.0, max_step=2.0))
    assert traj.status == STATUS_TRANSLATING
    # pure translation: the single bounded height ran away, rate constant
    assert abs(traj.final_state.h[1]) > 1000.0
    assert traj.series[-1].h_rates[-1, 1] == pytest.approx(2.0, rel=1e-12)


def test_convexity_preserved(a4, p1, rect):
    traj = evolve(rect, p1, IntegratorOptions(max_time=5.0))
    for h in traj.series[0].h:
        assert is_convex(reconstruct_parallel(rect, h))
