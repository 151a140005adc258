"""End-to-end verification gate.

Each test exercises one headline behavior of the engine at its stated
tolerance and prints a single ``ACCEPTANCE <k> PASS`` line with the measured
margins.  Every expected value here is produced by an independent route
(closed-form solution, scalar ODE oracle, or finite differences), never by
the code path under test.
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from crystalflow import (
    FlowParams,
    IntegratorOptions,
    StationaryClass,
    build_curve,
    build_wulff,
    classify_stationary_square,
    curve_index,
    dissipation_residual,
    elastic_energy,
    evolve,
    facet_identity_residual,
    first_variation,
    is_convex,
    lengths_from_heights,
    make_nontranslating_two_rectangles,
    make_stationary_square_aniso,
    make_translating_square_aniso,
    measure_heights,
    reconstruct_parallel,
    regular_polygon_anisotropy,
    rhs,
    stationarity_residual,
    translation_check,
)
from conftest import wulff_curve

ALPHA = 1.0


def report(capsys, k, msg):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k} PASS: {msg}")


# ---------------------------------------------------------------------------
# 1. Wulff self-similarity: the n-segment system must track the scalar
#    radius ODE R' = -1/R + alpha/R^3 exactly, both shrinking and expanding.
# ---------------------------------------------------------------------------

def test_criterion_01_wulff_self_similarity(a4, p1, capsys):
    opts = IntegratorOptions(max_time=50.0, rel_tol=1e-10, abs_tol=1e-12,
                             max_step=0.25)
    metrics = []
    for r0 in (2.0, 0.5):
        traj = evolve(wulff_curve(a4, r0), p1, opts)
        sol = solve_ivp(lambda _, r: -1.0 / r + ALPHA / r**3, (0.0, 50.0),
                        [r0], rtol=1e-12, atol=1e-14, dense_output=True)
        (s,) = traj.series
        early = s.t <= 5.0
        want = np.outer(sol.sol(s.t[early])[0] - r0,
                        a4.supports[traj.epochs[0].facet_index])
        worst = float(np.max(np.abs(s.h[early] - want)))
        assert worst <= 1e-6
        final = lengths_from_heights(traj.epochs[0], s.h[-1])
        r_term = float(np.mean(final)) / 2.0
        assert s.t[-1] <= 50.0
        assert abs(r_term - 1.0) <= 1e-4
        metrics.append(f"R0={r0} max|h-oracle|={worst:.2e} "
                       f"|R_end-1|={abs(r_term - 1.0):.2e}")
    report(capsys, 1, "; ".join(metrics))


# ---------------------------------------------------------------------------
# 2. The support/angle identity holds on every admissible facet triple of
#    every regular polygon anisotropy.
# ---------------------------------------------------------------------------

def test_criterion_02_facet_identity(capsys):
    worst, total = 0.0, 0
    for n in range(3, 13):
        a = regular_polygon_anisotropy(n)
        for mid in range(n):
            for dj in (-1, 1):
                for dk in (-1, 1):
                    r = facet_identity_residual(a, (mid + dj) % n, mid,
                                                (mid + dk) % n)
                    worst = max(worst, r)
                    total += 1
    assert worst <= 1e-12
    report(capsys, 2, f"{total} triples over N=3..12, max residual "
                      f"{worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Energy bookkeeping: F(t_end) - F(0) equals minus the integrated
#    dissipation, and the mismatch scales down with the step tolerance.
#    The mismatch is F + Q, Q = int W dt integrated by the steps; at
#    rel_tol 1e-8 the non-convex run's already sits at round-off (1.1e-14
#    of F = 22.6, the same at 1e-10), so the scaling is measured from 1e-6.
# ---------------------------------------------------------------------------

def test_criterion_03_dissipation_audit(a4, p1, capsys):
    rng = np.random.default_rng(7)
    chain = make_stationary_square_aniso(
        StationaryClass("right-angle-chain", closed=True, m=1), ALPHA)
    bumpy = reconstruct_parallel(chain, 0.08 * rng.uniform(-1, 1, chain.n))
    runs = {"wulff": wulff_curve(a4, 2.0), "nonconvex": bumpy}
    metrics = []
    for name, c in runs.items():
        res = {}
        for rel in (1e-6, 1e-8):
            traj = evolve(c, p1, IntegratorOptions(
                max_time=5.0, rel_tol=rel, abs_tol=rel * 1e-2,
                max_step=0.5, substeps=4))
            res[rel] = dissipation_residual(traj)
        assert res[1e-8] <= 1e-6
        assert res[1e-6] / res[1e-8] >= 10.0
        metrics.append(f"{name}: {res[1e-6]:.2e} -> {res[1e-8]:.2e} "
                       f"({res[1e-6] / res[1e-8]:.0f}x)")
    report(capsys, 3, "; ".join(metrics))


# ---------------------------------------------------------------------------
# 4. Stationary catalog: every generated curve solves the stationarity
#    system to 1e-12 and classifies back to its own parameters.
# ---------------------------------------------------------------------------

def test_criterion_04_stationary_catalog(capsys):
    pairs = [(2.0, 2.0), (1.5, np.sqrt(18.0)), (1.6, np.sqrt(64.0 / 7.0))]
    wanted = [StationaryClass("staircase", m=3)]
    wanted += [StationaryClass("right-angle-chain", closed=cl, m=m)
               for m in (1, 2, 3, 4) for cl in (False, True)]
    wanted += [StationaryClass("double-right-angle-chain", m=m, a=a, b=b)
               for m in (1, 2, 3) for a, b in pairs]
    wanted += [StationaryClass("double-right-angle-chain", closed=True, m=m)
               for m in (1, 2, 3)]
    wanted += [StationaryClass("wulff-square", closed=True)]

    worst = 0.0
    for k in wanted:
        c = make_stationary_square_aniso(k, ALPHA)
        p = FlowParams(alpha=ALPHA, window_radius=None if k.closed else 200.0)
        r = stationarity_residual(c, p)
        worst = max(worst, r)
        assert r <= 1e-12, k
        got = classify_stationary_square(c, ALPHA)
        assert (got.kind, got.closed) == (k.kind, k.closed), k
        if k.m is not None:
            assert got.m == k.m, k
        if k.a is not None:
            assert sorted([got.a, got.b]) == pytest.approx(
                sorted([k.a, k.b]), rel=1e-9), k
        if k.kind == "wulff-square":
            np.testing.assert_allclose(c.lengths, np.sqrt(4 * ALPHA),
                                       rtol=1e-13)
    report(capsys, 4, f"{len(wanted)} catalog entries, max stationarity "
                      f"residual {worst:.2e}, all round-trip")


# ---------------------------------------------------------------------------
# 5. Wedge with a single bounded segment under a pentagon-type anisotropy:
#    the segment length converges to the closed-form limit from both sides.
# ---------------------------------------------------------------------------

def test_criterion_05_wedge_limit_length(capsys):
    deg = np.pi / 180.0
    angles = np.array([-130.0, -70.0, -10.0, 90.0, 190.0]) * deg
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    verts = []
    for i in range(5):
        na, nb = normals[i], normals[(i + 1) % 5]
        verts.append((na + nb) / (1.0 + na @ nb))
    a5 = build_wulff(verts)

    i_up = int(np.argmax(a5.normals @ np.array([0.0, 1.0])))
    theta = np.pi - (-100.0 * deg)  # both wedge corners turn by -100 degrees
    l_inf = np.sqrt(ALPHA * a5.facet_lengths[i_up] * a5.supports[i_up]
                    * abs(2.0 / np.tan(theta)))
    assert l_inf == pytest.approx(0.916816912432582, abs=1e-12)

    p = FlowParams(alpha=ALPHA, window_radius=50.0)
    opts = IntegratorOptions(max_time=100.0, max_step=0.5)
    rays = [np.array([np.cos(-80.0 * deg), np.sin(-80.0 * deg)]),
            np.array([np.cos(-100.0 * deg), np.sin(-100.0 * deg)])]
    errs = []
    for l0 in (0.5 * l_inf, 2.0 * l_inf):
        wedge = build_curve(a5, [(-l0 / 2, 0.0), (l0 / 2, 0.0)], "unbounded",
                            ray_directions=rays)
        traj = evolve(wedge, p, opts)
        assert traj.status == "Converged"
        final = reconstruct_parallel(traj.epochs[-1], traj.final_state.h)
        errs.append(abs(final.lengths[1] - l_inf))
    assert max(errs) <= 1e-6
    report(capsys, 5, f"limit {l_inf:.12f}, |L-L_inf| from below/above = "
                      f"{errs[0]:.2e}/{errs[1]:.2e}")


# ---------------------------------------------------------------------------
# 6. Translating profiles: the generated families pass the velocity fit at
#    their declared speed; the two-rectangle impostor is rejected.
# ---------------------------------------------------------------------------

def test_criterion_06_translating_profiles(capsys):
    lam_max = 2.0 / np.sqrt(2.0 * ALPHA)
    cases = [("single-step", {"lam": f * lam_max / 1.5})
             for f in (0.3, 1.0, 1.3)]
    cases += [("convex-rectangle", {"a": a}) for a in (1.5, 1.7, 1.9)]
    cases += [("convex-chain", {"m": 2, "a": 0.6}),
              ("convex-chain", {"m": 3, "a": 0.58})]
    p = FlowParams(alpha=ALPHA)
    worst = 0.0
    for kind, kw in cases:
        c, lam = make_translating_square_aniso(kind, ALPHA, **kw)
        rep = translation_check(c, p, (0.0, 1.0))
        assert rep is not None and rep.accepted, (kind, kw)
        assert rep.residual <= 1e-10, (kind, kw)
        assert rep.velocity == pytest.approx(lam, abs=1e-10)
        worst = max(worst, rep.residual)
    bad = translation_check(make_nontranslating_two_rectangles(ALPHA), p,
                            (0.0, 1.0))
    assert not bad.accepted
    report(capsys, 6, f"{len(cases)} profiles accepted, max residual "
                      f"{worst:.2e}; two-rectangle rejected "
                      f"(residual {bad.residual:.3f})")


# ---------------------------------------------------------------------------
# 7. Restart: when an engineered zero-curvature connector vanishes, the run
#    resumes on an admissible shorter curve with the index preserved and no
#    energy gain.
# ---------------------------------------------------------------------------

def test_criterion_07_restart(a4, p1, capsys):
    q = 2 * np.sqrt(2.0)
    verts = [(0, 0), (2 * q, 0), (2 * q, -q), (q, -q), (q, -q + 0.3),
             (0, -q + 0.3), (0, -2 * q + 0.3), (2 * q, -2 * q + 0.3),
             (2 * q, -3 * q + 0.3), (q, -3 * q + 0.3), (q, q), (0, q)]
    pinch = build_curve(a4, verts, "closed")
    traj = evolve(pinch, p1, IntegratorOptions(max_time=0.6, substeps=2))

    assert len(traj.restarts) == 1
    rec = traj.restarts[0]
    (gone,) = rec.vanished
    assert pinch.transitions[gone] == 0  # the connector had zero curvature
    before, after = traj.epochs
    assert after.n < before.n
    assert (before.n, after.n) == (12, 10)
    assert curve_index(after) == curve_index(before) == 0
    # admissible: the post-restart curve supports the parallel chart
    reconstruct_parallel(after, np.zeros(after.n))

    edge = traj.series[0].energy[-1]
    resume = traj.series[1].energy[0]
    assert resume <= edge + 1e-12
    report(capsys, 7, f"t*={rec.t:.4f}, segments {before.n}->{after.n}, "
                      f"index {curve_index(before)} preserved, energy "
                      f"{edge:.4f}->{resume:.4f}")


# ---------------------------------------------------------------------------
# 8. A convex closed curve stays convex, never restarts, and converges to
#    the Wulff square of side sqrt(4 alpha) up to translation.
# ---------------------------------------------------------------------------

def test_criterion_08_convex_evolution(a4, p1, rect, capsys):
    t0 = time.monotonic()
    traj = evolve(rect, p1, IntegratorOptions(max_time=200.0, max_step=0.25))
    wall = time.monotonic() - t0
    assert wall < 60.0
    assert traj.status == "Converged"
    assert not traj.restarts
    (s,) = traj.series
    assert np.max(np.abs(rhs(traj.final_state, p1))) < 1e-8
    for h in s.h:
        assert is_convex(reconstruct_parallel(rect, h))
    side_err = float(np.max(np.abs(lengths_from_heights(rect, s.h[-1])
                                   - np.sqrt(4 * ALPHA))))
    assert side_err <= 1e-4
    report(capsys, 8, f"converged t={s.t[-1]:.2f} "
                      f"({wall:.1f}s wall), convex at all "
                      f"{len(s.t)} samples, side error "
                      f"{side_err:.2e}")


# ---------------------------------------------------------------------------
# 9. Semigroup property: running to s and restarting for t lands exactly
#    where a single run to s+t does, including on a nonconvex curve.
# ---------------------------------------------------------------------------

def test_criterion_09_semigroup(a4, p1, lshape, capsys):
    def run(curve, horizon):
        traj = evolve(curve, p1, IntegratorOptions(
            max_time=horizon, rel_tol=1e-11, abs_tol=1e-13, max_step=0.05))
        assert traj.status == "MaxTime" and len(traj.epochs) == 1
        return traj.final_state.h

    metrics = []
    for s, t in ((0.1, 0.4), (0.25, 0.25)):
        h_once = run(lshape, s + t)
        mid = reconstruct_parallel(lshape, run(lshape, s))
        h_two = measure_heights(lshape, reconstruct_parallel(mid, run(mid, t)))
        gap = float(np.max(np.abs(h_two - h_once)))
        assert gap <= 1e-8
        metrics.append(f"(s,t)=({s},{t}) gap={gap:.2e}")
    report(capsys, 9, "; ".join(metrics))


# ---------------------------------------------------------------------------
# 10. The height ODE right-hand side is the true energy gradient: central
#     finite differences of F match g_i * L_i on random admissible curves.
# ---------------------------------------------------------------------------

def test_criterion_10_gradient_fd(a4, a6, p1, lshape, capsys):
    eps = 1e-6
    bases = [wulff_curve(a4, 2.0), lshape, wulff_curve(a6, 1.5)]
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(100 + k)
        base = bases[k % 3]
        c = reconstruct_parallel(base, rng.uniform(-0.05, 0.05, base.n))
        grad = first_variation(c, p1) * c.lengths
        fd = np.empty(c.n)
        for i in range(c.n):
            e = np.zeros(c.n)
            e[i] = eps
            fd[i] = (elastic_energy(c, p1, e)
                     - elastic_energy(c, p1, -e)) / (2 * eps)
        rel = float(np.max(np.abs(fd - grad)) / np.max(np.abs(grad)))
        worst = max(worst, rel)
        assert rel <= 1e-6, k
    report(capsys, 10, f"20 random curves (square+hexagon), max rel "
                       f"gradient error {worst:.2e}")
