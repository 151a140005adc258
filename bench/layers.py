"""Per-layer microbenchmarks: public functions timed from outside.

Inputs are built at segment counts n in SIZES: perturbed closed
right-angle chains (m = n / 6) for most functions, closed staircases with
one nearly vanished riser for event location and restart surgery, and
the n = 15 convex-chain translating profile for the unbounded cases.
Every call's result is compared with the result of an untimed warm-up
call (the functions are deterministic) plus a property of its own, such as
``restart`` dropping exactly the two merged segments.
"""

from __future__ import annotations

import time

import numpy as np

from workloads import (
    ALPHA,
    CONVEX_CHAIN_A,
    CONVEX_CHAIN_M,
    WINDOW_RADIUS,
    closed_staircase,
    convex_chain_velocity,
)

SIZES = (6, 48, 384, 3072)
BUDGET_S = 0.1  # timed time per metric
MIN_BATCH_S = 2e-3  # calls are grouped so that one timed batch lasts this long
MIN_BATCHES = 3


def time_calls(fn, check):
    """Median seconds per call of ``fn()``.  ``check(result, first)`` must
    hold for every result, with ``first`` the warm-up result."""
    t0 = time.perf_counter()
    first = fn()
    once = time.perf_counter() - t0
    if not check(first, first):
        raise AssertionError("warm-up result fails its check")
    per_batch = max(1, int(MIN_BATCH_S / max(once, 1e-9)))
    samples, results = [], []
    spent = 0.0
    while len(samples) < MIN_BATCHES or spent < BUDGET_S:
        t0 = time.perf_counter()
        for _ in range(per_batch):
            results.append(fn())
        dt = time.perf_counter() - t0
        spent += dt
        samples.append(dt / per_batch)
    if not all(check(r, first) for r in results):
        raise AssertionError("a timed result differs from the warm-up result")
    return float(np.median(samples))


def _same(a, b):
    return np.array_equal(a, b) and bool(np.all(np.isfinite(a)))


def _same_curve(a, b):
    return (np.array_equal(a.vertices, b.vertices)
            and np.array_equal(a.facet_index, b.facet_index))


def perturbed_chain(cf, n, rng):
    """Closed right-angle chain with m = n / 6 blocks, every segment line
    shifted by up to 0.3 mean lengths, plus small heights to evaluate at."""
    chain = cf.make_stationary_square_aniso(
        cf.StationaryClass("right-angle-chain", closed=True, m=n // 6), ALPHA)
    mean = chain.total_bounded_length / n
    curve = cf.reconstruct_parallel(chain, rng.uniform(-0.3, 0.3, n) * mean)
    h = rng.uniform(-0.05, 0.05, n) * mean
    return chain, curve, h


def vanishing_staircase(cf, n, rng):
    """Closed staircase with (n - 4) / 2 steps whose first riser is shorter
    than the vanish threshold, as a restart finds it."""
    k = (n - 4) // 2
    treads = rng.uniform(1.0, 3.0, k)
    risers = rng.uniform(0.15, 0.6, k)
    top, overhang = rng.uniform(1.0, 3.0, 2)
    total = 2.0 * (top + treads.sum() + risers.sum() + overhang)
    risers[0] = 0.1 * 1e-10 * total  # below 1e-10 of the total length
    pts = closed_staircase(treads, risers, top, overhang)
    return cf.build_curve(cf.square_anisotropy(), np.asarray(pts), "closed")


def run(cf, seed: int, log) -> dict:
    """Every size-indexed microbenchmark, as {metric name: value}."""
    rng = np.random.default_rng(seed)
    p = cf.FlowParams(alpha=ALPHA)
    opts = cf.IntegratorOptions()
    out = {}

    def put(name, seconds, unit):
        out[name] = seconds * (1e6 if unit == "us" else 1e3)
        log(f"  {name:44s} {out[name]:12.3f} {unit}")

    for n in SIZES:
        chain, curve, h = perturbed_chain(cf, n, rng)
        state = cf.FlowState(curve, h, 0.0, 0)
        # one RK pair moves no height by more than 1e-3 of a unit rate:
        # always accepted, so every size times the same work
        dt = 1e-3 / float(np.max(np.abs(cf.rhs(state, p))))
        tag = f".n{n}"
        put("curve.lengths_from_heights_us" + tag, time_calls(
            lambda: cf.lengths_from_heights(curve, h), _same), "us")
        put("energy.first_variation_us" + tag, time_calls(
            lambda: cf.first_variation(curve, p, h=h), _same), "us")
        put("energy.elastic_energy_us" + tag, time_calls(
            lambda: cf.elastic_energy(curve, p, h=h),
            lambda r, f: r == f and np.isfinite(r) and r > 0.0), "us")
        put("flow.rhs_us" + tag, time_calls(
            lambda: cf.rhs(state, p), _same), "us")
        put("flow.step_us" + tag, time_calls(
            lambda: cf.step(state, p, opts, dt=dt),
            lambda r, f: (_same(r[0].h, f[0].h) and r[1] == f[1]
                          and r[0].t == dt)), "us")
        put("curve.build_curve_ms" + tag, time_calls(
            lambda: cf.build_curve(curve.anisotropy, curve.vertices, "closed"),
            _same_curve), "ms")
        put("curve.reconstruct_parallel_ms" + tag, time_calls(
            lambda: cf.reconstruct_parallel(curve, h),
            lambda r, f: _same_curve(r, f) and np.allclose(
                r.lengths, cf.lengths_from_heights(curve, h),
                rtol=1e-9, atol=0.0)), "ms")
        put("analysis.classify_stationary_square_ms" + tag, time_calls(
            lambda: cf.classify_stationary_square(chain, ALPHA),
            lambda r, f: r == f and r.kind == "right-angle-chain"
            and r.m == n // 6), "ms")

        stair = vanishing_staircase(cf, n, rng)
        s_state = cf.FlowState(stair, np.zeros(n), 0.0, 0)
        put("flow.detect_vanishing_us" + tag, time_calls(
            lambda: cf.detect_vanishing(s_state, opts),
            lambda r, f: list(r) == [2]), "us")
        put("flow.restart_ms" + tag, time_calls(
            lambda: cf.restart(s_state, [2]),
            lambda r, f: (_same_curve(r.reference, f.reference)
                          and r.reference.n == n - 2 and r.epoch == 1
                          and cf.curve_index(r.reference) == 1)), "ms")

    profile, lam = cf.make_translating_square_aniso(
        "convex-chain", ALPHA, m=CONVEX_CHAIN_M, a=CONVEX_CHAIN_A)
    lam_exact = convex_chain_velocity(CONVEX_CHAIN_M, CONVEX_CHAIN_A, ALPHA)
    pw = cf.FlowParams(alpha=ALPHA, window_radius=WINDOW_RADIUS)
    hw = np.zeros(profile.n)
    hw[1:-1] = rng.uniform(-0.01, 0.01, profile.n - 2)
    put("energy.elastic_energy_window_us.n15", time_calls(
        lambda: cf.elastic_energy(profile, pw, h=hw),
        lambda r, f: r == f and np.isfinite(r) and r > 0.0), "us")
    put("analysis.translation_check_us.n15", time_calls(
        lambda: cf.translation_check(profile, pw, (0.0, 1.0)),
        lambda r, f: (r == f and r.accepted
                      and abs(r.velocity - lam_exact) <= 1e-9 * lam_exact)), "us")
    put("anisotropy.build_wulff_us", time_calls(
        lambda: cf.build_wulff([(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)]),
        lambda r, f: r.K == 4 and np.array_equal(r.supports, f.supports)), "us")
    return out
