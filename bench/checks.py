"""Output gates and independent oracles for the benchmark workloads.

Gates run on every operation and read only what the program wrote: the
manifest, the per-epoch series files and the snapshots.  The oracles run
once per scenario after the timed loop, because they import scipy and
would otherwise inflate the peak memory the benchmark reports.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import (
    ALPHA,
    CONVEX_CHAIN_A,
    CONVEX_CHAIN_M,
    WINDOW_RADIUS,
    convex_chain_velocity,
)

# Gates, each at least 10x above the worst value measured on 40 scenarios
# per workload at the commit that introduced the benchmark.
DISSIPATION_REL_GATE = 1e-5  # dissipation residual / initial energy
ENERGY_RISE_REL = 1e-9  # energy may not rise by more, relative to its scale
ORACLE_GATES = {
    "stair-cascade": 1e-8,  # first restart time, relative
    "chain-relax": 1e-7,  # heights at t = 1, relative to max |h|
    "translating-window": 1e-8,  # fitted velocity vs closed form, relative
}
ORACLE_FLOOR = 1e-16  # errors below round-off are reported at this floor


def read_series(out_dir, manifest):
    """Energy column of every epoch's series file, in epoch order."""
    energies = []
    for ep in manifest["epochs"]:
        with open(os.path.join(out_dir, ep["series"]), newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("energy")
        energies.append(np.array([float(r[col]) for r in rows[1:]]))
    return energies


def read_snapshots(out_dir, manifest):
    with open(os.path.join(out_dir, manifest["snapshots"])) as fh:
        return json.load(fh)["snapshots"]


def audit_tol(manifest_energy0: float) -> float:
    """Absolute dissipation tolerance handed to ``crystalflow audit``."""
    return DISSIPATION_REL_GATE * max(1.0, abs(float(manifest_energy0)))


def gate_run(workload, manifest, code, energies, audit):
    """Failures (as strings) of one scenario run plus its audit."""
    bad = []
    if code != 0:
        bad.append(f"run_scenario exit code {code}")
    failed = [c["detail"] for c in manifest["checks"] if not c["passed"]]
    if failed:
        bad.append(f"declared checks failed: {failed}")
    if manifest["status"] != workload.status:
        bad.append(f"status {manifest['status']} != {workload.status}")
    if len(manifest["restarts"]) != workload.restarts:
        bad.append(f"{len(manifest['restarts'])} restarts != {workload.restarts}")
    if manifest["final"]["segments"] != workload.segments:
        bad.append(f"final segments {manifest['final']['segments']}")
    if workload.index is not None:
        seen = {manifest["final"]["index"]}
        for r in manifest["restarts"]:
            seen |= {r["index_before"], r["index_after"]}
        if seen != {workload.index}:
            bad.append(f"index not preserved: {sorted(seen, key=str)}")

    e0 = float(energies[0][0])
    scale = max(1.0, float(max(np.max(np.abs(e)) for e in energies)))
    prev_end = None
    for k, e in enumerate(energies):
        rise = float(np.max(np.diff(e))) if len(e) > 1 else 0.0
        if prev_end is not None:
            rise = max(rise, float(e[0] - prev_end))
        if rise > ENERGY_RISE_REL * scale:
            bad.append(f"energy rises by {rise:.3e} in epoch {k}")
        prev_end = float(e[-1])
    e_final = float(manifest["final"]["energy"])
    if not (0.0 < e_final < e0):
        bad.append(f"final energy {e_final!r} not in (0, {e0!r})")

    resid = manifest["dissipation_residual"]
    if resid is None or not resid <= DISSIPATION_REL_GATE * max(1.0, abs(e0)):
        bad.append(f"dissipation residual {resid!r} over the gate")
    if not audit.get("passed") or not audit.get("final_energy_matches"):
        bad.append(f"audit failed: {audit}")
    return bad


# ------------------------------------------------------------------ oracles

def _dop853(curve, t_end, event=None):
    """Reference solution of the height ODE over ``flow.rhs`` with scipy's
    DOP853.  A stage that leaves the admissible region gets a huge rate, so
    the solver rejects the trial step instead of stopping."""
    from scipy.integrate import solve_ivp

    from crystalflow import FlowParams, FlowState, ZeroLengthSegment, rhs

    p = FlowParams(alpha=ALPHA)

    def f(t, h):
        try:
            return rhs(FlowState(curve, h, t, 0), p)
        except ZeroLengthSegment:
            return np.full(curve.n, 1e30)

    return solve_ivp(f, (0.0, t_end), np.zeros(curve.n), method="DOP853",
                     rtol=1e-12, atol=1e-14, events=event)


def _initial_curve(snap):
    from crystalflow import build_curve, square_anisotropy

    if snap["t"] != 0.0 or not snap["closed"]:
        raise ValueError("the first snapshot must be the closed curve at t = 0")
    return build_curve(square_anisotropy(), np.asarray(snap["points"]), "closed")


def oracle_stair(doc, manifest, snaps):
    """First restart time against DOP853 with a terminal vanishing event
    on the zero-transition segments."""
    from crystalflow import IntegratorOptions, lengths_from_heights

    curve = _initial_curve(snaps[0])
    b = curve.bounded
    vanish_fraction = IntegratorOptions(**doc["integrator"]).vanish_fraction
    thr = np.maximum(vanish_fraction * curve.lengths,
                     1e-10 * max(curve.total_bounded_length, 1.0))
    watch = b & (curve.transitions == 0)

    def event(t, h):
        return float(np.min((lengths_from_heights(curve, h) - thr)[watch]))

    event.terminal = True
    event.direction = -1
    sol = _dop853(curve, doc["integrator"]["max_time"], event)
    t_ref = float(sol.t_events[0][0])
    t_run = float(manifest["restarts"][0]["t"])
    return abs(t_run - t_ref) / t_ref


def oracle_chain(doc, manifest, snaps):
    """Heights of the t = 1 snapshot against DOP853 from the t = 0 curve."""
    curve = _initial_curve(snaps[0])
    snap = snaps[1]
    if snap["epoch"] != 0:
        raise ValueError("the t = 1 snapshot must lie in the first epoch")
    sol = _dop853(curve, snap["t"])
    h_ref = sol.y[:, -1]
    h = np.asarray(snap["heights"])
    return float(np.max(np.abs(h - h_ref)) / np.max(np.abs(h_ref)))


def oracle_translating(doc, manifest, snaps):
    """Velocity fitted to the final curve against the closed-form speed."""
    from crystalflow import (
        FlowParams,
        build_curve,
        square_anisotropy,
        translation_check,
    )

    pts = np.asarray(snaps[-1]["points"])
    rays = np.array([pts[0] - pts[1], pts[-1] - pts[-2]])
    curve = build_curve(square_anisotropy(), pts[1:-1], "unbounded",
                        ray_directions=rays)
    rep = translation_check(curve, FlowParams(ALPHA, WINDOW_RADIUS), (0.0, 1.0))
    lam = convex_chain_velocity(CONVEX_CHAIN_M, CONVEX_CHAIN_A, ALPHA)
    return abs(rep.velocity - lam) / lam


ORACLES = {
    "stair-cascade": oracle_stair,
    "chain-relax": oracle_chain,
    "translating-window": oracle_translating,
}


def oracle_digits(err: float) -> float:
    """Digits of agreement, -log10 of the relative error."""
    return -math.log10(max(err, ORACLE_FLOOR))
