"""Seeded scenario generators for the benchmark workloads.

Every workload turns the command-line seed into a batch of ``BATCH``
scenario documents, one independent random stream per batch member.  The
program only ever sees these documents; ``scenario_hash`` fingerprints each
one so that two runs can show they used the same inputs.

All workloads use the square anisotropy with alpha = 1.  A batch (rather
than one scenario per run) keeps the run-to-run spread of the timings down:
the work of one stair-cascade or translating-window scenario differs by 10
to 20% from the next.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

ALPHA = 1.0
BATCH = 8

STAIR_STEPS = 8
CHAIN_M = 512
CONVEX_CHAIN_M = 3
CONVEX_CHAIN_A = 0.58
WINDOW_RADIUS = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (rng, name) -> scenario dict
    status: str  # terminal status every scenario must reach
    index: int | None  # curve index preserved across restarts (closed only)
    segments: int  # segment count of the final curve
    restarts: int
    snapshots: tuple  # times requested from outputs.snapshots


def closed_staircase(treads, risers, top, overhang):
    """Vertices of a rectangle whose top-right corner is cut into a
    descending staircase: ``len(treads)`` steps, 4 + 2k segments, every
    tread and riser with transition number zero.  Listed clockwise."""
    height = float(np.sum(risers)) + overhang
    x, y = float(top), height
    pts = [(0.0, 0.0), (0.0, height), (x, y)]
    for tread, riser in zip(treads, risers):
        y -= float(riser)
        pts.append((x, y))
        x += float(tread)
        pts.append((x, y))
    pts.append((x, 0.0))
    return pts


def _scenario(workload, name, curve, params, integrator, perturb=None,
              extra_checks=()):
    """Scenario document declaring the workload's expected outcome as
    checks."""
    w = WORKLOADS[workload]
    checks = [{"type": "status", "expect": w.status},
              {"type": "restart-count", "expect": w.restarts},
              {"type": "segment-count", "expect": w.segments}]
    if w.index is not None:
        checks.append({"type": "index", "expect": w.index})
    doc = {
        "schema_version": 1,
        "name": name,
        "anisotropy": {"preset": "square"},
        "params": params,
        "curve": curve,
        "integrator": integrator,
        "outputs": {"series": True, "manifest": True,
                    "snapshots": list(w.snapshots)},
        "checks": checks + list(extra_checks),
    }
    if perturb is not None:
        doc["perturb_heights"] = perturb
    return doc


def _stair_cascade(rng, name):
    k = STAIR_STEPS
    treads = rng.uniform(1.0, 3.0, k)
    risers = rng.uniform(0.15, 0.6, k)
    top, overhang = rng.uniform(1.0, 3.0, 2)
    pts = closed_staircase(treads, risers, top, overhang)
    return _scenario(
        "stair-cascade", name,
        {"vertices": [[float(x), float(y)] for x, y in pts], "topology": "closed"},
        {"alpha": ALPHA},
        {"max_time": 10.0, "max_step": 0.5, "substeps": 4})


def _chain_relax(rng, name):
    return _scenario(
        "chain-relax", name,
        {"generator": {"family": "stationary", "kind": "right-angle-chain",
                       "closed": True, "m": CHAIN_M}},
        {"alpha": ALPHA},
        {"max_time": 40.0, "max_step": 0.1, "substeps": 1},
        perturb={"scale": 0.3, "seed": int(rng.integers(2**31))},
        extra_checks=[{"type": "stationary-limit", "kind": "right-angle-chain"}])


def _translating_window(rng, name):
    return _scenario(
        "translating-window", name,
        {"generator": {"family": "translating", "kind": "convex-chain",
                       "m": CONVEX_CHAIN_M, "a": CONVEX_CHAIN_A}},
        {"alpha": ALPHA, "window_radius": WINDOW_RADIUS},
        {"max_time": 100.0, "max_step": 0.5, "substeps": 4},
        perturb={"scale": 0.4, "seed": int(rng.integers(2**31))})


WORKLOADS = {w.name: w for w in (
    # every staircase makes one restart per step and ends as a rectangle
    Workload("stair-cascade", _stair_cascade, "MaxTime", index=1,
             segments=4, restarts=STAIR_STEPS, snapshots=(0.0, 5.0, 10.0)),
    Workload("chain-relax", _chain_relax, "Converged", index=0,
             segments=6 * CHAIN_M, restarts=0, snapshots=(0.0, 1.0, 5.0)),
    Workload("translating-window", _translating_window, "MaxTime", index=None,
             segments=4 * CONVEX_CHAIN_M + 3, restarts=0,
             snapshots=(0.0, 50.0, 100.0)),
)}


def make_batch(workload: str, seed: int) -> list:
    """The ``BATCH`` scenario documents of one run; same seed, same documents."""
    w = WORKLOADS[workload]
    streams = np.random.SeedSequence(seed).spawn(BATCH)
    return [w.make(np.random.default_rng(s), f"{workload}-{i}")
            for i, s in enumerate(streams)]


def scenario_hash(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def convex_chain_velocity(m: int, a: float, alpha: float) -> float:
    """Closed-form translation speed of the convex-chain profile:
    lambda^2 = 2 / (alpha * ((2 a alpha - 1)^-2 + (1 - 2 b alpha)^-2)),
    with b = m a / (m + 1)."""
    b = m * a / (m + 1.0)
    return float(np.sqrt(2.0 / (alpha * ((2.0 * a * alpha - 1.0) ** -2
                                         + (1.0 - 2.0 * b * alpha) ** -2))))
