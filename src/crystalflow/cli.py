"""Command-line front end.

Subcommands
-----------
simulate          run a scenario file and emit series/manifest/snapshot files
catalog           build a stationary curve and print it as JSON
classify          match a curve file against the stationary families
translating-check fit a translation velocity to a curve file
verify-identity   sweep the anisotropy facet identity over all triples
audit             recheck a finished run from its manifest + series files

Exit codes: 0 success, 1 a requested check failed, 2 bad input
(schema/usage/build errors).

Scenario files are JSON with ``schema_version: 1``; see the README for the
full layout.  All emitted files are deterministic: fixed key order
(sort_keys), repr-formatted floats, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from .anisotropy import (
    build_wulff,
    is_square_anisotropy,
    regular_polygon_anisotropy,
    square_anisotropy,
)
from .curve import build_curve, curve_index, reconstruct_parallel
from .energy import FlowParams, facet_identity_residual
from .errors import (
    BuildError,
    CrystalFlowError,
    InsufficientSamples,
    IOFailure,
    SchemaError,
    TimeOutOfRange,
)
from .flow import (
    IntegratorOptions,
    Trajectory,
    dissipation_rate,
    dissipation_residual,
    epoch_dissipation_residual,
    evolve,
    row_sums,
)
from . import analysis
from .analysis import (
    StationaryClass,
    classify_stationary_square,
    convergence_monitor,
    make_nontranslating_two_rectangles,
    make_stationary_square_aniso,
    make_translating_square_aniso,
    translation_check,
)

__all__ = ["main", "console_main", "run_scenario", "load_scenario"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_INTEGRATOR_KEYS = tuple(f.name for f in dataclasses.fields(IntegratorOptions))

# curve generator family -> its keys besides "family"
_GENERATOR_KEYS = {
    "wulff": ("scale",),
    "stationary": ("kind", "closed", "m", "a", "b", "connectors"),
    "translating": ("kind", "lam", "a", "m"),
    "two-rectangles": (),
}


# ------------------------------------------------------------------ helpers

def _expect(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _expect_keys(doc: dict, allowed, where: str):
    unknown = set(doc) - set(allowed)
    _expect(not unknown, f"{where}: unknown keys {sorted(unknown)}")


def _dump_json(obj) -> str:
    # numpy arrays and scalars go through tolist(); np.float64 is a float
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda o: o.tolist()) + "\n"


def _write_text(path: str, text: str):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return doc


def _fmt(x) -> str:
    return repr(float(x))


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(float(v)))


def _number(doc, key, where, required=True, positive=False, default=None):
    if key not in doc or doc[key] is None:
        _expect(not required, f"{where}: missing required key {key!r}")
        return default
    v = doc[key]
    _expect(_is_finite_number(v), f"{where}: {key!r} must be a finite number")
    if positive:
        _expect(v > 0, f"{where}: {key!r} must be positive")
    return float(v)


# --------------------------------------------------------------- validation

def load_scenario(path: str) -> dict:
    doc = _read_json(path)
    validate_scenario(doc)
    return doc


def validate_scenario(doc: dict):
    _expect_keys(doc, ("schema_version", "name", "anisotropy", "curve",
                       "params", "integrator", "perturb_heights", "outputs",
                       "checks"), "scenario")
    _expect(doc.get("schema_version") == 1,
            "scenario: schema_version must be the integer 1")
    name = doc.get("name")
    _expect(isinstance(name, str) and _NAME_RE.match(name),
            "scenario: 'name' must match [A-Za-z0-9][A-Za-z0-9._-]*")
    _expect(isinstance(doc.get("anisotropy"), dict),
            "scenario: 'anisotropy' must be an object")
    curve = doc.get("curve")
    _expect(isinstance(curve, dict), "scenario: 'curve' must be an object")
    _expect_keys(curve, ("generator",) if "generator" in curve
                 else ("vertices", "topology", "rays"), "curve")
    if "generator" in curve:
        gen = curve["generator"]
        _expect(isinstance(gen, dict) and isinstance(gen.get("family"), str),
                "curve.generator must be an object with a string 'family'")
        family = gen["family"]
        _expect(family in _GENERATOR_KEYS,
                f"curve.generator: unknown family {family!r}")
        _expect_keys(gen, ("family",) + _GENERATOR_KEYS[family],
                     "curve.generator")
        _validate_generator(gen)
    params = doc.get("params")
    _expect(isinstance(params, dict), "scenario: 'params' must be an object")
    _expect_keys(params, ("alpha", "window_radius"), "params")
    _number(params, "alpha", "params", positive=True)
    _number(params, "window_radius", "params", required=False, positive=True)

    integ = doc.get("integrator", {})
    _expect(isinstance(integ, dict), "scenario: 'integrator' must be an object")
    _expect_keys(integ, _INTEGRATOR_KEYS, "integrator")
    for key, v in integ.items():
        _expect(v is not None, f"integrator: {key!r} must be a finite number")
        _number(integ, key, "integrator")
    _expect(isinstance(integ.get("substeps", 1), int),
            "integrator: 'substeps' must be an integer")

    pert = doc.get("perturb_heights")
    if pert is not None:
        _expect(isinstance(pert, dict), "perturb_heights must be an object")
        _expect_keys(pert, ("seed", "scale"), "perturb_heights")
        _expect(_is_integer(pert.get("seed")),
                "perturb_heights: 'seed' must be an integer")
        _number(pert, "scale", "perturb_heights", positive=True)

    outputs = doc.get("outputs", {})
    _expect(isinstance(outputs, dict), "scenario: 'outputs' must be an object")
    _expect_keys(outputs, ("series", "manifest", "snapshots"), "outputs")
    for key in ("series", "manifest"):
        _expect(isinstance(outputs.get(key, True), bool),
                f"outputs: {key!r} must be true or false")
    snaps = outputs.get("snapshots", [])
    _expect(isinstance(snaps, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in snaps),
        "outputs.snapshots must be a list of times")

    checks = doc.get("checks", [])
    _expect(isinstance(checks, list), "scenario: 'checks' must be a list")
    for i, c in enumerate(checks):
        _expect(isinstance(c, dict) and isinstance(c.get("type"), str),
                f"checks[{i}] must be an object with a string 'type'")
        typ = c["type"]
        _expect(typ in _CHECK_TYPES,
                f"checks[{i}]: unknown type {typ!r} "
                f"(known: {sorted(_CHECK_TYPES)})")
        where = f"checks[{i}] ({typ})"
        required, optional, _ = _CHECK_TYPES[typ]
        for key in required:
            _expect(key in c, f"{where}: missing key {key!r}")
        _expect_keys(c, ("type",) + required + optional, where)
        if typ == "final-energy":
            _validate_final_energy(c, where)


def _validate_generator(gen: dict):
    """Types of the generator keys; each family accepts a subset of them."""
    where = "curve.generator"
    _expect(isinstance(gen.get("kind", ""), str),
            f"{where}: 'kind' must be a string")
    _expect(isinstance(gen.get("closed", False), bool),
            f"{where}: 'closed' must be true or false")
    _expect(_is_integer(gen.get("m", 0)), f"{where}: 'm' must be an integer")
    for key in ("a", "b", "lam", "scale"):
        _number(gen, key, where, required=False)
    conn = gen.get("connectors", [])
    _expect(isinstance(conn, list) and all(map(_is_finite_number, conn)),
            f"{where}: 'connectors' must be a list of finite numbers")


def _validate_final_energy(c: dict, where: str):
    _expect(("expect" in c) == ("tol" in c),
            f"{where}: 'expect' and 'tol' must be given together")
    _expect(any(k in c for k in ("expect", "min", "max")),
            f"{where}: needs 'expect' with 'tol', or 'min'/'max'")
    for key in ("expect", "tol", "min", "max"):
        _number(c, key, where, required=False)
    _expect(c.get("tol", 0.0) >= 0.0, f"{where}: 'tol' must be >= 0")


# ----------------------------------------------------------------- building

def build_anisotropy(doc: dict):
    preset = doc.get("preset")
    if preset is not None:
        if preset == "square":
            _expect_keys(doc, ("preset",), "anisotropy")
            return square_anisotropy()
        if preset == "regular":
            _expect_keys(doc, ("preset", "sides", "circumradius"), "anisotropy")
            sides = doc.get("sides")
            _expect(isinstance(sides, int) and sides >= 3,
                    "anisotropy: 'sides' must be an integer >= 3")
            circ = _number(doc, "circumradius", "anisotropy", required=False,
                           positive=True, default=1.0)
            return regular_polygon_anisotropy(sides, circumradius=circ)
        raise SchemaError(f"anisotropy: unknown preset {preset!r}")
    verts = doc.get("vertices")
    _expect(isinstance(verts, list) and len(verts) >= 3,
            "anisotropy needs 'preset' or a 'vertices' list")
    _expect_keys(doc, ("vertices",), "anisotropy")
    try:
        return build_wulff(np.asarray(verts, dtype=float))
    except CrystalFlowError as exc:
        raise BuildError(f"anisotropy: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"anisotropy: bad vertex list ({exc})") from exc


def _curve_from_vertices(a, doc):
    verts = doc.get("vertices")
    _expect(isinstance(verts, list) and len(verts) >= 1,
            "curve: 'vertices' must be a nonempty list")
    topology = doc.get("topology", "closed")
    _expect(topology in ("closed", "unbounded"),
            "curve: topology must be 'closed' or 'unbounded'")
    rays = doc.get("rays")
    if topology == "unbounded":
        _expect(isinstance(rays, list) and len(rays) == 2,
                "curve: unbounded topology needs a 2-element 'rays' list")
    try:
        return build_curve(a, np.asarray(verts, dtype=float), topology,
                           ray_directions=None if rays is None
                           else np.asarray(rays, dtype=float))
    except CrystalFlowError as exc:
        raise BuildError(f"curve: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"curve: bad vertex data ({exc})") from exc


def build_scenario_curve(a, doc: dict, alpha: float):
    """Returns (curve, extras) where extras lands in the manifest.  ``doc``
    is a curve block that passed ``validate_scenario``."""
    if "generator" in doc:
        gen = doc["generator"]
        family = gen["family"]
        _expect(family == "wulff" or is_square_anisotropy(a),
                f"curve.generator family {family!r} requires the square "
                "anisotropy preset")
        try:
            if family == "wulff":
                scale = _number(gen, "scale", "generator", positive=True)
                return (build_curve(a, scale * a.vertices, "closed"),
                        {"family": "wulff", "scale": scale})
            if family == "stationary":
                klass = StationaryClass(
                    kind=gen.get("kind", ""),
                    closed=gen.get("closed", False),
                    m=gen.get("m"), a=gen.get("a"), b=gen.get("b"))
                curve = make_stationary_square_aniso(
                    klass, alpha, connectors=gen.get("connectors"))
                return curve, {"family": "stationary", "kind": klass.kind}
            if family == "translating":
                kind = gen.get("kind", "")
                params = {k: v for k, v in gen.items()
                          if k in ("lam", "a", "m")}
                curve, lam = make_translating_square_aniso(kind, alpha, **params)
                return curve, {"family": "translating", "kind": kind,
                               "velocity": lam}
            return (make_nontranslating_two_rectangles(alpha),
                    {"family": "two-rectangles"})
        except CrystalFlowError as exc:
            raise BuildError(f"curve generator: {exc}") from exc
    if "vertices" in doc:
        return _curve_from_vertices(a, doc), None
    raise SchemaError("curve needs either 'vertices' or 'generator'")


def _perturb(curve, pert: dict, seed_override):
    seed = pert["seed"] if seed_override is None else seed_override
    rng = np.random.default_rng(seed)
    b = curve.bounded
    n_b = int(np.sum(b))
    if n_b == 0:
        return curve, seed
    scale = pert["scale"] * curve.total_bounded_length / n_b
    h = np.where(b, rng.uniform(-1.0, 1.0, curve.n) * scale, 0.0)
    try:
        return reconstruct_parallel(curve, h), seed
    except CrystalFlowError as exc:
        raise BuildError(f"perturbation collapsed a segment: {exc}") from exc


# ---------------------------------------------------------------- emissions

_SERIES_HEADER = ("t", "energy", "dissipation", "max_abs_rate",
                  "min_bounded_length", "total_bounded_length")


def _series_rows(traj: Trajectory, k: int) -> np.ndarray:
    """Epoch k's series table: one row per sample, columns _SERIES_HEADER."""
    ref, s = traj.epochs[k], traj.series[k]
    lens = s.lengths[:, ref.bounded]
    # a corner of two half-lines has no bounded segment
    min_len = np.min(lens, axis=1) if lens.size else np.zeros(len(s.t))
    return np.column_stack([s.t, s.energy, dissipation_rate(ref, s),
                            np.max(np.abs(s.h_rates), axis=1), min_len,
                            row_sums(lens)])


def emit_series(traj: Trajectory, name: str, out_dir: str):
    files = []
    for k in range(traj.n_epochs):
        rows = _series_rows(traj, k)
        fname = f"{name}_series_epoch{k}.csv"
        path = os.path.join(out_dir, fname)
        try:
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(_SERIES_HEADER)
                for row in rows.tolist():
                    w.writerow([_fmt(v) for v in row])
        except OSError as exc:
            raise IOFailure(f"cannot write {path}: {exc}") from exc
        files.append(fname)
    return files


def _clip_halflines(curve, radius):
    """Polyline endpoints with the two half-lines cut at |x| = radius."""
    pts = [np.asarray(v, dtype=float) for v in curve.vertices]
    ends = []
    for which, ray, anchor in ((0, curve.rays[0], pts[0]),
                               (1, curve.rays[1], pts[-1])):
        along = float(anchor @ ray)
        disc = along * along + radius * radius - float(anchor @ anchor)
        if disc <= 0.0:  # anchor outside the disc; fall back to a unit stub
            u = 1.0
        else:
            u = -along + math.sqrt(disc)
            if u <= 0.0:
                u = 1.0
        ends.append(anchor + u * np.asarray(ray))
    return [ends[0].tolist()] + [p.tolist() for p in pts] + [ends[1].tolist()]


def _auto_radius(curve) -> float:
    verts = np.asarray(curve.vertices, dtype=float)
    base = float(np.max(np.linalg.norm(verts, axis=1))) if len(verts) else 1.0
    return 1.5 * base + max(curve.total_bounded_length, 1.0)


def snapshot_at(traj: Trajectory, t_req: float, p: FlowParams):
    """Materialized curve at the sample nearest to ``t_req``."""
    if traj.final_state is None or not traj.series:
        raise TimeOutOfRange("trajectory holds no samples")
    t_final = traj.final_state.t
    if not (-1e-12 <= t_req <= t_final * (1.0 + 1e-12) + 1e-12):
        raise TimeOutOfRange(
            f"snapshot time {t_req} outside the simulated range [0, {t_final}]")
    # the nearest row of each epoch; ties at restart times resolve toward the
    # later epoch (post-restart curve)
    nearest = None  # (distance, epoch, row)
    for k, s in enumerate(traj.series):
        j = int(np.argmin(np.abs(s.t - t_req)))
        d = abs(float(s.t[j]) - t_req)
        if nearest is None or d <= nearest[0]:
            nearest = (d, k, j)
    _, k, j = nearest
    best = traj.series[k]
    curve = reconstruct_parallel(traj.epochs[k], best.h[j])
    radius = p.window_radius
    if radius is None or np.any(np.linalg.norm(curve.vertices, axis=1) >= radius):
        radius = _auto_radius(curve)
    if curve.closed:
        points = [v.tolist() for v in np.asarray(curve.vertices, dtype=float)]
    else:
        points = _clip_halflines(curve, radius)
    return {
        "t_requested": float(t_req),
        "t": float(best.t[j]),
        "epoch": k,
        "closed": bool(curve.closed),
        "points": points,
        "heights": [float(v) for v in best.h[j]],
        "lengths": [None if not math.isfinite(float(v)) else float(v)
                    for v in best.lengths[j]],
        "window_radius": float(radius),
    }


def emit_snapshots(traj, name, out_dir, times, p):
    doc = {
        "schema_version": 1,
        "name": name,
        "snapshots": [snapshot_at(traj, t, p) for t in times],
    }
    fname = f"{name}_snapshots.json"
    _write_text(os.path.join(out_dir, fname), _dump_json(doc))
    return fname


# ------------------------------------------------------------------- checks

def _final_index(traj):
    ref = traj.final_state.reference
    return curve_index(ref) if ref.closed else None


def _expect_equal(label, measure):
    """Evaluator of a check that compares ``measure(traj)`` with 'expect'."""
    def evaluate(c, traj, opts):
        got = measure(traj)
        return got == c["expect"], f"{label}={got}"
    return evaluate


def _check_dissipation(c, traj, opts):
    try:
        r = dissipation_residual(traj)
    except InsufficientSamples:
        r = None
    ok = r is not None and r <= c["max_residual"]
    return ok, f"residual={'n/a' if r is None else _fmt(r)}"


def _check_final_energy(c, traj, opts):
    e = traj.series[-1].energy[-1]
    ok = True
    if "expect" in c:
        ok = abs(e - c["expect"]) <= c["tol"]
    if "max" in c:
        ok = ok and e <= c["max"]
    if "min" in c:
        ok = ok and e >= c["min"]
    return ok, f"energy={_fmt(e)}"


def _check_stationary_limit(c, traj, opts):
    rep = convergence_monitor(traj, opts)
    kind = None if rep.classification is None else rep.classification.kind
    ok = rep.stationary and ("kind" not in c or kind == c["kind"])
    res = "n/a" if rep.residual is None else _fmt(rep.residual)
    return ok, f"stationary={rep.stationary} kind={kind} residual={res}"


# check type -> (required keys, optional keys, evaluator), besides "type";
# an evaluator maps (check, trajectory, options) to (passed, detail)
_CHECK_TYPES = {
    "status": (("expect",), (), _expect_equal("status", lambda traj: traj.status)),
    "dissipation": (("max_residual",), (), _check_dissipation),
    "restart-count": (("expect",), (),
                      _expect_equal("restarts", lambda traj: len(traj.restarts))),
    "final-energy": ((), ("expect", "tol", "min", "max"), _check_final_energy),
    "segment-count": (("expect",), (), _expect_equal(
        "segments", lambda traj: traj.final_state.reference.n)),
    "index": (("expect",), (), _expect_equal("index", _final_index)),
    "stationary-limit": ((), ("kind",), _check_stationary_limit),
}


def run_checks(checks, traj: Trajectory, p: FlowParams,
               opts: IntegratorOptions):
    results = []
    for c in checks:
        ok, detail = _CHECK_TYPES[c["type"]][2](c, traj, opts)
        results.append({"type": c["type"], "passed": bool(ok), "detail": detail})
    return results


# ----------------------------------------------------------------- simulate

def _resolve_out_dir(flag_value):
    out = flag_value or os.environ.get("CRYSTAL_FLOW_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {out}: {exc}") from exc
    return out


def run_scenario(doc: dict, out_dir: str = ".", check: bool = False,
                 max_time: float | None = None, seed: int | None = None):
    """Run one validated scenario; returns (exit_code, manifest_dict)."""
    name = doc["name"]
    a = build_anisotropy(doc["anisotropy"])
    alpha = float(doc["params"]["alpha"])
    wr = doc["params"].get("window_radius")
    p = FlowParams(alpha=alpha, window_radius=None if wr is None else float(wr))
    curve, gen_info = build_scenario_curve(a, doc["curve"], alpha)

    pert_info = None
    if doc.get("perturb_heights") is not None:
        curve, used_seed = _perturb(curve, doc["perturb_heights"], seed)
        pert_info = {"seed": int(used_seed),
                     "scale": float(doc["perturb_heights"]["scale"])}

    integ = dict(doc.get("integrator", {}))
    if max_time is not None:
        integ["max_time"] = max_time
    try:
        opts = IntegratorOptions(**integ)
    except CrystalFlowError as exc:
        raise SchemaError(f"integrator: {exc}") from exc

    traj = evolve(curve, p, opts)

    outputs = doc.get("outputs", {})
    want_series = outputs.get("series", True)
    want_manifest = outputs.get("manifest", True)
    snap_times = outputs.get("snapshots", [])

    series_files = emit_series(traj, name, out_dir) if want_series \
        else [None] * traj.n_epochs
    snap_file = None
    if snap_times:
        snap_file = emit_snapshots(traj, name, out_dir, snap_times, p)

    try:
        resid = dissipation_residual(traj)
    except InsufficientSamples:
        resid = None

    checks = doc.get("checks", [])
    results = run_checks(checks, traj, p, opts) if checks else []
    all_passed = all(r["passed"] for r in results)

    epochs = [{
        "epoch": k,
        "t_start": float(s.t[0]),
        "t_end": float(s.t[-1]),
        "segments": int(ref.n),
        "samples": len(s.t),
        "series": series_files[k],
    } for k, (ref, s) in enumerate(zip(traj.epochs, traj.series))]
    restarts = [{
        "t": float(r.t),
        "epoch_before": int(r.epoch_before),
        "vanished": list(r.vanished),
        "merge_map": list(r.merge_map),
        "index_before": r.index_before,
        "index_after": r.index_after,
    } for r in traj.restarts]
    last = traj.series[-1]
    fb = traj.final_state.reference.bounded
    manifest = {
        "schema_version": 1,
        "name": name,
        "params": {"alpha": alpha, "window_radius": wr},
        "integrator": {k: getattr(opts, k) for k in _INTEGRATOR_KEYS},
        "generator": gen_info,
        "perturb": pert_info,
        "status": traj.status,
        "t_final": float(traj.final_state.t),
        "epochs": epochs,
        "restarts": restarts,
        "final": {
            "energy": float(last.energy[-1]),
            "max_abs_rate": float(np.max(np.abs(last.h_rates[-1]))),
            "segments": int(traj.final_state.reference.n),
            "index": _final_index(traj),
            "total_bounded_length": float(np.sum(last.lengths[-1][fb])),
        },
        "dissipation_residual": resid,
        "snapshots": snap_file,
        "checks": results,
    }
    if want_manifest:
        _write_text(os.path.join(out_dir, f"{name}_manifest.json"),
                    _dump_json(manifest))
    code = 0
    if check and checks and not all_passed:
        code = 1
    return code, manifest


def _cmd_simulate(args) -> int:
    doc = load_scenario(args.scenario)
    out_dir = _resolve_out_dir(args.out_dir)
    code, manifest = run_scenario(doc, out_dir, check=args.check,
                                  max_time=args.max_time, seed=args.seed)
    n_checks = len(manifest["checks"])
    n_pass = sum(1 for r in manifest["checks"] if r["passed"])
    line = (f"{manifest['name']}: status={manifest['status']} "
            f"t_final={manifest['t_final']:.6g} "
            f"epochs={len(manifest['epochs'])} "
            f"energy={manifest['final']['energy']:.9g}")
    if n_checks:
        line += f" checks={n_pass}/{n_checks}"
    print(line)
    if code != 0:
        for r in manifest["checks"]:
            if not r["passed"]:
                print(f"  FAILED {r['type']}: {r['detail']}", file=sys.stderr)
    return code


# ------------------------------------------------------------- other cmds

def _curve_to_doc(curve) -> dict:
    doc = {
        "anisotropy": {"preset": "square"} if is_square_anisotropy(curve.anisotropy)
        else {"vertices": [v.tolist() for v in curve.anisotropy.vertices]},
        "topology": curve.topology,
        "vertices": [list(map(float, v)) for v in curve.vertices],
        "transitions": [int(v) for v in curve.transitions],
        "lengths": [None if not math.isfinite(float(v)) else float(v)
                    for v in curve.lengths],
    }
    if not curve.closed:
        doc["rays"] = [list(map(float, r)) for r in curve.rays]
    return doc


def _curve_from_doc(doc: dict):
    if "curve" in doc:
        doc = doc["curve"]
    _expect(isinstance(doc, dict) and "vertices" in doc,
            "curve file needs a 'vertices' list (optionally under 'curve')")
    a = build_anisotropy(doc.get("anisotropy", {"preset": "square"}))
    return _curve_from_vertices(a, doc)


def _cmd_catalog(args) -> int:
    if args.list:
        print("\n".join([analysis.KIND_STAIRCASE, analysis.KIND_RIGHT_ANGLE_CHAIN,
                         analysis.KIND_DOUBLE_CHAIN, analysis.KIND_WULFF_SQUARE]))
        return 0
    if not args.kind:
        raise SchemaError("catalog: --kind is required (or use --list)")
    connectors = None
    if args.connectors:
        try:
            connectors = [float(v) for v in args.connectors.split(",") if v]
        except ValueError as exc:
            raise SchemaError(f"catalog: bad --connectors list: {exc}") from exc
    klass = StationaryClass(kind=args.kind, closed=args.closed, m=args.m,
                            a=args.a, b=args.b)
    try:
        curve = make_stationary_square_aniso(klass, args.alpha,
                                             connectors=connectors)
    except CrystalFlowError as exc:
        raise BuildError(f"catalog: {exc}") from exc
    p = FlowParams(alpha=args.alpha)
    doc = {
        "schema_version": 1,
        "kind": klass.kind,
        "closed": klass.closed,
        "m": klass.m,
        "alpha": args.alpha,
        "residual": analysis.stationarity_residual(curve, p),
        "curve": _curve_to_doc(curve),
    }
    text = _dump_json(doc)
    if args.out and args.out != "-":
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    curve = _curve_from_doc(_read_json(args.curve))
    try:
        klass = classify_stationary_square(curve, args.alpha, tol=args.tol)
    except CrystalFlowError as exc:
        print(_dump_json({"error": str(exc)}), end="")
        return 1
    print(_dump_json({
        "kind": klass.kind,
        "closed": klass.closed,
        "m": klass.m,
        "a": klass.a,
        "b": klass.b,
    }), end="")
    if args.expect is not None and klass.kind != args.expect:
        return 1
    return 0


def _cmd_translating_check(args) -> int:
    curve = _curve_from_doc(_read_json(args.curve))
    try:
        eta = [float(v) for v in args.eta.split(",")]
        if len(eta) != 2:
            raise ValueError("eta needs two components")
    except ValueError as exc:
        raise SchemaError(f"bad --eta value: {exc}") from exc
    p = FlowParams(alpha=args.alpha)
    report = translation_check(curve, p, eta, tol=args.tol)
    if report is None:
        print(_dump_json({"report": None,
                          "note": "closed curves never translate"}), end="")
        return 1 if args.check else 0
    print(_dump_json({
        "eta": list(report.eta),
        "velocity": report.velocity,
        "residual": report.residual,
        "accepted": report.accepted,
    }), end="")
    if args.check and not report.accepted:
        return 1
    return 0


def _cmd_verify_identity(args) -> int:
    if args.preset == "square":
        a = square_anisotropy()
    else:
        a = regular_polygon_anisotropy(args.sides)
    worst = 0.0
    count = 0
    for mid in range(a.K):
        for s1 in (1, -1):
            for s2 in (1, -1):
                prev = (mid - s1) % a.K
                nxt = (mid + s2) % a.K
                worst = max(worst, facet_identity_residual(a, prev, mid, nxt))
                count += 1
    ok = worst <= args.tol
    print(_dump_json({
        "preset": args.preset if args.preset == "square"
        else f"regular-{args.sides}",
        "triples": count,
        "max_residual": worst,
        "tol": args.tol,
        "passed": ok,
    }), end="")
    return 0 if ok else 1


def _cmd_audit(args) -> int:
    manifest = _read_json(args.manifest)
    for key in ("epochs", "final", "name"):
        _expect(key in manifest, f"audit: manifest is missing {key!r}")
    epochs, final = manifest["epochs"], manifest["final"]
    _expect(isinstance(epochs, list) and all(
        isinstance(ep, dict) and isinstance(ep.get("series"), (str, type(None)))
        for ep in epochs), "audit: manifest 'epochs' must be a list of "
            "objects, each with a 'series' file name or null")
    _expect(isinstance(final, dict)
            and isinstance(final.get("energy"), (int, float, type(None))),
            "audit: manifest 'final' must be an object with a numeric 'energy'")
    base = os.path.dirname(os.path.abspath(args.manifest))
    worst = 0.0
    max_rise = 0.0
    prev_end = None
    last_energy = None
    rows_seen = 0
    for ep in epochs:
        fname = ep.get("series")
        if fname is None:
            raise IOFailure("audit: manifest epoch has no series file "
                            "(rerun with outputs.series enabled)")
        path = os.path.join(base, fname)
        try:
            with open(path, newline="") as fh:
                rdr = csv.reader(fh)
                header = next(rdr)
                rows = [[float(v) for v in row] for row in rdr]
        except OSError as exc:
            raise IOFailure(f"audit: cannot read {path}: {exc}") from exc
        except (StopIteration, ValueError) as exc:
            raise SchemaError(f"audit: malformed series file {path}") from exc
        _expect(header == list(_SERIES_HEADER),
                f"audit: unexpected series columns in {path}")
        _expect(all(len(row) == len(_SERIES_HEADER) for row in rows),
                f"audit: malformed series file {path}")
        if not rows:
            continue
        rows_seen += len(rows)
        t, F, W = np.array(rows)[:, :3].T
        scale = max(1.0, float(np.max(np.abs(F))))
        if prev_end is not None:
            max_rise = max(max_rise, float(F[0] - prev_end) / scale)
        rises = np.diff(F)
        if rises.size:
            max_rise = max(max_rise, float(np.max(rises)) / scale)
        prev_end = float(F[-1])
        last_energy = float(F[-1])
        worst = max(worst, epoch_dissipation_residual(t, F, W))
    _expect(rows_seen > 0, "audit: no series rows found")
    stored = final.get("energy")
    energy_match = (stored is not None and last_energy is not None
                    and abs(stored - last_energy)
                    <= 1e-12 * max(1.0, abs(stored)))
    ok = (worst <= args.tol and max_rise <= args.energy_tol and energy_match)
    print(_dump_json({
        "name": manifest["name"],
        "rows": rows_seen,
        "dissipation_residual": worst,
        "max_energy_rise": max_rise,
        "final_energy_matches": energy_match,
        "tol": args.tol,
        "passed": ok,
    }), end="")
    return 0 if ok else 1


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crystalflow",
        description="Crystalline elastic flow of polygonal curves: "
                    "simulation, stationary catalog, and verification tools.")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario JSON file")
    sim.add_argument("scenario", help="path to the scenario file")
    sim.add_argument("--out-dir", default=None,
                     help="output directory (default: $CRYSTAL_FLOW_OUT or .)")
    sim.add_argument("--check", action="store_true",
                     help="exit 1 if any scenario check fails")
    sim.add_argument("--max-time", type=float, default=None,
                     help="override integrator.max_time")
    sim.add_argument("--seed", type=int, default=None,
                     help="override perturb_heights.seed")
    sim.set_defaults(func=_cmd_simulate)

    cat = sub.add_parser("catalog", help="emit a stationary curve as JSON")
    cat.add_argument("--list", action="store_true", help="list known kinds")
    cat.add_argument("--kind", default=None)
    cat.add_argument("--closed", action="store_true")
    cat.add_argument("--m", type=int, default=None)
    cat.add_argument("--a", type=float, default=None)
    cat.add_argument("--b", type=float, default=None)
    cat.add_argument("--alpha", type=float, default=1.0)
    cat.add_argument("--connectors", default=None,
                     help="comma-separated free connector lengths")
    cat.add_argument("--out", default="-", help="output file or - for stdout")
    cat.set_defaults(func=_cmd_catalog)

    cls = sub.add_parser("classify", help="classify a stationary curve file")
    cls.add_argument("curve", help="curve JSON (catalog output or curve block)")
    cls.add_argument("--alpha", type=float, default=1.0)
    cls.add_argument("--tol", type=float, default=1e-8)
    cls.add_argument("--expect", default=None,
                     help="exit 1 unless the kind matches")
    cls.set_defaults(func=_cmd_classify)

    trc = sub.add_parser("translating-check",
                         help="fit a translation velocity to a curve file")
    trc.add_argument("curve")
    trc.add_argument("--alpha", type=float, default=1.0)
    trc.add_argument("--eta", default="0,1", help="direction, e.g. '0,1'")
    trc.add_argument("--tol", type=float, default=1e-8)
    trc.add_argument("--check", action="store_true",
                     help="exit 1 unless the profile is accepted")
    trc.set_defaults(func=_cmd_translating_check)

    vid = sub.add_parser("verify-identity",
                         help="sweep the facet identity over all triples")
    vid.add_argument("--preset", choices=("square", "regular"),
                     default="square")
    vid.add_argument("--sides", type=int, default=6,
                     help="polygon sides for --preset regular")
    vid.add_argument("--tol", type=float, default=1e-12)
    vid.set_defaults(func=_cmd_verify_identity)

    aud = sub.add_parser("audit",
                         help="recheck a finished run from its manifest")
    aud.add_argument("manifest", help="path to a *_manifest.json file")
    aud.add_argument("--tol", type=float, default=1e-6,
                     help="absolute bound on the dissipation residual; unlike "
                          "--energy-tol it does not scale with the energy, so "
                          "runs with large energies need a larger value")
    aud.add_argument("--energy-tol", type=float, default=1e-7,
                     help="relative tolerance for energy increases")
    aud.set_defaults(func=_cmd_audit)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CrystalFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
