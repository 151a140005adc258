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
(sort_keys), repr-formatted floats, no timestamps.  Snapshot files are one
compact JSON line; every other JSON output is indented by 2 spaces.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .curve import build_curve, curve_index, line_junctions, reconstruct_parallel
from .energy import FlowParams, facet_identity_residual, windowed_lengths
from .errors import (
    BuildError,
    CrystalFlowError,
    IOFailure,
    NotStationary,
    SchemaError,
    TimeOutOfRange,
)
from .flow import (
    IntegratorOptions,
    Trajectory,
    dissipation_residual,
    epoch_dissipation_residual,
    evolve,
)
from . import analysis, flow
from .analysis import (
    StationaryClass,
    classify_stationary_square,
    convergence_monitor,
    make_nontranslating_two_rectangles,
    make_stationary_square_aniso,
    make_translating_square_aniso,
    translation_check,
)

__all__ = ["main", "console_main", "run_scenario", "load_scenario",
           "AUDIT_REL_TOL"]

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
# audit's default bound on the dissipation residual, relative to max(1, |F(0)|)
AUDIT_REL_TOL = 1e-6


# ------------------------------------------------------------------ helpers

def _expect(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _dump_json(obj) -> str:
    """``obj`` as indented JSON text plus a newline, keys sorted, numpy
    arrays and scalars sent through ``tolist()``."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda o: o.tolist()) + "\n"


def _write_text(path: str, *parts):
    """Write the strings ``parts``, in order, as the file's text; a part may
    also be an iterable of strings, written as it yields them."""
    # in place, then cut: ext4 flushes a file truncated at open on its close
    try:
        with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "w",
                  newline="") as fh:
            for part in parts:
                fh.writelines([part] if isinstance(part, str) else part)
            fh.truncate()
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def _write_output(out_dir: str, fname: str, *parts):
    """Write a run's output file, creating ``out_dir`` at its first file."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {out_dir}: {exc}") from exc
    _write_text(os.path.join(out_dir, fname), *parts)


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


# --------------------------------------------------------------- validation

# The schema of every file the program reads.  A block maps each key to
# (kind, default), and a kind is (test, what an error says the value must
# be), plus for an object or a list the reader of its contents, called with
# (value, where).  An absent key takes its default, and a key whose default
# is None may also be given as null; _REQUIRED keys must be given.
_REQUIRED = object()
_BOOLEAN = (lambda v: isinstance(v, bool), "true or false")
_INTEGER = (_is_integer, "an integer")
_COUNT = (lambda v: _is_integer(v) and v >= 0, "a non-negative integer")
_NUMBER = (_is_finite_number, "a finite number")
_POSITIVE = (lambda v: _is_finite_number(v) and v > 0, "a positive number")
_TOLERANCE = (lambda v: _is_finite_number(v) and v >= 0, "a finite number >= 0")
_STRING = (lambda v: isinstance(v, str), "a string")


def _list_of(test, what: str):
    return (lambda v: isinstance(v, list) and all(map(test, v)), what)


_NUMBERS = _list_of(_is_finite_number, "a list of finite numbers")
_INDICES = _list_of(_is_integer, "a list of integers")
_PAIR = (lambda v: _NUMBERS[0](v) and len(v) == 2, "two finite numbers")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_OBJECTS = _list_of(_OBJECT[0], "a list of objects")


def _one_of(*values):
    return (lambda v: v in values, "one of " + ", ".join(map(repr, values)))


def _points(least: int, most: float = math.inf):
    return (lambda v: isinstance(v, list) and least <= len(v) <= most
            and all(map(_PAIR[0], v)),
            f"a list of {least}{'' if most == least else ' or more'} "
            "finite [x, y] pairs")


def _block(keys: dict):
    return _OBJECT + (lambda v, where: _read(v, keys, where),)


def _blocks(keys: dict, test=_OBJECTS):
    return test + (lambda v, where: [_read(x, keys, f"{where}[{i}]")
                                     for i, x in enumerate(v)],)


def _read(block: dict, keys: dict, where: str) -> dict:
    """The value of each key of ``keys`` in ``block``, checked against its
    kind, or its default when absent."""
    unknown = block.keys() - keys
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (kind, default) in keys.items():
        v = block.get(key)
        if key not in block or (v is None and default is None):
            if default is _REQUIRED:
                raise SchemaError(f"{where}: missing required key {key!r}")
            v = default
        elif not kind[0](v):
            raise SchemaError(f"{where}: {key!r} must be {kind[1]}")
        if len(kind) == 3 and v is not None:
            v = kind[2](v, key)
        out[key] = v
    return out


def _read_tagged(block, where: str, tag: str, table: dict) -> dict:
    """The object ``block`` read by the keys of the ``table`` entry that its
    ``tag`` names (the entry None when it has no tag), the tag included.  An
    entry is (its keys besides the tag, what a run does with the block)."""
    name = block.get(tag)
    if not (name is None or isinstance(name, str)) or name not in table:
        _expect(tag in block, f"{where}: missing required key {tag!r}")
        raise SchemaError(f"{where}: unknown {tag} {name!r} "
                          f"(known: {sorted(filter(None, table))})")
    return _read(block, {tag: (_STRING, None), **table[name][0]}, where)


def _read_curve(curve: dict, where: str) -> dict:
    """A curve block: a generator block, or a curve given by its vertices."""
    if "generator" not in curve:
        c = _read(curve, _VERTEX_CURVE, where)
        _expect(c["topology"] == "closed" or c["rays"] is not None,
                f"{where}: unbounded topology needs a 2-element 'rays' list")
        return c
    gen = _read(curve, {"generator": (_OBJECT, _REQUIRED)}, where)["generator"]
    return {"generator": _read_tagged(gen, f"{where}.generator", "family",
                                      _GENERATORS)}


def _read_check(c, where: str) -> dict:
    c = _read_tagged(c, where, "type", _CHECK_TYPES)
    if c["type"] == "final-energy":
        _expect((c["expect"] is None) == (c["tol"] is None),
                f"{where}: 'expect' and 'tol' must be given together")
        _expect(any(c[k] is not None for k in ("expect", "min", "max")),
                f"{where}: needs 'expect' with 'tol', or 'min'/'max'")
    return c


def _read_integrator(block, where: str) -> IntegratorOptions:
    keys = _read(block, _INTEGRATOR, where)
    try:
        return IntegratorOptions(**keys)
    except CrystalFlowError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


_ANISOTROPY = _OBJECT + (
    lambda v, where: _read_tagged(v, where, "preset", _PRESETS),)
_VERTEX_CURVE = {"vertices": (_points(1), _REQUIRED),
                 "topology": (_one_of("closed", "unbounded"), "closed"),
                 "rays": (_points(2, 2), None)}
# substeps is the one integer field
_INTEGRATOR = {f.name: (_INTEGER if isinstance(f.default, int) else _NUMBER,
                        f.default) for f in dataclasses.fields(IntegratorOptions)}

_SCENARIO = {
    "schema_version": ((lambda v: _is_integer(v) and v == 1, "the integer 1"),
                       _REQUIRED),
    "name": ((lambda v: isinstance(v, str) and bool(_NAME_RE.fullmatch(v)),
              f"a string matching {_NAME_RE.pattern}"), _REQUIRED),
    "anisotropy": (_ANISOTROPY, _REQUIRED),
    "curve": (_OBJECT + (_read_curve,), _REQUIRED),
    "params": (_block({"alpha": (_POSITIVE, _REQUIRED),
                       "window_radius": (_POSITIVE, None)}), _REQUIRED),
    "integrator": (_OBJECT + (_read_integrator,), {}),
    "perturb_heights": (_block({"seed": (_COUNT, _REQUIRED),
                                "scale": (_POSITIVE, _REQUIRED)}), None),
    "outputs": (_block({"series": (_BOOLEAN, True), "manifest": (_BOOLEAN, True),
                        "snapshots": (_NUMBERS, ())}), {}),
    "checks": (_OBJECTS + (lambda v, where: [
        _read_check(c, f"{where}[{i}]") for i, c in enumerate(v)],), ()),
}


def load_scenario(path: str) -> dict:
    doc = _read_json(path)
    validate_scenario(doc)
    return doc


def validate_scenario(doc: dict):
    """Raises SchemaError unless ``doc`` fits the scenario schema."""
    _read(doc, _SCENARIO, "scenario")


# ----------------------------------------------------------------- building

# anisotropy preset -> (its keys besides "preset", builder); a builder maps
# the block to the anisotropy, and None is the preset of a Wulff vertex list
_PRESETS = {
    "square": ({}, lambda an: square_anisotropy()),
    "regular": ({"sides": ((lambda v: _is_integer(v) and v >= 3,
                            "an integer >= 3"), _REQUIRED),
                 "circumradius": (_POSITIVE, 1.0)},
                lambda an: regular_polygon_anisotropy(
                    an["sides"], circumradius=float(an["circumradius"]))),
    None: ({"vertices": (_points(3), _REQUIRED)},
           lambda an: build_wulff(an["vertices"])),
}


def build_anisotropy(doc: dict):
    """The anisotropy of a block as ``validate_scenario`` reads it."""
    try:
        return _PRESETS[doc["preset"]][1](doc)
    except CrystalFlowError as exc:
        raise BuildError(f"anisotropy: {exc}") from exc


def _curve_from_vertices(a, doc: dict):
    try:
        return build_curve(a, doc["vertices"], doc["topology"],
                           ray_directions=doc["rays"])
    except CrystalFlowError as exc:
        raise BuildError(f"curve: {exc}") from exc


def _wulff_curve(a, alpha, gen):
    scale = float(gen["scale"])
    return (build_curve(a, scale * a.vertices, "closed"),
            {"family": "wulff", "scale": scale})


def _stationary_curve(a, alpha, gen):
    klass = StationaryClass(gen["kind"], gen["closed"], gen["m"], gen["a"],
                            gen["b"])
    return (make_stationary_square_aniso(klass, alpha,
                                         connectors=gen["connectors"]),
            {"family": "stationary", "kind": klass.kind})


def _translating_curve(a, alpha, gen):
    given = {k: gen[k] for k in ("lam", "a", "m") if gen[k] is not None}
    curve, lam = make_translating_square_aniso(gen["kind"], alpha, **given)
    return curve, {"family": "translating", "kind": gen["kind"], "velocity": lam}


def _two_rectangles_curve(a, alpha, gen):
    return make_nontranslating_two_rectangles(alpha), {"family": "two-rectangles"}


# curve generator family -> (its keys besides "family", builder); a builder
# maps (anisotropy, alpha, keys) to (curve, the manifest's generator entry)
_GENERATORS = {
    "wulff": ({"scale": (_POSITIVE, _REQUIRED)}, _wulff_curve),
    "stationary": ({"kind": (_one_of(*analysis.STATIONARY_KINDS), _REQUIRED),
                    "closed": (_BOOLEAN, False),
                    "m": (_INTEGER, None), "a": (_NUMBER, None),
                    "b": (_NUMBER, None), "connectors": (_NUMBERS, None)},
                   _stationary_curve),
    "translating": ({"kind": (_one_of(*analysis.TRANSLATING_KINDS), _REQUIRED),
                     "lam": (_NUMBER, None),
                     "a": (_NUMBER, None), "m": (_INTEGER, None)},
                    _translating_curve),
    "two-rectangles": ({}, _two_rectangles_curve),
}


def build_scenario_curve(a, doc: dict, alpha: float):
    """Returns (curve, extras) where extras lands in the manifest.  ``doc``
    is a curve block as ``validate_scenario`` reads it."""
    if "generator" not in doc:
        return _curve_from_vertices(a, doc), None
    gen = doc["generator"]
    family = gen["family"]
    _expect(family == "wulff" or is_square_anisotropy(a),
            f"curve.generator family {family!r} requires the square "
            "anisotropy preset")
    try:
        return _GENERATORS[family][1](a, alpha, gen)
    except CrystalFlowError as exc:
        raise BuildError(f"curve generator: {exc}") from exc


def _perturb(curve, pert: dict):
    rng = np.random.default_rng(pert["seed"])
    b = curve.bounded
    n_b = int(np.sum(b))
    if n_b == 0:
        return curve
    scale = pert["scale"] * curve.total_bounded_length / n_b
    h = np.where(b, rng.uniform(-1.0, 1.0, curve.n) * scale, 0.0)
    try:
        return reconstruct_parallel(curve, h)
    except CrystalFlowError as exc:
        raise BuildError(f"perturbation collapsed a segment: {exc}") from exc


# ---------------------------------------------------------------- emissions

# the series file's columns, each an EpochSeries column of the same name
_SERIES_HEADER = ("t", "energy", "dissipation", "dissipated", "max_abs_rate",
                  "min_bounded_length", "total_bounded_length")


def emit_series(traj: Trajectory, name: str, out_dir: str):
    """One CSV file per epoch, columns _SERIES_HEADER, one row per sample.
    The text is the bytes ``csv.writer`` gives: ``,`` between fields and
    ``\\r\\n`` after each line, the floats as their repr."""
    files = []
    for k, s in enumerate(traj.series):
        cols = np.column_stack([getattr(s, c) for c in _SERIES_HEADER])
        lines = [",".join(_SERIES_HEADER)]
        lines += [",".join(map(float.__repr__, row)) for row in cols.tolist()]
        fname = f"{name}_series_epoch{k}.csv"
        _write_output(out_dir, fname, "\r\n".join(lines) + "\r\n")
        files.append(fname)
    return files


def _row_at(traj: Trajectory, t: float):
    """(epoch, row) of the row at time ``t``: the later epoch's at a restart
    time, where both epochs hold one."""
    for k in reversed(range(len(traj.series))):
        (j,) = np.nonzero(traj.series[k].t == t)
        if len(j):
            return k, int(j[0])
    raise TimeOutOfRange(f"snapshot time {t} is not a row of the run: "
                         "outside it, or not one of the times evolve was given")


def snapshot_at(traj: Trajectory, t: float, p: FlowParams):
    """The curve of the row at time ``t``, which ``evolve`` records at each
    of its ``times`` the run reaches: ``points`` are the junctions of the
    epoch's segment lines at the row's heights, and an unbounded curve adds
    each half-line's end at the clip the row's energy reads
    (``windowed_lengths``, which raises WindowTooSmall without a window).
    ``window_radius`` is ``p.window_radius``."""
    k, j = _row_at(traj, t)
    s, ref = traj.series[k], traj.epochs[k]
    h = s.h[j]
    v = line_junctions(ref.base_points + h[:, None] * ref.normals,
                       ref.tangents, ref.closed)
    if not ref.closed:
        clip = windowed_lengths(ref, p, h)
        v = np.vstack((v[0] + clip[0] * ref.rays[0], v,
                       v[-1] + clip[-1] * ref.rays[1]))
    return {
        "t": float(s.t[j]),
        "epoch": k,
        "closed": bool(ref.closed),
        "points": v.tolist(),
        "heights": h.tolist(),
        "window_radius": p.window_radius,
    }


def emit_snapshots(traj, name, out_dir, times, p):
    """Write the snapshots at ``times``, each the row at its time, as one
    compact line: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
    and a newline, doc = {"name", "schema_version", "snapshots"}.  Every
    time is checked before the file is opened; then each snapshot is built
    and written in turn, so only one is held at a time."""
    for t in times:
        _row_at(traj, t)
    # bulk data on one compact line: json's C encoder writes it, while
    # indent would select the pure-Python one
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    snapshots = (("," if i else "") + dumps(snapshot_at(traj, t, p))
                 for i, t in enumerate(times))
    fname = f"{name}_snapshots.json"
    _write_output(out_dir, fname,
                  f'{{"name":{dumps(name)},"schema_version":1,"snapshots":[',
                  snapshots, "]}\n")
    return fname


# ------------------------------------------------------------------- checks

def _expect_equal(label, measure):
    """Evaluator of a check that compares ``measure(manifest)`` with
    'expect'."""
    def evaluate(c, manifest, traj):
        got = measure(manifest)
        return got == c["expect"], f"{label}={got}"
    return evaluate


def _check_dissipation(c, manifest, traj):
    r = manifest["dissipation_residual"]
    return r <= c["max_residual"], f"residual={_fmt(r)}"


def _check_final_energy(c, manifest, traj):
    e = manifest["final"]["energy"]
    ok = ((c["expect"] is None or abs(e - c["expect"]) <= c["tol"])
          and (c["max"] is None or e <= c["max"])
          and (c["min"] is None or e >= c["min"]))
    return ok, f"energy={_fmt(e)}"


def _check_stationary_limit(c, manifest, traj):
    rep = convergence_monitor(traj)
    kind = None if rep.classification is None else rep.classification.kind
    ok = rep.stationary and (c["kind"] is None or kind == c["kind"])
    res = "n/a" if rep.residual is None else _fmt(rep.residual)
    return ok, f"stationary={rep.stationary} kind={kind} residual={res}"


# check type -> (its keys besides "type", as a schema block, evaluator); an
# evaluator maps (check, manifest, trajectory) to (passed, detail)
_CHECK_TYPES = {
    "status": ({"expect": (_one_of(flow.STATUS_CONVERGED, flow.STATUS_MAX_TIME,
                                   flow.STATUS_TRANSLATING), _REQUIRED)},
               _expect_equal("status", lambda m: m["status"])),
    "dissipation": ({"max_residual": (_NUMBER, _REQUIRED)}, _check_dissipation),
    "restart-count": ({"expect": (_COUNT, _REQUIRED)}, _expect_equal(
        "restarts", lambda m: len(m["restarts"]))),
    "final-energy": ({"expect": (_NUMBER, None), "tol": (_TOLERANCE, None),
                      "min": (_NUMBER, None), "max": (_NUMBER, None)},
                     _check_final_energy),
    "segment-count": ({"expect": (_COUNT, _REQUIRED)}, _expect_equal(
        "segments", lambda m: m["final"]["segments"])),
    # null is the index of an unbounded curve
    "index": ({"expect": ((lambda v: v is None or _is_integer(v),
                           "an integer or null"), _REQUIRED)},
              _expect_equal("index", lambda m: m["final"]["index"])),
    "stationary-limit": ({"kind": (_one_of(*analysis.STATIONARY_KINDS,
                                           analysis.KIND_UNCLASSIFIED), None)},
                         _check_stationary_limit),
}


def run_checks(checks, manifest: dict, traj: Trajectory):
    """The checks' results, read from the run's manifest; only
    'stationary-limit' reads the trajectory."""
    results = []
    for c in checks:
        ok, detail = _CHECK_TYPES[c["type"]][1](c, manifest, traj)
        results.append({"type": c["type"], "passed": bool(ok), "detail": detail})
    return results


# ----------------------------------------------------------------- simulate

# the manifest run_scenario writes, key for key, as audit reads it back
_EPOCH = {"series": (_STRING, None),
          "samples": ((lambda v: _is_integer(v) and v > 0, "a positive integer"),
                      _REQUIRED),
          "epoch": (_COUNT, _REQUIRED), "segments": (_COUNT, _REQUIRED),
          "t_start": (_NUMBER, _REQUIRED), "t_end": (_NUMBER, _REQUIRED)}
_RESTART = {"t": (_NUMBER, _REQUIRED), "epoch_before": (_COUNT, _REQUIRED),
            "vanished": (_INDICES, _REQUIRED), "merge_map": (_INDICES, _REQUIRED),
            **dict.fromkeys(("index_before", "index_after"),
                            _CHECK_TYPES["index"][0]["expect"])}
_MANIFEST = {
    **{k: _SCENARIO[k] for k in ("schema_version", "name", "params")},
    "integrator": (_block(_INTEGRATOR), _REQUIRED),
    "generator": (_OBJECT, None),
    "perturb": _SCENARIO["perturb_heights"],
    "status": _CHECK_TYPES["status"][0]["expect"],
    "t_final": (_NUMBER, _REQUIRED),
    "epochs": (_blocks(_EPOCH, (lambda v: _OBJECTS[0](v) and len(v) > 0,
                                "a list of objects, at least one")), _REQUIRED),
    "restarts": (_blocks(_RESTART), _REQUIRED),
    "final": (_block({"energy": (_NUMBER, _REQUIRED),
                      "max_abs_rate": (_NUMBER, _REQUIRED),
                      "segments": (_COUNT, _REQUIRED),
                      "index": _CHECK_TYPES["index"][0]["expect"],
                      "total_bounded_length": (_NUMBER, _REQUIRED)}), _REQUIRED),
    "dissipation_residual": (_NUMBER, _REQUIRED),
    "snapshots": (_STRING, None),
    "checks": (_OBJECTS, _REQUIRED),
}


def run_scenario(doc: dict, out_dir: str = ".", check: bool = False,
                 max_time: float | None = None, seed: int | None = None):
    """Check the scenario ``doc`` against the schema, then run it; returns
    (exit_code, manifest_dict).  ``max_time`` and ``seed`` replace the keys
    integrator.max_time and perturb_heights.seed before the check.
    ``out_dir`` is created when the run writes its first file."""
    for block, key, value in (("integrator", "max_time", max_time),
                              ("perturb_heights", "seed", seed)):
        given = {} if doc.get(block) is None else doc[block]
        if value is not None and isinstance(given, dict):
            doc = {**doc, block: {**given, key: value}}
    sc = _read(doc, _SCENARIO, "scenario")
    name, wr = sc["name"], sc["params"]["window_radius"]
    a = build_anisotropy(sc["anisotropy"])
    alpha = float(sc["params"]["alpha"])
    p = FlowParams(alpha=alpha, window_radius=None if wr is None else float(wr))
    curve, gen_info = build_scenario_curve(a, sc["curve"], alpha)

    pert, pert_info = sc["perturb_heights"], None
    if pert is not None:
        curve = _perturb(curve, pert)
        pert_info = {"seed": int(pert["seed"]), "scale": float(pert["scale"])}

    outputs = sc["outputs"]
    traj = evolve(curve, p, sc["integrator"], times=outputs["snapshots"])

    # snapshots first: a snapshot time out of range then leaves no files
    snap_file = None
    if outputs["snapshots"]:
        snap_file = emit_snapshots(traj, name, out_dir, outputs["snapshots"], p)
    series_files = emit_series(traj, name, out_dir) if outputs["series"] \
        else [None] * traj.n_epochs

    epochs = [{
        "epoch": k,
        "t_start": float(s.t[0]),
        "t_end": float(s.t[-1]),
        "segments": int(ref.n),
        "samples": len(s.t),
        "series": series_files[k],
    } for k, (ref, s) in enumerate(zip(traj.epochs, traj.series))]
    last, ref = traj.series[-1], traj.final_state.reference
    manifest = {
        "schema_version": 1,
        "name": name,
        "params": {"alpha": alpha, "window_radius": wr},
        "integrator": dataclasses.asdict(sc["integrator"]),
        "generator": gen_info,
        "perturb": pert_info,
        "status": traj.status,
        "t_final": float(traj.final_state.t),
        "epochs": epochs,
        "restarts": [dataclasses.asdict(r) for r in traj.restarts],
        "final": {
            "energy": float(last.energy[-1]),
            "max_abs_rate": float(last.max_abs_rate[-1]),
            "segments": int(ref.n),
            "index": curve_index(ref) if ref.closed else None,
            "total_bounded_length": float(last.total_bounded_length[-1]),
        },
        "dissipation_residual": dissipation_residual(traj),
        "snapshots": snap_file,
    }
    results = manifest["checks"] = run_checks(sc["checks"], manifest, traj)
    if outputs["manifest"]:
        _write_output(out_dir, f"{name}_manifest.json", _dump_json(manifest))
    code = 1 if check and not all(r["passed"] for r in results) else 0
    return code, manifest


def _cmd_simulate(args) -> int:
    out_dir = args.out_dir or os.environ.get("CRYSTAL_FLOW_OUT") or "."
    code, manifest = run_scenario(_read_json(args.scenario), out_dir,
                                  check=args.check, max_time=args.max_time,
                                  seed=args.seed)
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


# the keys of a curve file, as _curve_to_doc writes them; the transitions and
# lengths are not read back
_CURVE_FILE = {"anisotropy": (_ANISOTROPY, {"preset": "square"}),
               **_VERTEX_CURVE,
               "transitions": (_NUMBERS, None),
               "lengths": ((lambda v: isinstance(v, list) and all(
                   x is None or _is_finite_number(x) for x in v),
                   "a list of finite numbers or nulls"), None)}


def _curve_from_doc(doc: dict):
    doc = doc.get("curve", doc)
    _expect(isinstance(doc, dict) and "vertices" in doc,
            "curve file needs a 'vertices' list (optionally under 'curve')")
    c = _read(doc, _CURVE_FILE, "curve")
    return _curve_from_vertices(build_anisotropy(c["anisotropy"]), c)


def _cmd_catalog(args) -> int:
    if args.list:
        print("\n".join(analysis.STATIONARY_KINDS))
        return 0
    # the flags given are the keys of a stationary generator block
    keys = _GENERATORS["stationary"][0]
    gen = _read_tagged({"family": "stationary", **{
        k: v for k, v in vars(args).items() if k in keys and v is not None}},
        "catalog", "family", _GENERATORS)
    curve, _ = build_scenario_curve(square_anisotropy(), {"generator": gen},
                                    args.alpha)
    doc = {
        "schema_version": 1,
        "kind": gen["kind"],
        "closed": gen["closed"],
        "m": gen["m"],
        "alpha": args.alpha,
        "residual": analysis.stationarity_residual(
            curve, FlowParams(alpha=args.alpha)),
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
    except NotStationary as exc:
        print(_dump_json({"error": str(exc)}), end="")
        return 1
    print(_dump_json(dataclasses.asdict(klass)), end="")
    if args.expect is not None and klass.kind != args.expect:
        return 1
    return 0


def _cmd_translating_check(args) -> int:
    curve = _curve_from_doc(_read_json(args.curve))
    report = translation_check(curve, FlowParams(alpha=args.alpha), args.eta,
                               tol=args.tol)
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
    a = _PRESETS[args.preset][1]({"sides": args.sides, "circumradius": 1.0})
    residuals = [facet_identity_residual(a, (mid - s1) % a.K, mid, (mid + s2) % a.K)
                 for mid in range(a.K) for s1 in (1, -1) for s2 in (1, -1)]
    worst = max([0.0, *residuals])
    ok = worst <= args.tol
    print(_dump_json({
        "preset": args.preset if args.preset == "square"
        else f"regular-{args.sides}",
        "triples": len(residuals),
        "max_residual": worst,
        "tol": args.tol,
        "passed": ok,
    }), end="")
    return 0 if ok else 1


def _read_series(path: str, samples: int) -> np.ndarray:
    """The (samples, 7) table of a series file: the header _SERIES_HEADER,
    then ``samples`` rows of finite numbers."""
    try:
        with open(path, newline="") as fh:
            header, *rows = fh.read().splitlines()
        table = np.array([row.split(",") for row in rows], dtype=float)
    except OSError as exc:
        raise IOFailure(f"audit: cannot read {path}: {exc}") from exc
    except ValueError:  # no header, rows of unequal width, or not a number
        header = table = None
    # max() would pass over a NaN residual or energy rise
    if (header != ",".join(_SERIES_HEADER)
            or table.shape != (samples, len(_SERIES_HEADER))
            or not np.isfinite(table).all()):
        raise SchemaError(f"audit: malformed series file {path} (expected the "
                          f"header and {samples} rows of finite numbers)")
    return table


def _cmd_audit(args) -> int:
    manifest = _read(_read_json(args.manifest), _MANIFEST, "manifest")
    base = os.path.dirname(os.path.abspath(args.manifest))
    epochs, restarts = manifest["epochs"], manifest["restarts"]
    worst = max_rise = 0.0
    end = None  # the energy at the end of the previous epoch
    spans = []  # the t of each epoch's first and last series row
    tol = args.tol
    for ep in epochs:
        if ep["series"] is None:
            raise IOFailure("audit: manifest epoch has no series file "
                            "(rerun with outputs.series enabled)")
        t, F, _, Q = _read_series(os.path.join(base, ep["series"]),
                                  ep["samples"])[:, :4].T
        if tol is None:  # by default, relative to the run's first energy
            tol = AUDIT_REL_TOL * max(1.0, abs(float(F[0])))
        spans.append((t[0], t[-1]))
        scale = max(1.0, float(np.max(np.abs(F))))
        rises = np.diff(F, prepend=F[0] if end is None else end)
        max_rise = max(max_rise, float(np.max(rises)) / scale)
        end = float(F[-1])
        worst = max(worst, epoch_dissipation_residual(F, Q))
    stored = manifest["final"]["energy"]
    energy_match = abs(stored - end) <= 1e-12 * max(1.0, abs(stored))
    # each epoch spans its rows, and one restart sits at each epoch boundary
    times_match = bool(
        all(ep["t_start"] == a and ep["t_end"] == b
            for ep, (a, b) in zip(epochs, spans))
        and manifest["t_final"] == spans[-1][1]
        and len(restarts) == len(epochs) - 1
        and all(r["epoch_before"] == k and r["t"] == a["t_end"] == b["t_start"]
                for k, (r, a, b) in enumerate(zip(restarts, epochs, epochs[1:]))))
    # epochs are numbered in order, and each restart's merge_map takes the
    # segments of the epoch before it to those of the epoch after it
    segments_match = bool(
        all(ep["epoch"] == k for k, ep in enumerate(epochs))
        and manifest["final"]["segments"] == epochs[-1]["segments"]
        and all(len(r["merge_map"]) == a["segments"]
                and [i for i, v in enumerate(r["merge_map"]) if v == -1]
                == sorted(r["vanished"])
                and max(r["merge_map"], default=-1) + 1 == b["segments"]
                for r, a, b in zip(restarts, epochs, epochs[1:])))
    ok = (worst <= tol and max_rise <= args.energy_tol and energy_match
          and times_match and segments_match)
    print(_dump_json({
        "name": manifest["name"],
        "rows": sum(ep["samples"] for ep in epochs),
        "dissipation_residual": worst,
        "max_energy_rise": max_rise,
        "final_energy_matches": energy_match,
        "times_match": times_match,
        "segments_match": segments_match,
        "tol": tol,
        "passed": ok,
    }), end="")
    return 0 if ok else 1


# -------------------------------------------------------------------- main

# the typed flags as a schema block: main reads a command's flags by it
# before the command runs (catalog's --kind/--closed/--m/--a/--b/--connectors
# are read as the keys of a stationary curve generator instead)
_FLAGS = {"--alpha": (_POSITIVE, None), "--tol": (_TOLERANCE, None),
          "--energy-tol": (_TOLERANCE, None), "--eta": (_PAIR, None),
          "--sides": (_PRESETS["regular"][0]["sides"][0], None)}


def _number_list(text: str) -> list:
    """A comma-separated flag value, such as ``0,1``, as a list of floats."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


@functools.cache
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
    cat.add_argument("--connectors", type=_number_list, default=None,
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
    trc.add_argument("--eta", type=_number_list, default="0,1",
                     help="direction, e.g. '0,1'")
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
    aud.add_argument("--tol", type=float, default=None,
                     help="absolute bound on the dissipation residual "
                          f"(default: {AUDIT_REL_TOL:g} * max(1, |F(0)|), F(0) "
                          "the first energy row of epoch 0)")
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
    flags = {"--" + k.replace("_", "-"): v for k, v in vars(args).items()}
    try:
        _read({f: v for f, v in flags.items() if f in _FLAGS}, _FLAGS,
              args.command)
        return args.func(args)
    except CrystalFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
