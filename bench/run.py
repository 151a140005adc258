"""crystalflow benchmark: seeded scenarios end to end, layer
microbenchmarks, and a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload stair-cascade --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run
times the workload's scenarios untraced and reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics: the
microbenchmarks of ``layers.py``, the emission/audit layers on the
workload's own trajectory, and span counts and self times from a traced
run (``tracing.py``).  Metric names and units are those listed in
``BENCHMARK.json``.  A human-readable report goes to stderr; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 8  # set-up probe processes per run
# set-up time is given in seconds of a host whose reference start
# (``reference_start``) takes this long, about its median on the host the
# baseline was measured on
REF_START_S = 0.2
# One audit takes milliseconds, shorter than the host's speed swings, so
# audits are timed in back-to-back batches about this long.
AUDIT_BATCH_S = 0.3
PROBE_TIMEOUT_S = 60
UNATTRIBUTED_MAX = 0.01  # baseline: 0.07 to 0.13%


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """The crystalflow package of this checkout's ``src`` directory."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import crystalflow

    where = Path(crystalflow.__file__).resolve().parent
    if where != src / "crystalflow":
        raise ImportError(f"crystalflow imported from {where}, not {src}")
    return crystalflow


class Op:
    """One scenario run through ``cli.run_scenario`` plus its audit."""

    def __init__(self, cf, workload, doc, out_dir, audit_batch_s=AUDIT_BATCH_S):
        t0 = time.perf_counter()
        code, self.manifest = cf.cli.run_scenario(doc, out_dir, check=True)
        self.wall_s = time.perf_counter() - t0
        energies = checks.read_series(out_dir, self.manifest)
        self.audit_args = [
            "audit", os.path.join(out_dir, f"{doc['name']}_manifest.json"),
            "--tol", repr(checks.audit_tol(energies[0][0]))]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            audit_code = cf.cli.main(self.audit_args)
        self.audit_s = time.perf_counter() - t0
        reps = int(audit_batch_s / self.audit_s)
        if reps:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cf.cli.main(self.audit_args) for _ in range(reps)]
            self.audit_s = (time.perf_counter() - t0) / reps
            audit_code = max(codes + [audit_code])
        audit = json.loads(buf.getvalue())
        audit["passed"] = audit.get("passed") and audit_code == 0
        self.failures = checks.gate_run(workload, self.manifest, code,
                                        energies, audit)
        self.samples = sum(ep["samples"] for ep in self.manifest["epochs"])


def calibrate():
    """Seconds for a fixed reference computation: interpreter work and
    small numpy arrays, the same mix as crystalflow's hot path, without
    calling crystalflow.

    The speed of a shared host can drift by 2x over minutes, and the
    reference slows down with it.  On a 2-core VM, a 1500-round version
    had a correlation of 0.89 with scenario times over 134 paired samples.
    Over 16-operation windows, scenario times divided by the reference
    around them ("calib" units) spread by 3%, where seconds spread by
    16.5%.
    """
    t0 = time.perf_counter()
    a = np.linspace(0.5, 2.0, 24)
    acc = 0.0
    for _ in range(4500):
        b = np.roll(a, 1) + np.roll(a, -1)
        acc += float(np.where(b > 2.0, b / a, 0.0).sum())
        acc += sum(x * 0.5 for x in range(20))
    if not acc > 0.0:
        raise AssertionError("reference computation went wrong")
    return time.perf_counter() - t0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name, values, unit):
    lo, hi = quartiles(values)
    log(f"  {name:28s} median {statistics.median(values):.6g} {unit}  "
        f"q1 {lo:.6g}  q3 {hi:.6g}  n={len(values)}")


def reference_start():
    """Seconds for a process that starts the interpreter, imports numpy and
    exits.  Process start and imports drift with the host independently
    of the interpreter work that ``calibrate`` follows."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=PROBE_TIMEOUT_S)
    return time.monotonic() - t0


def probe_setup(scenario_path, out_dir):
    """Seconds from starting a process to its first ``evolve`` call, and
    the mean time of the reference starts just before and after it."""
    before = reference_start()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), scenario_path, out_dir],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = float(proc.stdout.split()[-1]) - t0
    return probe, 0.5 * (before + reference_start())


def timed_run(cf, workload, batch, paths, seconds, out_dir):
    """Untraced pass: the end-to-end metrics."""
    deadline = time.monotonic() + seconds
    setup = []
    walls = [[] for _ in batch]
    audits = [[] for _ in batch]
    calibs = [[] for _ in batch]
    first = [None] * len(batch)
    attempted = failed = 0
    i = 0
    while i < len(batch) or time.monotonic() < deadline:
        # probes are spread over the run so that their median, like the
        # operations', covers the whole measuring window
        if len(setup) < PROBES:
            setup.append(probe_setup(paths[i % len(batch)], out_dir))
        k = i % len(batch)
        i += 1
        attempted += 1
        try:
            before = calibrate()
            op = Op(cf, workload, batch[k], out_dir)
            calib = 0.5 * (before + calibrate())
        except Exception:  # one failed operation must not end the run
            log(traceback.format_exc())
            failed += 1
            continue
        if first[k] is None:
            first[k] = op.manifest
        elif op.manifest != first[k]:
            op.failures.append("manifest differs from the scenario's first run")
        if op.failures:
            log(f"FAILED {batch[k]['name']}: {op.failures}")
            failed += 1
            continue
        walls[k].append(op.wall_s)
        audits[k].append(op.audit_s)
        calibs[k].append(calib)
    while len(setup) < PROBES:
        setup.append(probe_setup(paths[len(setup) % len(batch)], out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digits = []
    for k, doc in enumerate(batch):
        if first[k] is None:
            continue
        snaps = checks.read_snapshots(out_dir, first[k])
        err = checks.ORACLES[workload.name](doc, first[k], snaps)
        gate = checks.ORACLE_GATES[workload.name]
        log(f"  oracle {doc['name']}: relative error {err:.3e} (gate {gate:.0e})")
        if not err <= gate:
            failed += len(walls[k])
        digits.append(checks.oracle_digits(err))

    done = [k for k in range(len(batch)) if walls[k]]
    if not done:
        raise RuntimeError("no scenario of the batch completed")
    log(f"{workload.name}: {attempted} operations, {failed} failed, "
        f"fail_rate {failed / attempted:.3g}")

    def in_calib(times, k):
        return [t / c for t, c in zip(times[k], calibs[k])]

    for k in done:
        name = batch[k]["name"]
        report(f"wall_s {name}", walls[k], "s")
        report(f"wall_calib {name}", in_calib(walls, k), "calib")
        report(f"audit_s {name}", audits[k], "s")
        report(f"audit_calib {name}", in_calib(audits, k), "calib")
    report("calibration", sum(calibs, []), "s")
    report("set-up probe", [p for p, _ in setup], "s")
    report("reference start", [r for _, r in setup], "s")
    setup = [REF_START_S * p / r for p, r in setup]
    report("setup_s", setup, "s")
    metrics = {
        "wall_calib": float(np.mean(
            [statistics.median(in_calib(walls, k)) for k in done])),
        "setup_s": statistics.median(setup),
        "audit_calib": float(np.mean(
            [statistics.median(in_calib(audits, k)) for k in done])),
        "peak_rss_mb": peak_rss_mb,
        "oracle_err_digits": float(np.mean(digits)),
    }
    return metrics, attempted, failed


def _file_bytes(out_dir, names):
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def workload_layers(cf, doc, op, traj, out_dir):
    """Emission, audit, dissipation and convergence layers timed on the
    workload's own trajectory, each result checked against the run's."""
    name = doc["name"]
    written = [ep["series"] for ep in op.manifest["epochs"]]
    written.append(op.manifest["snapshots"])
    before = _file_bytes(out_dir, written)
    times = doc["outputs"]["snapshots"]
    def audit():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cf.cli.main(op.audit_args)
        return code, buf.getvalue()

    def monitor_key(r):
        kind = None if r.classification is None else r.classification.kind
        return (r.status, r.residual, r.stationary, r.generalized, kind)

    t = layers.time_calls
    out = {
        "cli.emit_series_ms": t(
            lambda: cf.cli.emit_series(traj, name, out_dir),
            lambda r, f: r == f and [x for x in r if x] == written[:-1]),
        "cli.emit_snapshots_ms": t(
            lambda: cf.cli.emit_snapshots(traj, name, out_dir, times, traj.params),
            lambda r, f: r == written[-1]),
        "flow.dissipation_residual_ms": t(
            lambda: cf.dissipation_residual(traj),
            lambda r, f: r == op.manifest["dissipation_residual"]),
        "cli.audit_ms": t(audit, lambda r, f: r == f and r[0] == 0),
        "analysis.convergence_monitor_ms": t(
            lambda: monitor_key(cf.convergence_monitor(traj)),
            lambda r, f: r == f),
    }
    out = {k: v * 1e3 for k, v in out.items()}
    out["cli.validate_scenario_us"] = 1e6 * t(
        lambda: cf.cli.validate_scenario(doc), lambda r, f: r is None)
    if _file_bytes(out_dir, written) != before:
        raise AssertionError("re-emitted files differ from the run's files")
    return out


def traced_run(cf, workload, batch, seed, seconds, out_dir):
    """Per-layer pass: microbenchmarks, workload layers, traced spans."""
    deadline = time.monotonic() + seconds
    log("microbenchmarks:")
    metrics = layers.run(cf, seed, log)

    doc = batch[0]
    sink = []
    with tracing.capture_return(cf.cli, "evolve", sink):
        op = Op(cf, workload, doc, out_dir)
    metrics.update(workload_layers(cf, doc, op, sink[-1], out_dir))
    e0 = checks.read_series(out_dir, op.manifest)[0][0]
    metrics["flow.dissipation_residual_rel"] = (
        op.manifest["dissipation_residual"] / max(1.0, abs(e0)))

    ops = [op]
    untraced, traced = [op.wall_s], []
    tracer = tracing.Tracer()
    while not traced or time.monotonic() < deadline:
        if len(traced) < len(untraced):
            with tracer.installed(cf):
                nxt = Op(cf, workload, doc, out_dir, audit_batch_s=0.0)
            traced.append(nxt.wall_s)
        else:
            nxt = Op(cf, workload, doc, out_dir)
            untraced.append(nxt.wall_s)
        if nxt.manifest != op.manifest:
            nxt.failures.append("manifest differs from the scenario's first run")
        ops.append(nxt)
    runs = len(traced)
    # run_scenario's self time is the part of its wall time that no layer
    # span below it took
    unattributed = tracer.self_s["cli.run_scenario"] / sum(traced)
    log(f"traced: {runs} runs; {unattributed:.2%} of the traced run_scenario "
        f"time is outside every layer span (limit {UNATTRIBUTED_MAX:.0%})")
    if not unattributed <= UNATTRIBUTED_MAX:
        ops[-1].failures.append(
            "layer spans do not account for the traced wall time")
    for name in tracing.TRACED:
        metrics[f"trace.{name}.calls"] = tracer.calls[name] / runs
        metrics[f"trace.{name}.self_s"] = tracer.self_s[name] / runs
    metrics["trace.rhs_per_sample"] = (
        tracer.calls["energy.first_variation"] / runs / op.samples)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    report("untraced wall_s", untraced, "s")
    report("traced wall_s", traced, "s")
    failed = [o.failures for o in ops if o.failures]
    for failures in failed:
        log(f"FAILED {doc['name']}: {failures}")
    return metrics, len(ops), len(failed)


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cf = import_program()
    except ImportError as exc:
        log(f"error: cannot import the program: {exc}")
        return 2
    units = declared_metrics(bool(args.trace))
    workload = workloads.WORKLOADS[args.workload]
    batch = workloads.make_batch(args.workload, args.seed)

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        paths = []
        for doc in batch:
            cf.cli.validate_scenario(doc)
            path = os.path.join(out_dir, f"{doc['name']}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            paths.append(path)
            log(f"scenario {doc['name']} sha256 {workloads.scenario_hash(doc)}")
        if args.trace:
            metrics, attempted, failed = traced_run(
                cf, workload, batch, args.seed, args.seconds, out_dir)
        else:
            metrics, attempted, failed = timed_run(
                cf, workload, batch, paths, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.rmdir()

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
