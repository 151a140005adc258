"""Write the byte-compare set: the outputs a byte-identical change must keep.

Usage, from any directory:

    python3 tools/emit_compare_set.py OUT_DIR

Runs, with ``--check`` semantics, the README scenario (``WULFF_SHRINK``) and
the two restart scenarios of ``tests/test_cli.py``, on the square
(``PINCH``) and on the regular hexagon anisotropy (``OCTAGON``), and
scenarios 0 and 1 of every benchmark workload at seeds 1 and 7
(``bench/workloads.py``, imported, never written).  Each scenario writes its manifest, series CSVs
and snapshot JSON; its ``crystalflow audit`` stdout and exit code go to
``<name>_audit.txt`` beside them.  It also runs every other command that
writes JSON, each into ``<label>.txt`` as its stdout and exit code:
``catalog --list``; ``catalog`` for the staircase (m = 5), the Wulff
square, and the right-angle and double right-angle chains, open and
closed, at m = 1, 3 and 512, and ``classify`` on each of these curves
(read from ``<label>.json``); ``translating-check`` on one profile of each
translating kind (single-step, lam 0.4; convex-rectangle, a 1.5; pocket,
a 1.0 and lam 0.4; convex-chain, m 3 and a 0.58), each written to
``<kind>.json``; and ``verify-identity`` for the square and the regular
octagon.  The layout is

    OUT_DIR/tests/<name>_*            the three test scenarios
    OUT_DIR/seed<s>/<workload>-<i>_*  the workload scenarios
    OUT_DIR/cli/<label>.*             the other commands

so two checkouts compare with ``diff -r``.  OUT_DIR must not exist yet or
be empty.  The exit code is 1 when a scenario check fails or any
recorded exit code (the last line of a ``.txt`` file) is not 0, so a run
of the tool fails on a failing audit or command, not only on a diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

from crystalflow import cli, make_translating_square_aniso  # noqa: E402
from test_cli import OCTAGON, PINCH, WULFF_SHRINK  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 7)
PER_WORKLOAD = 2  # scenarios 0 and 1 of each batch
CHAIN_KINDS = ("right-angle-chain", "double-right-angle-chain")
CHAIN_MS = (1, 3, 512)
# (label, catalog flags) of every stationary curve cataloged and classified
CATALOG = ([("staircase-m5", ["--kind", "staircase", "--m", "5"]),
            ("wulff-square", ["--kind", "wulff-square", "--closed"])]
           + [(f"{kind}-{'closed' if closed else 'open'}-m{m}",
               ["--kind", kind, "--m", str(m)] + ["--closed"] * closed)
              for kind in CHAIN_KINDS for closed in (False, True)
              for m in CHAIN_MS])
# (kind, parameters) of every translating profile checked; the
# convex-chain one writes the unsuffixed translating-check.txt
TRANSLATING = (("single-step", {"lam": 0.4}), ("convex-rectangle", {"a": 1.5}),
               ("pocket", {"a": 1.0, "lam": 0.4}),
               ("convex-chain", {"m": 3, "a": 0.58}))


def compare_set():
    """(group directory, scenario document) pairs, in emission order."""
    docs = [("tests", WULFF_SHRINK), ("tests", PINCH),
            ("tests", OCTAGON)]
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            batch = workloads.make_batch(name, seed)[:PER_WORKLOAD]
            docs += [(f"seed{seed}", doc) for doc in batch]
    return docs


def run_cli(args, out_dir: Path, label: str) -> str:
    """Run ``crystalflow ARGS``; write its stdout and exit code to
    ``<label>.txt`` and return the stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    (out_dir / f"{label}.txt").write_text(f"{stdout.getvalue()}\nexit {code}\n")
    return stdout.getvalue()


def emit(doc: dict, out_dir: Path) -> bool:
    """Run one scenario into ``out_dir`` and audit it; True if its checks
    passed."""
    code, _ = cli.run_scenario(doc, str(out_dir), check=True)
    run_cli(["audit", str(out_dir / f"{doc['name']}_manifest.json")], out_dir,
            f"{doc['name']}_audit")
    return code == 0


def emit_commands(out_dir: Path):
    """The outputs of every command besides simulate and audit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run_cli(["catalog", "--list"], out_dir, "catalog-list")
    for label, flags in CATALOG:
        path = out_dir / f"{label}.json"
        path.write_text(run_cli(["catalog", *flags], out_dir, label))
        run_cli(["classify", str(path)], out_dir, f"classify-{label}")
    for kind, params in TRANSLATING:
        profile, _ = make_translating_square_aniso(kind, 1.0, **params)
        path = out_dir / f"{kind}.json"
        path.write_text(cli._dump_json(cli._curve_to_doc(profile)))
        run_cli(["translating-check", str(path)], out_dir,
                "translating-check" + ("" if kind == "convex-chain"
                                       else f"-{kind}"))
    run_cli(["verify-identity"], out_dir, "verify-identity-square")
    run_cli(["verify-identity", "--preset", "regular", "--sides", "8"], out_dir,
            "verify-identity-regular-8")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/emit_compare_set.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    failed = []
    for group, doc in compare_set():
        target = out / group
        target.mkdir(parents=True, exist_ok=True)
        if not emit(doc, target):
            failed.append(f"{group}/{doc['name']}")
    emit_commands(out / "cli")
    files = sum(len(f) for _, _, f in os.walk(out))
    print(f"{files} files in {out}")
    if failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
    nonzero = sorted(str(f.relative_to(out)) for f in out.rglob("*.txt")
                     if not f.read_text().endswith("\nexit 0\n"))
    if nonzero:
        print(f"nonzero exit codes: {', '.join(nonzero)}", file=sys.stderr)
    return 1 if failed or nonzero else 0


if __name__ == "__main__":
    sys.exit(main())
