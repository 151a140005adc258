"""Write the byte-compare set: the outputs a byte-identical change must keep.

Usage, from any directory:

    python3 tools/emit_compare_set.py OUT_DIR

Runs, with ``--check`` semantics, the README scenario (``WULFF_SHRINK``) and
the restart scenario (``PINCH``) of ``tests/test_cli.py``, and scenarios 0
and 1 of every benchmark workload at seeds 1 and 7 (``bench/workloads.py``,
imported, never written).  Each scenario writes its manifest, series CSVs
and snapshot JSON; its ``crystalflow audit`` stdout and exit code go to
``<name>_audit.txt`` beside them.  The layout is

    OUT_DIR/tests/<name>_*            the two test scenarios
    OUT_DIR/seed<s>/<workload>-<i>_*  the workload scenarios

so two checkouts compare with ``diff -r``.  OUT_DIR must not exist yet or
be empty.  The exit code is 1 when a scenario check fails.
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

from crystalflow import cli  # noqa: E402
from test_cli import PINCH, WULFF_SHRINK  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 7)
PER_WORKLOAD = 2  # scenarios 0 and 1 of each batch


def compare_set():
    """(group directory, scenario document) pairs, in emission order."""
    docs = [("tests", WULFF_SHRINK), ("tests", PINCH)]
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            batch = workloads.make_batch(name, seed)[:PER_WORKLOAD]
            docs += [(f"seed{seed}", doc) for doc in batch]
    return docs


def emit(doc: dict, out_dir: str) -> bool:
    """Run one scenario into ``out_dir`` and audit it; True if its checks
    passed."""
    code, _ = cli.run_scenario(doc, out_dir, check=True)
    manifest = os.path.join(out_dir, f"{doc['name']}_manifest.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        audit_code = cli.main(["audit", manifest])
    with open(os.path.join(out_dir, f"{doc['name']}_audit.txt"), "w") as fh:
        fh.write(f"{stdout.getvalue()}\nexit {audit_code}\n")
    return code == 0


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
        if not emit(doc, str(target)):
            failed.append(f"{group}/{doc['name']}")
    files = sum(len(f) for _, _, f in os.walk(out))
    print(f"{files} files in {out}")
    if failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
