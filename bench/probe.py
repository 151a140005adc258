"""Set-up probe, run as its own process by the benchmark.

Usage: python3 probe.py SCENARIO.json OUT_DIR

Loads and validates the scenario and runs it through ``cli.run_scenario``
up to its first ``evolve`` call, which prints ``time.monotonic()`` and
stops the run.  The parent subtracts its own clock reading taken just
before starting this process, so the result covers interpreter start,
imports, validation, anisotropy and curve build and the perturbation.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crystalflow import cli  # noqa: E402


class _Reached(Exception):
    pass


def _stop(*args, **kwargs):
    print(repr(time.monotonic()), flush=True)
    raise _Reached


def main(scenario: str, out_dir: str) -> int:
    cli.evolve = _stop
    doc = cli.load_scenario(scenario)
    try:
        cli.run_scenario(doc, out_dir)
    except _Reached:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
