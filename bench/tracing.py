"""Boundary spans recorded from outside the program.

``Tracer.installed`` rebinds selected public functions in every
crystalflow module that holds them, so a call from one layer into another
(``flow`` calling ``energy.first_variation``, ``cli`` calling
``flow.evolve``) passes through a wrapper that counts it and measures its
self time: its duration minus the time of the traced calls it made.
Spans are aggregated in memory and read once the traced run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# Public functions whose calls are traced, as "<module>.<function>".
TRACED = (
    "anisotropy.build_wulff",
    "curve.build_curve",
    "curve.lengths_from_heights",
    "curve.reconstruct_parallel",
    "curve.curve_index",
    "energy.first_variation",
    "energy.elastic_energy",
    "energy.windowed_lengths",
    "flow.evolve",
    "flow.rhs",
    "flow.detect_vanishing",
    "flow.dissipation_residual",
    "analysis.convergence_monitor",
    "analysis.classify_stationary_square",
    "analysis.stationarity_residual",
    "cli.run_scenario",
    "cli.build_anisotropy",
    "cli.build_scenario_curve",
    "cli.emit_series",
    "cli.emit_snapshots",
    "cli.run_checks",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self._stack = []  # child time accumulated by each open span

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt

        return span

    @contextmanager
    def installed(self, package):
        """Rebind every traced function in every module of ``package``."""
        modules = [getattr(package, m) for m in
                   ("anisotropy", "curve", "energy", "flow", "analysis", "cli")]
        wrapped = {}
        for name in TRACED:
            mod, fn = name.split(".")
            original = getattr(getattr(package, mod), fn, None)
            if original is not None:
                wrapped[id(original)] = self._wrap(name, original)
        saved = []
        for mod in [package] + modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and callable(value):
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        try:
            yield self
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)


@contextmanager
def capture_return(module, attr, sink: list):
    """Rebind ``module.attr`` so each return value is appended to ``sink``."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def keep(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, keep)
    try:
        yield sink
    finally:
        setattr(module, attr, original)
