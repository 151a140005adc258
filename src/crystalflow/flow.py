"""Crystalline elastic flow: height ODE integration with restarts.

Heights h_i(t) measure the normal offset of each segment line from the
epoch's reference curve; the system

    h_i'(t) = -phi_dual(nu_i) * g_i(h(t)),    h_i(0) = 0,

(g the first variation) is integrated with the embedded Dormand-Prince 5(4)
pair on the raw height vector.  ``substeps`` k tightens the step control
(``_scaled``) and spaces the rows g = max_step / k apart.  A row is an
accepted step's end or a point of its continuous extension: each requested
time the step spans (``evolve``'s ``times``), each multiple of g it spans
(a step longer than g ends on one), and a vanishing.  The run is a sequence
of epochs, each a regular flow that ends when a zero-transition segment
shrinks to its vanish threshold.  Segment lengths are affine in h, so on a
step's extension each is a quartic, and a step whose end lies past a
threshold is cut back to the quartics' first root.  A restart
then removes the vanished segments, merges collinear neighbors, and starts
a fresh epoch from the merged curve with h = 0.

The energy dissipated since the epoch start, Q = int W dt with W the
dissipation integrand, is integrated by the same steps: W at the stages,
weighted as the heights are.  So F + Q stays at its first value up to the
integration error, whatever the row spacing, and ``dissipation_residual``
reads its spread.

An epoch's record (``EpochSeries``) keeps the time, heights and elastic
energy of each row, plus the five per-row figures of the series file: W,
Q, max |h'|, and the minimum and total bounded length.  Every row enters
through ``_OpenEpoch.record``, which keeps its heights, W, Q and max |h'|;
``freeze`` computes F and the bounded lengths from the heights, for all
rows in one block pass; lengths and rates are not kept.

Heights are checked (shape, finite values, pinned half-lines) where they
enter: in ``FlowState`` at each epoch start, and in the public ``rhs``,
``step``, ``detect_vanishing`` and ``lengths_from_heights``.  Inside an
epoch every height vector is built by the integrator from checked ones, so
the stages, rows, event test and ``freeze`` read L_w - S h unchecked, L_w
the lengths with each half-line's window clip at h = 0 (``windowed_lengths``,
once per epoch).  The epoch's curve owns every other coefficient of the ODE
(``neg_supports`` for g -> h' and the facet coefficients of
``energy.first_variation``), so a stage only does the arithmetic in h.

The height rates at each state are evaluated once.  The pair's last stage
is the step's end (first same as last), so its rates are the row's and k1
of the next step and of each retry of it; locating an event evaluates none.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .curve import (
    AdmissibleCurve,
    build_curve,
    corner_stencil,
    curve_index,
    lengths_from_heights,
    line_junctions,
)
from .energy import FlowParams, elastic_energy, first_variation, windowed_lengths
from .errors import (
    InsufficientSamples,
    NonzeroCurvatureCollapse,
    NotAdmissible,
    NotAdmissibleAfterMerge,
    DegenerateSegment,
    ParamOutOfRange,
    SegmentCollapse,
    StepUnderflow,
    WindowTooSmall,
    ZeroLengthSegment,
)

__all__ = [
    "IntegratorOptions",
    "FlowState",
    "EpochSeries",
    "RestartRecord",
    "Trajectory",
    "rhs",
    "step",
    "apriori_bounds",
    "detect_vanishing",
    "restart",
    "evolve",
    "dissipation_rate",
    "epoch_dissipation_residual",
    "dissipation_residual",
    "STATUS_RUNNING",
    "STATUS_CONVERGED",
    "STATUS_MAX_TIME",
    "STATUS_TRANSLATING",
]

STATUS_RUNNING = "Running"
STATUS_CONVERGED = "Converged"
STATUS_MAX_TIME = "MaxTime"
STATUS_TRANSLATING = "TranslatingDivergence"

_DIVERGENCE_FACTOR = 1e3  # |h| threshold, in units of the initial diameter
_STOP_ROWS = 10  # the last rows that decide Converged and TranslatingDivergence
# the most elements an epoch's height array starts with; more rows double it
_MAX_CAPACITY_ELEMENTS = 1 << 22
# freeze's row chunks: each of the stencil's temporaries (the padded heights,
# each shifted view's product, the sum: about 32 KiB apiece) stays under the
# 128 KiB mmap threshold; a whole-epoch block would raise chain-relax's peak RSS
_FREEZE_ELEMENTS = 1 << 12
# floors of the tolerances that ``substeps`` scales down: tighter ones ask
# for errors that rounding cannot reach, and the steps keep being rejected
_REL_TOL_FLOOR = 1e-13
_ABS_TOL_FLOOR = 1e-15


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    vanish_fraction: float = 1e-6
    max_step: float = 0.1
    min_step: float = 1e-14
    max_time: float = 10.0
    stationarity_tol: float = 1e-8
    substeps: int = 1

    def __post_init__(self):
        if isinstance(self.substeps, bool) or not isinstance(self.substeps, int):
            raise ParamOutOfRange("substeps must be an integer")
        if self.substeps < 1:
            raise ParamOutOfRange("substeps must be >= 1")
        # each test is written to fail on NaN
        if not (self.rel_tol > 0.0) or not (self.abs_tol > 0.0):
            raise ParamOutOfRange("tolerances must be positive")
        if not (0.0 < self.vanish_fraction < 1.0):
            raise ParamOutOfRange("vanish_fraction must lie in (0, 1)")
        if not (0.0 < self.min_step < self.max_step / self.substeps):
            raise ParamOutOfRange("need 0 < min_step < max_step / substeps")
        if not (self.max_time > 0.0):
            raise ParamOutOfRange("max_time must be positive")
        if not (self.stationarity_tol > 0.0):
            raise ParamOutOfRange("stationarity_tol must be positive")


def _scaled(opts: IntegratorOptions) -> IntegratorOptions:
    """The options ``evolve`` integrates with: ``substeps`` k maps to
    rel_tol / k^5 and abs_tol / k^5, at substeps 1, and max_step stays.
    The pair's error estimate scales as dt^5, so each step then carries
    about the error of a k-th of a step at the given options.  (The rows
    come k to a ``max_step`` all the same: ``evolve`` fills them in from
    each step's continuous extension.)  A scaled tolerance is floored at
    round-off, but never above the given one; k = 1 returns the same
    values."""
    k = opts.substeps
    return replace(
        opts, substeps=1,
        rel_tol=min(opts.rel_tol, max(opts.rel_tol / k**5, _REL_TOL_FLOOR)),
        abs_tol=min(opts.abs_tol, max(opts.abs_tol / k**5, _ABS_TOL_FLOOR)))


@dataclass
class FlowState:
    """Reference curve of the current epoch plus the height vector at time t."""

    reference: AdmissibleCurve
    h: np.ndarray
    t: float
    epoch: int

    def __post_init__(self):
        self.h = self.reference.check_heights(self.h)


@dataclass(frozen=True, eq=False)
class EpochSeries:
    """The samples of one epoch as columns: row j holds the heights and the
    elastic energy at time t[j], and the five per-row figures of the series
    file; the energy and the bounded lengths are computed from the heights
    when the epoch ends.  Lengths and height rates are not kept; they follow
    bit for bit from the heights, as ``lengths_from_heights`` and ``rhs``."""

    t: np.ndarray                     # (m,)
    h: np.ndarray                     # (m, n)
    energy: np.ndarray                # (m,)
    dissipation: np.ndarray           # (m,) the integrand W of dissipation_rate
    dissipated: np.ndarray            # (m,) Q = int W dt since the epoch start
    max_abs_rate: np.ndarray          # (m,) max |h'|
    min_bounded_length: np.ndarray    # (m,) 0 when no segment is bounded
    total_bounded_length: np.ndarray  # (m,)


@dataclass
class RestartRecord:
    t: float
    epoch_before: int
    vanished: tuple
    merge_map: tuple  # new index per old segment index, -1 for removed
    index_before: int | None
    index_after: int | None


@dataclass
class Trajectory:
    params: FlowParams
    options: IntegratorOptions
    epochs: list = field(default_factory=list)  # reference curve per epoch
    series: list = field(default_factory=list)  # EpochSeries per epoch
    restarts: list = field(default_factory=list)
    status: str = STATUS_RUNNING
    final_state: FlowState | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)


# ---------------------------------------------------------------------- ODE

def rhs(state: FlowState, p: FlowParams) -> np.ndarray:
    """Height rates h' = -phi_dual(nu) * g at the state's heights."""
    ref = state.reference
    return _height_rates(ref, p, lengths_from_heights(ref, state.h))


def _stage_lengths(ep: _OpenEpoch, h: np.ndarray) -> np.ndarray:
    """The epoch's L_w - S h without ``windowed_lengths``' checks, for
    heights the integrator built from validated ones."""
    return ep.L_w - ep.ref.stencil(h)


def _height_rates(ref: AdmissibleCurve, p: FlowParams,
                  lengths: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """h' = -phi_dual(nu) * g at the heights whose segment lengths are
    ``lengths``, written to ``out`` when given."""
    g = first_variation(ref, p, lengths=lengths, out=out)
    g *= ref.neg_supports
    return g


# Dormand-Prince 5(4) tableau over the stage rates k1..k7: row r < 6 weighs
# k1..k(r+1) into the heights of stage r+2, then zeros; row 5, the heights of
# stage 7, is also the 5th order solution (first same as last: k7 is the
# rates at the step's end), and row 6 is the 4th order weights.
_DOPRI5 = np.array([
    (1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
    (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
     187 / 2100, 1 / 40),
])
_B5 = _DOPRI5[5]
# over (h, k1, ..., k7): rows (0, a_r) for stages 2-7, then (0, b5 - b4)
_STEP_ROWS = np.pad(np.vstack([_DOPRI5[:6], _B5 - _DOPRI5[6]]),
                    ((0, 0), (1, 0)))
# The continuous extension (Shampine's 4th order weights; Hairer, Norsett &
# Wanner, Solving ODEs I, II.6): the step's solution at theta in [0, 1] is
# y + dt * (b(theta) @ k), with b(theta) = _DENSE @ (theta, ..., theta^4),
# over all seven stage rates; k2's weight is 0, as in the 5th order row.
_DENSE = np.array([
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
])


class _Stages(NamedTuple):
    """One Dormand-Prince step: the 5th order heights at its end, the error
    vector |h5 - h4|, and the (7, n) stage rates and stage lengths.  Row 6 of
    both is the step's end; row 0 of ``lengths`` is not written, since the
    caller holds the lengths at the step's start."""

    h: np.ndarray
    err: np.ndarray
    rates: np.ndarray
    lengths: np.ndarray


def _rk_pair(ep: _OpenEpoch, h: np.ndarray, k1: np.ndarray, dt: float):
    """One Dormand-Prince step of size dt from heights h, whose rates k1 the
    caller has already evaluated.  The (8, n) block ``hk`` holds h, then
    each stage's rates as they arrive; the heights of stage r+2 are one
    product of the row (1, dt a_r) with its leading r+2 rows, and their
    lengths (taken unchecked) and rates are evaluated once and kept.  Stage
    7's heights are h5, and the error is |h5 - h4| = |dt (b5 - b4) k|.
    Returns ``_Stages``, or None when a stage, the end included, leaves the
    admissible length region."""
    block = np.empty((15, len(h)))  # one allocation for hk and the lengths
    hk, lengths = block[:8], block[8:]
    hk[0], hk[1] = h, k1
    rows = _STEP_ROWS * dt
    rows[:6, 0] = 1.0
    try:
        for r in range(6):
            hs = rows[r, :r + 2] @ hk[:r + 2]
            lens = lengths[r + 1] = _stage_lengths(ep, hs)
            _height_rates(ep.ref, ep.p, lens, out=hk[r + 2])
    except ZeroLengthSegment:
        return None
    if not np.isfinite(hs).all():
        return None
    return _Stages(hs, np.abs(rows[6, 1:] @ hk[1:]), hk[1:], lengths)


def _attempt_step(ep: _OpenEpoch, h: np.ndarray, k1: np.ndarray, t: float,
                  dt: float, grid: float = math.inf):
    """Advance one accepted step from heights h, with rates k1, at time t;
    every retry reuses k1.  An attempt longer than ``grid`` is shortened to
    end on the last multiple of ``grid`` it reaches.  Returns (t_new,
    dt_used, dt_next, stages)."""
    while True:
        if dt < ep.opts.min_step:
            raise StepUnderflow(
                f"step size {dt:.3e} fell below min_step at t={t:.6g}")
        t_new = t + dt
        if dt > grid:
            end = math.floor(t_new / grid) * grid
            if end > t:
                t_new, dt = end, end - t
        res = _rk_pair(ep, h, k1, dt)
        if res is None:
            dt *= 0.5
            continue
        scale = ep.opts.abs_tol + ep.opts.rel_tol * np.maximum(np.abs(h),
                                                               np.abs(res.h))
        ratio = float((res.err / scale).max())
        if ratio <= 1.0:
            grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio**-0.2)
            return t_new, dt, min(ep.opts.max_step, dt * grow), res
        dt *= max(0.2, 0.9 * ratio**-0.2)


def step(state: FlowState, p: FlowParams, opts: IntegratorOptions,
         dt: float | None = None):
    """Public single accepted adaptive step: returns (state', err).  As in
    ``evolve``, the step is taken at ``_scaled(opts)``, and an unbounded
    curve needs ``p.window_radius``."""
    if dt is not None and not math.isfinite(dt):  # halving never ends there
        raise ParamOutOfRange(f"step size must be finite, got {dt}")
    opts = _scaled(opts)
    ep = _OpenEpoch(state.reference, p, opts, 0.0)
    k1 = rhs(state, p)  # checks state.h
    if dt is None:
        dt = _initial_dt(k1, opts)
    t_new, _, _, res = _attempt_step(ep, state.h, k1, state.t, dt)
    new = FlowState(ep.ref, res.h, t_new, state.epoch)
    return new, float(res.err.max())


def _initial_dt(r: np.ndarray, opts: IntegratorOptions) -> float:
    """First step size from the height rates r at the start."""
    r_mag = float(np.abs(r).max())
    dt = opts.max_step if r_mag == 0.0 else 0.01 / r_mag
    return min(opts.max_step, max(dt, opts.min_step * 10.0))


# ------------------------------------------------------------------- bounds

def apriori_bounds(curve: AdmissibleCurve, p: FlowParams):
    """Constants (D1, D2, T) with T = D1/D2: no segment can halve its length
    before time T (T = +inf when nothing moves)."""
    b = curve.bounded
    L = curve.lengths
    # S with absolute coefficients bounds how fast lengths and curvatures move
    acsc, acot = np.abs(curve.csc), np.abs(curve.cot_sum)
    geo = corner_stencil(np.ones(curve.n), acsc, acot)
    d1 = 0.5 * float(np.min(L[b] / geo[b], initial=np.inf))

    HF = curve.anisotropy.facet_lengths[curve.facet_index]
    curv = 4.0 * corner_stencil(curve.c2_delta / L**2, acsc, acot)
    val = curve.supports * (2.0 * HF / L + (2.0 * p.alpha / L) * curv)
    d2 = float(np.max(val[b])) if np.any(b) else 0.0
    t_guard = np.inf if d2 == 0.0 else d1 / d2
    return d1, d2, t_guard


# ------------------------------------------------------------------- events

def _vanish_thresholds(ref: AdmissibleCurve, lengths: np.ndarray,
                       opts: IntegratorOptions) -> np.ndarray:
    return np.maximum(opts.vanish_fraction * lengths,
                      1e-10 * max(ref.total_bounded_length, 1.0))


def _vanished(lengths: np.ndarray, thr: np.ndarray) -> np.ndarray:
    return np.nonzero(lengths <= thr)[0]


def detect_vanishing(state: FlowState, opts: IntegratorOptions) -> np.ndarray:
    """Indices of bounded segments at or below their true-length thresholds."""
    ref = state.reference
    van = _vanished(lengths_from_heights(ref, state.h),
                    _vanish_thresholds(ref, ref.lengths, opts))
    return van[ref.bounded[van]]  # inf <= inf on the half-lines


def restart(state: FlowState, vanished) -> FlowState:
    """Remove vanished zero-transition segments, merge the collinear
    neighbors, and open a new epoch with h = 0 at the same time."""
    new_state, _ = _restart_with_record(state, vanished)
    return new_state


def _restart_with_record(state: FlowState, vanished):
    ref = state.reference
    # sorted(set()) over the few indices: np.unique's first call alone
    # raises a run's peak RSS by about 1.7 MB
    van = np.array(sorted(set(np.asarray(vanished, dtype=int).ravel().tolist())),
                   dtype=int)
    if not len(van):
        return state, None
    n = ref.n
    # the first vanished index (ascending) that is out of range or a
    # half-line, or that carries a nonzero transition, decides the error
    j = van.clip(0, n - 1)
    outside = (van != j) | ~ref.bounded[j]
    c = ref.transitions[j]
    fault = np.flatnonzero(outside | (c != 0))
    if len(fault):
        k = fault[0]
        if outside[k]:
            raise NotAdmissibleAfterMerge(f"cannot remove segment {van[k]}")
        raise NonzeroCurvatureCollapse(f"segment {van[k]} has transition {c[k]} != 0")

    index_before = curve_index(ref) if ref.closed else None
    lens = lengths_from_heights(ref, state.h)
    # line offsets of every segment after height displacement
    offsets = np.einsum("ij,ij->i", ref.base_points, ref.normals) + state.h

    keep = np.delete(np.arange(n), van)
    if ref.closed and len(keep) < 3:
        raise NotAdmissibleAfterMerge("fewer than 3 segments would remain")
    facets = ref.facet_index[keep]
    if ref.closed:
        # start at a facet change, so that no same-facet run wraps around
        change = np.flatnonzero(facets != np.roll(facets, 1))
        if not len(change):
            raise NotAdmissibleAfterMerge("all surviving segments are collinear")
        keep, facets = np.roll(keep, -change[0]), np.roll(facets, -change[0])

    # label the maximal same-facet runs of survivors; each run becomes one
    # line at the length-weighted mean offset (summed left to right), except
    # that a half-line's run keeps the half-line's line.  Half-lines get
    # weight 1 so their infinite length never enters a sum.
    first = np.concatenate([[True], facets[1:] != facets[:-1]])
    group = np.cumsum(first) - 1
    if not ref.closed and group[-1] == 0:
        raise NotAdmissibleAfterMerge("both half-lines merged into one line")
    w = np.where(ref.bounded[keep], lens[keep], 1.0)
    g_offset = (np.bincount(group, weights=w * offsets[keep])
                / np.bincount(group, weights=w))
    if not ref.closed:  # keep[0] == 0 and keep[-1] == n - 1
        g_offset[[0, -1]] = offsets[[0, -1]]
    g_facet = facets[first]

    a = ref.anisotropy
    points = g_offset[:, None] * a.normals[g_facet]
    try:
        verts = line_junctions(points, a.tangents[g_facet], ref.closed)
        rebuilt = build_curve(a, verts, ref.topology, ray_directions=ref.rays)
    except (NotAdmissible, DegenerateSegment, SegmentCollapse) as exc:
        raise NotAdmissibleAfterMerge(str(exc)) from exc

    index_after = curve_index(rebuilt) if rebuilt.closed else None
    if ref.closed and index_after != index_before:
        raise NotAdmissibleAfterMerge(
            f"index changed across restart: {index_before} -> {index_after}")

    # merge_map: old segment index -> new segment index (-1 when removed).
    # build_curve never re-orders a clockwise input, and the group lines are
    # already traversed clockwise, so group label == new segment index.
    merge_map = np.full(n, -1, dtype=int)
    merge_map[keep] = group
    record = RestartRecord(t=state.t, epoch_before=state.epoch,
                           vanished=tuple(van.tolist()),
                           merge_map=tuple(merge_map.tolist()),
                           index_before=index_before, index_after=index_after)
    new_state = FlowState(rebuilt, np.zeros(rebuilt.n), state.t,
                          state.epoch + 1)
    return new_state, record


# ------------------------------------------------------------------- evolve

class _OpenEpoch:
    """The running epoch: its curve, parameters, options, reference lengths
    L_w and vanish thresholds, and its samples, appended one row at a time.

    A row's heights are copied into a (capacity, n) array made at the epoch
    start, sized from the time left over the row spacing and doubled when
    full, so ``freeze`` stacks nothing: the epoch's heights are its leading
    rows, and an untouched row takes no memory.  A row keeps (t, W, Q,
    max |h'|); ``status`` reads the stop rule from the last ``_STOP_ROWS``
    of them, whose rates stay as well; ``freeze`` computes F and the
    bounded lengths' min and total from the heights, for all rows at
    once."""

    def __init__(self, ref: AdmissibleCurve, p: FlowParams,
                 opts: IntegratorOptions, rows_hint: float):
        self.ref, self.p, self.opts = ref, p, opts
        self.L_w = windowed_lengths(ref, p)
        self.thr = _vanish_thresholds(ref, self.L_w, opts)
        cap = int(min(_MAX_CAPACITY_ELEMENTS // max(ref.n, 1), rows_hint)) + 2
        self.h = np.empty((cap, ref.n))
        self.rows = []  # (t, W, Q, max |h'|) of each row
        self.h_rates = deque(maxlen=_STOP_ROWS)

    def record(self, t: float, h: np.ndarray, q: float,
               rates: np.ndarray | None = None, w: float | None = None,
               lengths: np.ndarray | None = None):
        """Append the row at (t, h), with the energy Q = q dissipated since
        the epoch start; the one way a row enters.  A step's end passes its
        rates (kept), W and lengths; any other row's are evaluated here.
        Returns (rates, W, lengths)."""
        if rates is None:
            lengths = _stage_lengths(self, h)
            rates = _height_rates(self.ref, self.p, lengths)
            w = dissipation_rate(self.ref, rates, lengths)
        j = len(self.rows)
        if j == len(self.h):
            self.h = np.concatenate([self.h, np.empty_like(self.h)])
        self.h[j] = h
        max_rate = float(np.abs(rates).max())
        self.rows.append((t, w, q, max_rate))
        self.h_rates.append(rates)
        return rates, w, lengths

    def status(self, diam0: float) -> str:
        """Converged when the peak max |h'| of the last ``_STOP_ROWS`` rows
        is within ``stationarity_tol``; TranslatingDivergence when |h| >
        1e3 diam0 and their rates lie that close to the first; else Running."""
        j, tol = len(self.rows), self.opts.stationarity_tol
        if j < _STOP_ROWS:
            return STATUS_RUNNING
        if max(row[3] for row in self.rows[-_STOP_ROWS:]) <= tol:
            return STATUS_CONVERGED
        if np.abs(self.h[j - 1]).max() <= _DIVERGENCE_FACTOR * diam0:
            return STATUS_RUNNING
        drift = float(np.max(np.abs(np.array(self.h_rates) - self.h_rates[0])))
        return STATUS_TRANSLATING if drift <= tol else STATUS_RUNNING

    def freeze(self) -> EpochSeries:
        """The epoch's columns, each contiguous; F and the bounded lengths
        are computed in row chunks, each row's figures with the bits of
        their own call on that row of the chunk's L_w - S H, whose S H has the
        row formula's bits (a row's own S h can differ at small n)."""
        ref, H = self.ref, self.h[:len(self.rows)]
        t, w, q, max_rate = np.array(self.rows, order="F").T
        energy, low, total = np.zeros((3, len(H)))
        chunk = max(1, _FREEZE_ELEMENTS // ref.n)
        for i in range(0, len(H), chunk):
            block = slice(i, i + chunk)
            L = self.L_w - ref.stencil(H[block])
            energy[block] = elastic_energy(ref, self.p, lengths=L)
            if ref.n > 2:  # a corner of two half-lines has no bounded segment
                bl = L[:, _bounded(ref)]
                low[block], total[block] = bl.min(axis=1), bl.sum(axis=1)
        return EpochSeries(t, H, energy, w, q, max_rate, low, total)


def _extension(h: np.ndarray, dt: float, stages: _Stages, theta: float):
    """b(theta) and the heights h + dt b(theta) @ k on a step's continuous
    extension; rows and the locator share it, so equal theta gives equal bits."""
    b = _DENSE @ np.cumprod(np.full(4, theta))
    h_theta = b @ stages.rates
    h_theta *= dt
    h_theta += h
    return b, h_theta


def _extension_rows(t: float, h: np.ndarray, q: float, dt: float,
                    t_end: float, grid: float, stages: _Stages,
                    w: np.ndarray, times=()):
    """(t_j, h_j, Q_j) in order at each t_j strictly inside (t, t_end) that
    is one of the sorted ``times`` or, when t_end - t exceeds ``grid``, a
    multiple of ``grid``, from the continuous extension of the step of size
    dt from (t, h, Q = q); ``w`` holds W at the step's 7 stages."""
    rows = list(times[bisect.bisect_right(times, t):
                      bisect.bisect_left(times, t_end)])
    if t_end - t > grid:
        j = math.floor(t / grid) + 1
        if j * grid <= t:  # t / grid rounded down past an integer
            j += 1
        while j * grid < t_end:
            rows.append(j * grid)
            j += 1
    for t_j in sorted(set(rows)):
        b, h_j = _extension(h, dt, stages, (t_j - t) / dt)
        yield t_j, h_j, q + dt * float(b @ w)


def evolve(curve: AdmissibleCurve, p: FlowParams,
           opts: IntegratorOptions | None = None, *, times=()) -> Trajectory:
    """Run the flow from ``curve``, restarting at each located vanishing,
    until max_time (MaxTime) or an epoch's last rows pass ``_OpenEpoch.status``.
    The trajectory keeps ``opts``; the run integrates with ``_scaled(opts)``.
    A step records a row from its continuous extension at each of ``times``
    it spans and, if longer than the row spacing g = max_step / substeps, at
    each multiple of g it spans, and then ends on one; a time that is a row
    already or lies outside the run adds none.  A step past a vanish
    threshold ends the epoch on that extension, at the crossing
    (``_locate_event``).  Each accepted step ends on its last row, where
    the stop rule is read, so a run ends on a step's end at every
    ``substeps``, on max_time exactly if it runs that long.  A half-line's
    window clip vanishes as a bounded length does, and raises WindowTooSmall
    at the located time; a missing window raises it before the first step."""
    if opts is None:
        opts = IntegratorOptions()
    traj = Trajectory(params=p, options=opts)
    grid = opts.max_step / opts.substeps
    opts = _scaled(opts)
    state = FlowState(curve, np.zeros(curve.n), 0.0, 0)
    diam0 = max(curve.diameter, 1.0)
    t_end = opts.max_time * (1.0 - 1e-15)
    try:  # np.sort raises on a scalar
        times = np.sort(np.asarray(times, dtype=float))
        if times.ndim != 1 or not np.isfinite(times).all():
            raise ValueError
    except (TypeError, ValueError):
        raise ParamOutOfRange("times must be finite, in one list") from None

    while True:  # one pass per epoch
        ref, t, h = state.reference, state.t, state.h
        traj.epochs.append(ref)
        ep = _OpenEpoch(ref, p, opts, (opts.max_time - t) / grid)
        k1, w, lengths = ep.record(t, h, 0.0)  # FlowState checked h
        q = 0.0  # the energy dissipated since the epoch start
        dt = _initial_dt(k1, opts)
        event = ()  # the segments that vanish at the epoch's end
        while not len(event) and traj.status == STATUS_RUNNING and t < t_end:
            # one pass per accepted step, whose k1 is the last row's rates;
            # the vanish test of its end is its event set, tested again only
            # on an event row at theta < 1, and a step with events is the last
            t_new, dt_used, dt, res = _attempt_step(
                ep, h, k1, t, min(dt, opts.max_time - t), grid)
            if t_new >= t_end:  # t + (max_time - t) can round one ulp short
                t_new = opts.max_time
            theta = 1.0  # the fraction of the step kept
            event = _vanished(res.lengths[6], ep.thr)
            if len(event):
                theta = _locate_event(ep, t, h, lengths, dt_used, res)
                if theta < 1.0:
                    t_new = t + theta * dt_used
            # W at the stages, stage 1 the last row's and stage 2 unweighted
            ws = np.empty(7)
            ws[0], ws[1] = w, 0.0
            ws[2:] = dissipation_rate(ref, res.rates[2:], res.lengths[2:])
            for row in _extension_rows(t, h, q, dt_used, t_new, grid, res, ws,
                                       times):
                ep.record(*row)
            t = t_new
            if theta == 1.0:  # the step's end
                h = res.h
                q += dt_used * float(_B5 @ ws)
                k1, w, lengths = ep.record(t, h, q, res.rates[6].copy(),
                                           ws[6], res.lengths[6])
            else:  # the event row, on the extension
                b, h = _extension(h, dt_used, res, theta)
                q += dt_used * float(b @ ws)
                k1, w, lengths = ep.record(t, h, q)
                event = _vanished(lengths, ep.thr)
            if not len(event):
                traj.status = ep.status(diam0)
        if len(event) and not ref.bounded[event].all():
            raise WindowTooSmall(f"half-line clip left the window at t={t:.6g}")
        traj.series.append(ep.freeze())
        state = FlowState(ref, h, t, len(traj.restarts))
        if not len(event):
            if traj.status == STATUS_RUNNING:
                traj.status = STATUS_MAX_TIME
            traj.final_state = state
            return traj
        state, rec = _restart_with_record(state, event)
        traj.restarts.append(rec)


def _locate_event(ep: _OpenEpoch, t: float, h: np.ndarray,
                  lengths: np.ndarray, dt: float, stages: _Stages):
    """The fraction theta in (0, 1] of the step ``stages`` (dt from h, with
    lengths ``lengths``, at t) kept at its first vanishing.  On the extension
    a margin L_i - thr_i is margin_i - sum_m theta^m fall_mi, with fall = dt S
    _DENSE^T k; theta is the last root within the event-time tolerance of the
    least (a mirror pair vanishes in one row), moved on by 2^-48 max L / least
    |dL/dtheta| when round-off leaves its row short of flagging them, else the
    step's end."""
    margin = lengths - ep.thr
    fall = dt * ep.ref.stencil(_DENSE.T @ stages.rates)
    roots = np.full(len(margin), np.inf)
    # a root in the step needs falling terms that can cover the margin
    for i in np.flatnonzero(np.maximum(fall, 0.0).sum(axis=0) >= margin):
        r = np.roots(np.append(-fall[::-1, i], margin[i]))
        roots[i] = r.real[(r.imag == 0.0) & (r.real > 0.0)].min(initial=np.inf)
    tol = max(ep.opts.abs_tol, 1e-14 * max(1.0, abs(t), dt)) / dt
    group = np.flatnonzero(roots <= roots.min() + tol)
    theta = min(float(roots[group].max()), 1.0)  # 1 when no root is in the step
    slope = float(np.abs(np.arange(1, 5) * theta ** np.arange(4) @ fall[:, group]).min())
    nudge = 2.0**-48 * float(lengths[ep.ref.bounded].max()) / slope if slope else 1.0
    for cand in (theta, theta + nudge):
        if cand < 1.0:
            lens = _stage_lengths(ep, _extension(h, dt, stages, cand)[1])
            if (lens[group] <= ep.thr[group]).all():
                return cand
    return 1.0


# -------------------------------------------------------------- dissipation

def _bounded(ref: AdmissibleCurve) -> slice:
    """The bounded entries of a per-segment array as a view, not a copy: all
    of a closed curve's; an unbounded curve's half-lines are its first and
    last segments (see the curve module)."""
    return slice(None) if ref.closed else slice(1, -1)


def dissipation_rate(ref: AdmissibleCurve, rates: np.ndarray,
                     lengths: np.ndarray):
    """The dissipation integrand W = sum_i |h_i'|^2 len_i / phi_dual(nu_i)
    over the bounded segments of ``ref``: a float at one row's (n,) height
    rates and segment lengths, or the (m,) values at each row of (m, n)
    blocks of them.  Each row is summed as one contiguous 1-D array."""
    b = _bounded(ref)
    w = np.square(rates[..., b])
    w *= lengths[..., b]
    w /= ref.supports[b]
    return float(w.sum()) if w.ndim == 1 else w.sum(axis=1)


def epoch_dissipation_residual(energy, dissipated) -> float:
    """max - min of F + Q over one epoch's rows, Q = int W dt the energy
    dissipated since the epoch start."""
    D = np.add(energy, dissipated)
    return float(D.max() - D.min())


def dissipation_residual(traj: Trajectory) -> float:
    """Worst violation of the energy-dissipation identity across epochs:

        F(t_b) - F(t_a) + int_a^b sum_i |h_i'|^2 len_i / phi_dual(nu_i) dt = 0

    read from each epoch's stored energy and dissipated columns
    (``EpochSeries.dissipated``, integrated by the run's own steps).  Rows
    inside a step (grid rows and requested times) come from the step's
    4th-order continuous extension and carry its error as well, so the
    figure can depend on the ``times`` the run was given."""
    residuals = [epoch_dissipation_residual(s.energy, s.dissipated)
                 for s in traj.series if len(s.t) >= 2]
    if not residuals:
        raise InsufficientSamples("no epoch holds two or more samples")
    return max(0.0, *residuals)
