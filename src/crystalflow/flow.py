"""Crystalline elastic flow: height ODE integration with restarts.

Heights h_i(t) measure the normal offset of each segment line from the
epoch's reference curve; the system

    h_i'(t) = -phi_dual(nu_i) * g_i(h(t)),    h_i(0) = 0,

(g the first variation) is integrated with an embedded Fehlberg 4(5) pair on
the raw height vector, and every accepted step is one recorded row.
``substeps`` k > 1 samples more densely by tightening the step control
(``_scaled``).  The run is a sequence of epochs, each a regular flow that
ends when a zero-transition segment shrinks to its vanish threshold.
Segment lengths are affine in h, so event detection watches the length
transformation, locates the crossing inside the accepted step by regula
falsi on the least length margin, and hands over to a restart: the
vanished segments are removed, collinear neighbors are merged, and a fresh
epoch starts from the merged curve with h = 0.

An epoch's record (``EpochSeries``) keeps the time, heights and elastic
energy of each row, plus the four per-row figures of the series file: the
dissipation integrand W, max |h'|, and the minimum and total bounded
length.  ``_OpenEpoch`` computes a row's figures from its lengths and rates
when the row is recorded, and keeps neither; both follow bit for bit from
the heights when needed.

Heights are checked (shape, finite values, pinned half-lines) where they
enter: in ``FlowState`` at each epoch start, and in the public ``rhs``,
``step``, ``detect_vanishing`` and ``lengths_from_heights``.  Inside an
epoch every height vector is built by the integrator from checked ones, so
the stages take their lengths L - S h straight from the reference curve's
``AdmissibleCurve.stencil``.  The epoch's curve owns every other
coefficient of the ODE too (``neg_supports`` for g -> h', the facet
coefficients of ``energy.first_variation``, the half-line window clips),
so a stage only does the arithmetic in h.

The height rates at each state are evaluated once.  The rates of the last
recorded row are k1 of the next step, of each retry of it and of every
event probe from it.  ``_rk_pair`` keeps one (7, n) accumulator, a row per
tableau row (stages 2-6, then the 4th and 5th order weights), and adds
each stage's rates to every later row as they arrive: each row sums its
terms left to right, the same rounding as adding them one by one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .curve import (
    AdmissibleCurve,
    build_curve,
    corner_stencil,
    curve_index,
    lengths_from_heights,
    line_junctions,
)
from .energy import FlowParams, elastic_energy, first_variation
from .errors import (
    InsufficientSamples,
    NonzeroCurvatureCollapse,
    NotAdmissible,
    NotAdmissibleAfterMerge,
    DegenerateSegment,
    ParamOutOfRange,
    SegmentCollapse,
    StepUnderflow,
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
    rel_tol / k^5, abs_tol / k^5 and max_step / k, at substeps 1.  The
    Fehlberg error estimate scales as dt^5, so each step then carries about
    the error of a k-th of a step at the given options.  A scaled tolerance
    is floored at round-off, but never above the given one; k = 1 returns
    the same values."""
    k = opts.substeps
    return replace(
        opts, substeps=1, max_step=opts.max_step / k,
        rel_tol=min(opts.rel_tol, max(opts.rel_tol / k**5, _REL_TOL_FLOOR)),
        abs_tol=min(opts.abs_tol, max(opts.abs_tol / k**5, _ABS_TOL_FLOOR)))


@dataclass
class FlowState:
    """Reference curve of the current epoch plus the height vector at time t."""

    reference: AdmissibleCurve
    h: np.ndarray
    t: float
    epoch: int
    initial_total_length: float | None = None

    def __post_init__(self):
        self.h = self.reference.check_heights(self.h)
        if self.initial_total_length is None:
            self.initial_total_length = max(self.reference.total_bounded_length, 1.0)


@dataclass(frozen=True, eq=False)
class EpochSeries:
    """The samples of one epoch as columns: row j holds the heights and the
    elastic energy at time t[j], and the four per-row figures of the series
    file.  Segment lengths and height rates are not kept; they follow bit
    for bit from the heights, as ``lengths_from_heights(ref, h[j])`` and
    ``rhs``."""

    t: np.ndarray                     # (m,)
    h: np.ndarray                     # (m, n)
    energy: np.ndarray                # (m,)
    dissipation: np.ndarray           # (m,) the integrand W of dissipation_rate
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


def _stage_lengths(ref: AdmissibleCurve, h: np.ndarray) -> np.ndarray:
    """lengths_from_heights without its check, for heights the integrator
    built from validated ones."""
    return ref.lengths - ref.stencil(h)


def _height_rates(ref: AdmissibleCurve, p: FlowParams,
                  lengths: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """h' = -phi_dual(nu) * g at the heights whose segment lengths are
    ``lengths``, written to ``out`` when given."""
    g = first_variation(ref, p, lengths=lengths)
    return np.multiply(ref.neg_supports, g, out=g if out is None else out)


# Fehlberg 4(5) tableau over the stage rates k1..k6: row r < 5 weighs
# k1..k(r+1) into the heights of stage r+2, then zeros; rows 5 and 6 are
# the 4th and 5th order weights.
_FEHLBERG = np.array([
    (1 / 4, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 32, 9 / 32, 0.0, 0.0, 0.0, 0.0),
    (1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0, 0.0),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0, 0.0),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40, 0.0),
    (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0),
    (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
])


def _rk_pair(ref: AdmissibleCurve, p: FlowParams, h: np.ndarray,
             k1: np.ndarray, dt: float):
    """One Fehlberg step of size dt from heights h, whose rates k1 the
    caller has already evaluated.  Row r of the (7, n) accumulator sums
    tableau row r's terms c k left to right, as a term-by-term loop would:
    each stage's rates are added to every later row as they arrive.  Row
    r < 5 is complete once k(r+1) is in, and ``*= dt``, ``+= h`` make it
    the heights of stage r+2, whose rates are evaluated once, at lengths
    taken from them unchecked; rows 5 and 6 become h4 and h5.  Returns
    (h5, err_vector) or None when a stage leaves the admissible length
    region."""
    acc = _FEHLBERG[:, :1] * k1
    try:
        for r in range(5):
            hs = acc[r]
            hs *= dt
            hs += h
            k = _height_rates(ref, p, _stage_lengths(ref, hs))
            acc[r + 1:] += _FEHLBERG[r + 1:, r + 1:r + 2] * k
    except ZeroLengthSegment:
        return None
    acc[5:] *= dt
    acc[5:] += h
    h4, h5 = acc[5], acc[6]
    if not np.isfinite(h5).all():
        return None
    return h5, np.abs(h5 - h4)


def _attempt_step(ref: AdmissibleCurve, p: FlowParams, h: np.ndarray,
                  k1: np.ndarray, t: float, opts: IntegratorOptions,
                  dt: float):
    """Advance one accepted step from heights h, with rates k1, at time t;
    every retry reuses k1.  Returns (h_new, lengths_new, dt_used, dt_next,
    err)."""
    while True:
        if dt < opts.min_step:
            raise StepUnderflow(
                f"step size {dt:.3e} fell below min_step at t={t:.6g}")
        res = _rk_pair(ref, p, h, k1, dt)
        if res is not None:
            h5, errv = res
            lens = _stage_lengths(ref, h5)
            if np.minimum.reduce(lens) > 0.0:  # half-lines are +inf
                scale = opts.abs_tol + opts.rel_tol * np.maximum(
                    np.abs(h), np.abs(h5))
                ratio = float((errv / scale).max()) if len(errv) else 0.0
                if ratio <= 1.0:
                    grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio**-0.2)
                    dt_next = min(opts.max_step, dt * max(0.2, grow))
                    return h5, lens, dt, dt_next, float(errv.max())
                dt *= max(0.2, 0.9 * ratio**-0.2)
                continue
        dt *= 0.5


def step(state: FlowState, p: FlowParams, opts: IntegratorOptions,
         dt: float | None = None):
    """Public single accepted adaptive step: returns (state', err)."""
    ref = state.reference
    k1 = rhs(state, p)  # checks state.h
    if dt is None:
        dt = _initial_dt(k1, opts)
    h_new, _, dt_used, _, err = _attempt_step(ref, p, state.h, k1, state.t,
                                              opts, dt)
    new = FlowState(ref, h_new, state.t + dt_used, state.epoch,
                    state.initial_total_length)
    return new, err


def _initial_dt(r: np.ndarray, opts: IntegratorOptions) -> float:
    """First step size from the height rates r at the start."""
    r_mag = float(np.abs(r).max()) if len(r) else 0.0
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
    d1 = 0.5 * float(np.min(L[b] / geo[b]))

    HF = curve.anisotropy.facet_lengths[curve.facet_index]
    curv = 4.0 * corner_stencil(curve.c2_delta / L**2, acsc, acot)
    val = curve.supports * (2.0 * HF / L + (2.0 * p.alpha / L) * curv)
    d2 = float(np.max(val[b])) if np.any(b) else 0.0
    t_guard = np.inf if d2 == 0.0 else d1 / d2
    return d1, d2, t_guard


# ------------------------------------------------------------------- events

def _vanish_thresholds(state: FlowState, opts: IntegratorOptions) -> np.ndarray:
    ref = state.reference
    return np.where(ref.bounded,
                    np.maximum(opts.vanish_fraction * ref.lengths,
                               1e-10 * state.initial_total_length),
                    -np.inf)  # half-lines never vanish


def _vanished(lengths: np.ndarray, thr: np.ndarray) -> np.ndarray:
    return np.nonzero(lengths <= thr)[0]  # thr is -inf on half-lines


def detect_vanishing(state: FlowState, opts: IntegratorOptions) -> np.ndarray:
    """Indices of bounded segments at or below the vanish threshold."""
    ref = state.reference
    return _vanished(lengths_from_heights(ref, state.h),
                     _vanish_thresholds(state, opts))


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
                          state.epoch + 1, state.initial_total_length)
    return new_state, record


# ------------------------------------------------------------------- evolve

class _OpenEpoch:
    """Samples of the running epoch, appended one row at a time.

    A row's heights are copied into a (capacity, n) array made at the epoch
    start, sized from the time left over ``max_step`` and doubled when full,
    so ``freeze`` stacks nothing: the epoch's heights are its leading rows,
    and an untouched row takes no memory.  Of a row's lengths and rates
    only its figures are kept, as one tuple (t, F, W, max |h'|, min and
    total bounded length), each the 1-D reduction of the row's own entries;
    the last ``_STOP_ROWS`` rows' rates stay for ``status``."""

    def __init__(self, ref: AdmissibleCurve, p: FlowParams, rows_hint: float):
        self.ref, self.p = ref, p
        cap = int(min(_MAX_CAPACITY_ELEMENTS // max(ref.n, 1), rows_hint)) + 2
        self.h = np.empty((cap, ref.n))
        self.rows = []  # the figures of each row, in EpochSeries column order
        self.h_rates = deque(maxlen=_STOP_ROWS)

    def record(self, t: float, h: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Append the row at (t, h), whose lengths_from_heights(h) is
        ``lengths``; returns the height rates there."""
        ref = self.ref
        rates = _height_rates(ref, self.p, lengths)
        j = len(self.rows)
        if j == len(self.h):
            self.h = np.concatenate([self.h, np.empty_like(self.h)])
        self.h[j] = h
        bl = lengths[_bounded(ref)]
        # a corner of two half-lines has no bounded segment
        self.rows.append((t, elastic_energy(ref, self.p, h=h, lengths=lengths),
                          dissipation_rate(ref, rates, lengths),
                          float(np.abs(rates).max()),
                          float(bl.min()) if len(bl) else 0.0, float(bl.sum())))
        self.h_rates.append(rates)
        return rates

    def status(self, diam0: float, opts: IntegratorOptions) -> str:
        """Converged when the last ``_STOP_ROWS`` rows have max |h'| within
        stationarity_tol; TranslatingDivergence when |h| > 1e3 diam0 and
        their rates lie that close to the first one's; else Running."""
        if len(self.rows) < _STOP_ROWS:
            return STATUS_RUNNING
        max_rate = max(row[3] for row in self.rows[-_STOP_ROWS:])  # max |h'|
        if max_rate <= opts.stationarity_tol:
            return STATUS_CONVERGED
        if float(np.abs(self.h[len(self.rows) - 1]).max()) <= _DIVERGENCE_FACTOR * diam0:
            return STATUS_RUNNING
        drift = float(np.max(np.abs(np.array(self.h_rates) - self.h_rates[0])))
        return STATUS_TRANSLATING if drift <= opts.stationarity_tol else STATUS_RUNNING

    def freeze(self) -> EpochSeries:
        """The epoch's columns; Fortran order keeps each one contiguous."""
        m = len(self.rows)
        t, *figures = np.array(self.rows, order="F").T
        return EpochSeries(t, self.h[:m], *figures)


def evolve(curve: AdmissibleCurve, p: FlowParams,
           opts: IntegratorOptions | None = None) -> Trajectory:
    """Run the flow from ``curve``, restarting at each located vanishing,
    until max_time (MaxTime) or an epoch's last rows pass ``_OpenEpoch.status``.
    The trajectory keeps ``opts``; the run integrates with ``_scaled(opts)``."""
    if opts is None:
        opts = IntegratorOptions()
    traj = Trajectory(params=p, options=opts)
    opts = _scaled(opts)
    state = FlowState(curve, np.zeros(curve.n), 0.0, 0)
    diam0 = max(curve.diameter, 1.0)
    t_end = opts.max_time * (1.0 - 1e-15)
    max_restarts = max(curve.n, 4)

    while True:  # one pass per epoch
        ref, t, h = state.reference, state.t, state.h
        thr = _vanish_thresholds(state, opts)
        traj.epochs.append(ref)
        rows = _OpenEpoch(ref, p, (opts.max_time - t) / opts.max_step)
        k1 = rows.record(t, h, _stage_lengths(ref, h))  # FlowState checked h
        dt = _initial_dt(k1, opts)
        event = None  # indices of the vanished segments
        while event is None and traj.status == STATUS_RUNNING and t < t_end:
            # one pass and one row per accepted step, whose k1 is the last
            # row's rates; a step past a vanish threshold is cut back to
            # the crossing
            h_new, lens, dt_used, dt, _ = _attempt_step(
                ref, p, h, k1, t, opts, min(dt, opts.max_time - t))
            t_new = t + dt_used
            if len(_vanished(lens, thr)):
                t_new, h_new = _locate_event(ref, p, t, h, k1, t_new, h_new,
                                             thr, opts)
                lens = _stage_lengths(ref, h_new)
                event = _vanished(lens, thr)
            k1 = rows.record(t_new, h_new, lens)
            t, h = t_new, h_new
            if event is None:
                traj.status = rows.status(diam0, opts)
        traj.series.append(rows.freeze())
        state = FlowState(ref, h, t, len(traj.restarts),
                          state.initial_total_length)
        if event is None:
            break
        if len(traj.restarts) >= max_restarts:
            raise NotAdmissibleAfterMerge("restart count exceeded segment count")
        state, rec = _restart_with_record(state, event)
        traj.restarts.append(rec)

    if traj.status == STATUS_RUNNING:
        traj.status = STATUS_MAX_TIME
    traj.final_state = state
    return traj


def _locate_event(ref: AdmissibleCurve, p: FlowParams, t: float,
                  h: np.ndarray, k1: np.ndarray, t_hi: float,
                  h_hi: np.ndarray, thr: np.ndarray, opts: IntegratorOptions):
    """Locate a threshold crossing in (t, t_hi], h_hi being past it, to within
    the event-time tolerance tol by Illinois regula falsi on gap(dt), the least
    bounded length - threshold after a step dt from h with rates k1; estimates
    are clamped to [lo + tol/2, hi - tol/2], and an inadmissible probe counts
    as past.  Returns (t, h) of the earliest admissible probe past it."""
    b = ref.bounded

    def gap(heights):  # -inf off the admissible region, where no rate exists
        lens = _stage_lengths(ref, heights)[b]
        return float(np.min(lens - thr[b])) if lens.min() > 0.0 else -np.inf

    # tol spans many ulps of t and of the step, so every clamped probe moves
    tol = max(opts.abs_tol, 1e-14 * max(1.0, abs(t), t_hi - t))
    lo, hi, dt_hi = 0.0, t_hi - t, t_hi - t
    f_lo, f_hi, side = gap(h), gap(h_hi), 0  # side: last moved end, lo 1, hi -1
    while hi - lo > tol:
        dt = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        dt = min(max(dt, lo + 0.5 * tol), hi - 0.5 * tol)
        res = _rk_pair(ref, p, h, k1, dt)
        f = -np.inf if res is None else gap(res[0])
        # Illinois: halve the value at an end kept for a second probe
        if f > 0.0:
            lo, f_lo, f_hi = dt, f, f_hi * (0.5 if side == 1 else 1.0)
            side = 1
        else:
            hi, f_lo = dt, f_lo * (0.5 if side == -1 else 1.0)
            side = -1
            if f > -np.inf:
                f_hi, dt_hi, h_hi = f, dt, res[0]
    return t + dt_hi, h_hi


# -------------------------------------------------------------- dissipation

def _cumulative_quadrature(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples (t, w) via composite Simpson on the
    nonuniform grid (quadratic through consecutive triples; trapezoid only
    when just two samples exist).  The increments are summed left to right
    by ``np.cumsum``."""
    if len(t) == 2:
        return np.array([0.0, 0.5 * (w[0] + w[1]) * (t[1] - t[0])])
    h = np.diff(t)
    k = np.arange(0, len(t) - 2, 2)  # the first point of each triple
    steps = np.column_stack(_quad_pair(h[k], h[k + 1], w[k], w[k + 1],
                                       w[k + 2])).ravel()
    if len(t) % 2 == 0:  # odd leftover: quadratic through the last three points
        steps = np.append(steps, _quad_pair(h[-2], h[-1], *w[-3:])[1])
    return np.concatenate(([0.0], np.cumsum(steps)))


def _quad_pair(h0, h1, f0, f1, f2):
    """Integrals of the interpolating quadratic over [-h0, 0] and [0, h1]."""
    denom = h0 * h1 * (h0 + h1)
    A = (f0 * h1 + f2 * h0 - f1 * (h0 + h1)) / denom
    B = (f2 * h0**2 - f0 * h1**2 + f1 * (h1**2 - h0**2)) / denom
    i_left = A * h0**3 / 3.0 - B * h0**2 / 2.0 + f1 * h0
    i_right = A * h1**3 / 3.0 + B * h1**2 / 2.0 + f1 * h1
    return i_left, i_right


def _bounded(ref: AdmissibleCurve) -> slice:
    """The bounded entries of a per-segment array as a view, not a copy: all
    of a closed curve's; an unbounded curve's half-lines are its first and
    last segments (see the curve module)."""
    return slice(None) if ref.closed else slice(1, -1)


def dissipation_rate(ref: AdmissibleCurve, rates: np.ndarray,
                     lengths: np.ndarray) -> float:
    """The dissipation integrand W = sum_i |h_i'|^2 len_i / phi_dual(nu_i)
    over the bounded segments of ``ref``, at one row's height rates and
    segment lengths, summed as one contiguous 1-D array."""
    b = _bounded(ref)
    w = np.square(rates[b])
    w *= lengths[b]
    w /= ref.supports[b]
    return float(w.sum())


def epoch_dissipation_residual(t, energy, rate) -> float:
    """max - min of D = F + int W dt over one epoch's samples, after dropping
    repeated time stamps (an event and the post-restart sample share t);
    0 when fewer than two distinct times remain."""
    keep = np.concatenate([[True], np.diff(t) > 0.0])
    t, energy, rate = t[keep], energy[keep], rate[keep]
    if len(t) < 2:
        return 0.0
    D = energy + _cumulative_quadrature(t, rate)
    return float(D.max() - D.min())


def dissipation_residual(traj: Trajectory) -> float:
    """Worst violation of the energy-dissipation identity across epochs:

        F(t_b) - F(t_a) + int_a^b sum_i |h_i'|^2 len_i / phi_dual(nu_i) dt = 0

    evaluated with Simpson quadrature on each epoch's stored energy and
    integrand columns (``EpochSeries.dissipation``), which the run stored
    with its own parameters."""
    residuals = [epoch_dissipation_residual(s.t, s.energy, s.dissipation)
                 for s in traj.series if len(s.t) >= 2]
    if not residuals:
        raise InsufficientSamples("no epoch holds two or more samples")
    return max(0.0, *residuals)
