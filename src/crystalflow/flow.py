"""Crystalline elastic flow: height ODE integration with restarts.

Heights h_i(t) measure the normal offset of each segment line from the
epoch's reference curve; the system

    h_i'(t) = -phi_dual(nu_i) * g_i(h(t)),    h_i(0) = 0,

(g the first variation) is integrated with an embedded Fehlberg 4(5) pair on
the raw height vector; each accepted step is recorded as ``substeps`` equal
sub-steps.  The run is a sequence of epochs, each a regular flow that ends
when a zero-transition segment shrinks to its vanish threshold.  Segment
lengths are affine in h, so event detection watches the length
transformation, refines the event time by bisection on the sub-step, and
hands over to a restart: the vanished segments are removed, collinear
neighbors are merged, and a fresh epoch starts from the merged curve with
h = 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

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
    "row_sums",
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
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ParamOutOfRange("tolerances must be positive")
        if not (0.0 < self.vanish_fraction < 1.0):
            raise ParamOutOfRange("vanish_fraction must lie in (0, 1)")
        if not (0.0 < self.min_step < self.max_step):
            raise ParamOutOfRange("need 0 < min_step < max_step")
        if self.max_time <= 0.0:
            raise ParamOutOfRange("max_time must be positive")
        if self.stationarity_tol <= 0.0:
            raise ParamOutOfRange("stationarity_tol must be positive")
        if self.substeps < 1:
            raise ParamOutOfRange("substeps must be >= 1")


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
    """The samples of one epoch as columns: row j holds the heights, segment
    lengths, elastic energy and height rates at time t[j]."""

    t: np.ndarray        # (m,)
    h: np.ndarray        # (m, n)
    lengths: np.ndarray  # (m, n)
    energy: np.ndarray   # (m,)
    h_rates: np.ndarray  # (m, n)


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
    return _height_rates(state.reference, p, state.h)


def _height_rates(ref: AdmissibleCurve, p: FlowParams, h,
                  lengths=None) -> np.ndarray:
    return -ref.supports * first_variation(ref, p, h=h, lengths=lengths)


# Fehlberg 4(5) tableau
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def _rk_pair(ref: AdmissibleCurve, h: np.ndarray, p: FlowParams, dt: float):
    """One Fehlberg step of size dt.  Returns (h5, err_vector) or None when a
    stage leaves the admissible length region."""
    try:
        k = []
        for row in _A:
            hs = h if not row else h + dt * sum(a * ki for a, ki in zip(row, k))
            k.append(_height_rates(ref, p, hs))
    except ZeroLengthSegment:
        return None
    h4 = h + dt * sum(b * ki for b, ki in zip(_B4, k))
    h5 = h + dt * sum(b * ki for b, ki in zip(_B5, k))
    if not np.all(np.isfinite(h5)):
        return None
    return h5, np.abs(h5 - h4)


def _attempt_step(ref: AdmissibleCurve, h: np.ndarray, t: float, p: FlowParams,
                  opts: IntegratorOptions, dt: float):
    """Advance one accepted step from heights h at time t.  Returns
    (h_new, dt_used, dt_next, err)."""
    b = ref.bounded
    while True:
        if dt < opts.min_step:
            raise StepUnderflow(
                f"step size {dt:.3e} fell below min_step at t={t:.6g}")
        res = _rk_pair(ref, h, p, dt)
        if res is not None:
            h5, errv = res
            lens = lengths_from_heights(ref, h5)
            if np.all(lens[b] > 0.0):
                scale = opts.abs_tol + opts.rel_tol * np.maximum(
                    np.abs(h), np.abs(h5))
                ratio = float(np.max(errv / scale)) if len(errv) else 0.0
                if ratio <= 1.0:
                    grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio**-0.2)
                    dt_next = min(opts.max_step, dt * max(0.2, grow))
                    return h5, dt, dt_next, float(np.max(errv))
                dt *= max(0.2, 0.9 * ratio**-0.2)
                continue
        dt *= 0.5


def step(state: FlowState, p: FlowParams, opts: IntegratorOptions,
         dt: float | None = None):
    """Public single accepted adaptive step: returns (state', err)."""
    ref = state.reference
    if dt is None:
        dt = _initial_dt(ref, state.h, p, opts)
    h_new, dt_used, _, err = _attempt_step(ref, state.h, state.t, p, opts, dt)
    new = FlowState(ref, h_new, state.t + dt_used, state.epoch,
                    state.initial_total_length)
    return new, err


def _initial_dt(ref: AdmissibleCurve, h: np.ndarray, p: FlowParams,
                opts: IntegratorOptions) -> float:
    r = _height_rates(ref, p, h)
    r_mag = float(np.max(np.abs(r))) if len(r) else 0.0
    dt = opts.max_step if r_mag == 0.0 else min(opts.max_step, 0.01 / r_mag)
    return max(dt, opts.min_step * 10.0)


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


def _vanished(ref: AdmissibleCurve, lengths: np.ndarray,
              thr: np.ndarray) -> np.ndarray:
    return np.nonzero(ref.bounded & (lengths <= thr))[0]


def detect_vanishing(state: FlowState, opts: IntegratorOptions) -> np.ndarray:
    """Indices of bounded segments at or below the vanish threshold."""
    ref = state.reference
    return _vanished(ref, lengths_from_heights(ref, state.h),
                     _vanish_thresholds(state, opts))


def restart(state: FlowState, vanished) -> FlowState:
    """Remove vanished zero-transition segments, merge the collinear
    neighbors, and open a new epoch with h = 0 at the same time."""
    new_state, _ = _restart_with_record(state, vanished)
    return new_state


def _restart_with_record(state: FlowState, vanished):
    ref = state.reference
    van = sorted({int(i) for i in np.asarray(vanished, dtype=int).ravel()})
    if not van:
        return state, None
    n = ref.n
    for i in van:
        if not (0 <= i < n) or ref.is_halfline(i):
            raise NotAdmissibleAfterMerge(f"cannot remove segment {i}")
        if ref.transitions[i] != 0:
            raise NonzeroCurvatureCollapse(
                f"segment {i} has transition {int(ref.transitions[i])} != 0")

    index_before = curve_index(ref) if ref.closed else None
    lens = lengths_from_heights(ref, state.h)
    # line offsets of every segment after height displacement
    offsets = np.einsum("ij,ij->i", ref.base_points, ref.normals) + state.h

    keep = [i for i in range(n) if i not in van]
    if ref.closed and len(keep) < 3:
        raise NotAdmissibleAfterMerge("fewer than 3 segments would remain")

    # group surviving segments into maximal same-facet runs (cyclic if closed)
    facets = ref.facet_index
    if ref.closed:
        m = len(keep)
        start = next((j for j in range(m)
                      if facets[keep[j]] != facets[keep[j - 1]]), None)
        if start is None:
            raise NotAdmissibleAfterMerge("all surviving segments are collinear")
        order = keep[start:] + keep[:start]
    else:
        order = keep
    groups = []
    for i in order:
        if groups and facets[groups[-1][-1]] == facets[i]:
            groups[-1].append(i)
        else:
            groups.append([i])

    # one line per group: half-line lines win, otherwise length-weighted mean
    g_facet, g_offset = [], []
    for grp in groups:
        g_facet.append(int(facets[grp[0]]))
        half = [i for i in grp if ref.is_halfline(i)]
        if len(half) > 1:
            raise NotAdmissibleAfterMerge("both half-lines merged into one line")
        if half:
            g_offset.append(offsets[half[0]])
        else:
            w = lens[grp]
            g_offset.append(float(np.sum(w * offsets[grp]) / np.sum(w)))

    a = ref.anisotropy
    points = np.asarray(g_offset)[:, None] * a.normals[g_facet]
    if not ref.closed and not (ref.is_halfline(groups[0][0])
                               and ref.is_halfline(groups[-1][-1])):
        raise NotAdmissibleAfterMerge("half-lines lost during merge")
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
    # already traversed clockwise, so group position == new segment index.
    merge_map = np.full(n, -1, dtype=int)
    for k, grp in enumerate(groups):
        for i in grp:
            merge_map[i] = k
    record = RestartRecord(t=state.t, epoch_before=state.epoch,
                           vanished=tuple(van), merge_map=tuple(int(x) for x in merge_map),
                           index_before=index_before, index_after=index_after)
    new_state = FlowState(rebuilt, np.zeros(rebuilt.n), state.t,
                          state.epoch + 1, state.initial_total_length)
    return new_state, record


# ------------------------------------------------------------------- evolve

class _OpenEpoch:
    """Samples of the running epoch, appended one row at a time."""

    def __init__(self, ref: AdmissibleCurve, p: FlowParams):
        self.ref, self.p = ref, p
        self.t, self.h, self.lengths, self.energy, self.h_rates = [], [], [], [], []
        self.max_rate = []  # max |h'| per row, for the trailing-window tests

    def record(self, t: float, h: np.ndarray, lengths: np.ndarray):
        """Append the row at (t, h); ``lengths`` is lengths_from_heights(h)."""
        rates = _height_rates(self.ref, self.p, h, lengths)
        self.t.append(t)
        self.h.append(h)
        self.lengths.append(lengths)
        self.energy.append(elastic_energy(self.ref, self.p, h=h, lengths=lengths))
        self.h_rates.append(rates)
        self.max_rate.append(float(np.max(np.abs(rates))))

    def status(self, span: float, diam0: float, opts: IntegratorOptions) -> str:
        """Converged or TranslatingDivergence as read off the trailing window
        [t - span, t] of the last row; Running while the window holds fewer
        than 10 rows or covers less than 0.9 span, or neither test passes."""
        t = self.t[-1]
        i = bisect_left(self.t, t - span)
        if len(self.t) - i < 10 or t - self.t[i] < 0.9 * span:
            return STATUS_RUNNING
        if max(self.max_rate[i:]) <= opts.stationarity_tol:
            return STATUS_CONVERGED
        if float(np.max(np.abs(self.h[-1]))) <= _DIVERGENCE_FACTOR * diam0:
            return STATUS_RUNNING
        drift = float(np.max(np.abs(np.array(self.h_rates[i:]) - self.h_rates[i])))
        return STATUS_TRANSLATING if drift <= opts.stationarity_tol else STATUS_RUNNING

    def freeze(self) -> EpochSeries:
        return EpochSeries(np.array(self.t), np.array(self.h),
                           np.array(self.lengths), np.array(self.energy),
                           np.array(self.h_rates))


def evolve(curve: AdmissibleCurve, p: FlowParams,
           opts: IntegratorOptions | None = None) -> Trajectory:
    """Run the flow from ``curve`` until max_time, convergence (settled
    heights and rates), or the translating-divergence heuristic."""
    if opts is None:
        opts = IntegratorOptions()
    traj = Trajectory(params=p, options=opts)
    state = FlowState(curve, np.zeros(curve.n), 0.0, 0)
    diam0 = max(curve.diameter, 1.0)
    span = 0.05 * opts.max_time
    t_end = opts.max_time * (1.0 - 1e-15)
    max_restarts = max(curve.n, 4)

    while True:  # one pass per epoch
        ref, t, h = state.reference, state.t, state.h
        thr = _vanish_thresholds(state, opts)
        traj.epochs.append(ref)
        rows = _OpenEpoch(ref, p)
        rows.record(t, h, lengths_from_heights(ref, h))
        dt = _initial_dt(ref, h, p, opts)
        event = None  # indices of the vanished segments
        while event is None and traj.status == STATUS_RUNNING and t < t_end:
            # one pass per accepted step, recorded as its sub-step pieces
            h_new, dt_used, dt, _ = _attempt_step(ref, h, t, p, opts,
                                                  min(dt, opts.max_time - t))
            for t_piece, h_piece in _substates(ref, t, h, h_new, dt_used, p,
                                               opts.substeps):
                lens = lengths_from_heights(ref, h_piece)
                if len(_vanished(ref, lens, thr)):
                    t_piece, h_piece = _bisect_event(ref, t, h, t_piece - t,
                                                     h_piece, thr, p, opts)
                    lens = lengths_from_heights(ref, h_piece)
                    event = _vanished(ref, lens, thr)
                rows.record(t_piece, h_piece, lens)
                t, h = t_piece, h_piece
                if event is not None:
                    break
            else:
                traj.status = rows.status(span, diam0, opts)
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


def _substates(ref: AdmissibleCurve, t: float, h: np.ndarray,
               h_new: np.ndarray, dt_used: float, p: FlowParams, substeps: int):
    """Realize the accepted step (t, h) -> (t + dt_used, h_new) as equal
    sub-steps, a list of (t, h) pairs, so the recorded samples resolve the
    dissipation integrand; error per sub-step only shrinks relative to the
    accepted full step.  Falls back to the plain endpoint if a sub-step
    leaves the admissible region (the event scan handles that)."""
    if substeps <= 1:
        return [(t + dt_used, h_new)]
    dt_sub = dt_used / substeps
    pieces = []
    for i in range(substeps):
        res = _rk_pair(ref, h, p, dt_sub)
        if res is None:
            return [(t + dt_used, h_new)]
        h = res[0]
        pieces.append((t + (i + 1) * dt_sub, h))
    return pieces


def _bisect_event(ref: AdmissibleCurve, t: float, h: np.ndarray, dt_hi: float,
                  h_hi: np.ndarray, thr: np.ndarray, p: FlowParams,
                  opts: IntegratorOptions):
    """Refine the first threshold crossing inside (t, t + dt_hi], where h_hi
    is past the threshold at t + dt_hi.  Returns the (t, h) of the earliest
    probe found past it."""
    lo, hi = 0.0, dt_hi
    tol = max(opts.abs_tol, 1e-14 * max(1.0, abs(t)))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = _rk_pair(ref, h, p, mid)
        if res is None:
            hi = mid  # overshoot past admissibility: event is earlier
        elif len(_vanished(ref, lengths_from_heights(ref, res[0]), thr)):
            hi, h_hi = mid, res[0]
        else:
            lo = mid
    return t + hi, h_hi


# -------------------------------------------------------------- dissipation

def _cumulative_quadrature(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples (t, w) via composite Simpson on the
    nonuniform grid (quadratic through consecutive triples; trapezoid only
    when just two samples exist)."""
    m = len(t)
    out = np.zeros(m)
    if m == 2:
        out[1] = 0.5 * (w[0] + w[1]) * (t[1] - t[0])
        return out
    k = 0
    while k + 2 < m:
        h0, h1 = t[k + 1] - t[k], t[k + 2] - t[k + 1]
        i1, i2 = _quad_pair(h0, h1, w[k], w[k + 1], w[k + 2])
        out[k + 1] = out[k] + i1
        out[k + 2] = out[k + 1] + i2
        k += 2
    if k + 1 < m:  # odd leftover: quadratic through the last three points
        h0, h1 = t[-2] - t[-3], t[-1] - t[-2]
        _, i2 = _quad_pair(h0, h1, w[-3], w[-2], w[-1])
        out[-1] = out[-2] + i2
    return out


def _quad_pair(h0, h1, f0, f1, f2):
    """Integrals of the interpolating quadratic over [-h0, 0] and [0, h1]."""
    denom = h0 * h1 * (h0 + h1)
    A = (f0 * h1 + f2 * h0 - f1 * (h0 + h1)) / denom
    B = (f2 * h0**2 - f0 * h1**2 + f1 * (h1**2 - h0**2)) / denom
    i_left = A * h0**3 / 3.0 - B * h0**2 / 2.0 + f1 * h0
    i_right = A * h1**3 / 3.0 + B * h1**2 / 2.0 + f1 * h1
    return i_left, i_right


def row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each row of a 2-D array, rounded as the 1-D sum of that row.

    numpy sums a contiguous row pairwise.  A column selection such as
    ``x[:, mask]`` is laid out column-major, and numpy would add its columns
    one after another instead: a sequential sum, which rounds differently."""
    return np.sum(np.ascontiguousarray(x), axis=1)


def dissipation_rate(ref: AdmissibleCurve, series: EpochSeries) -> np.ndarray:
    """The dissipation integrand W = sum_i |h_i'|^2 len_i / phi_dual(nu_i)
    over the bounded segments of ``ref``, one value per row of ``series``."""
    b = ref.bounded
    return row_sums(series.h_rates[:, b] ** 2 * series.lengths[:, b]
                    / ref.supports[b])


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


def dissipation_residual(traj: Trajectory, p: FlowParams | None = None) -> float:
    """Worst violation of the energy-dissipation identity across epochs:

        F(t_b) - F(t_a) + int_a^b sum_i |h_i'|^2 len_i / phi_dual(nu_i) dt = 0

    evaluated on the stored samples with Simpson quadrature."""
    if p is None:
        p = traj.params
    residuals = [epoch_dissipation_residual(s.t, s.energy, dissipation_rate(ref, s))
                 for ref, s in zip(traj.epochs, traj.series) if len(s.t) >= 2]
    if not residuals:
        raise InsufficientSamples("no epoch holds two or more samples")
    return max(0.0, *residuals)
