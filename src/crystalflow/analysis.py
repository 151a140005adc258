"""Stationary and translating solutions for the square anisotropy, plus
post-hoc trajectory diagnostics.

The generators build exact members of each known stationary family (square
Wulff shape [-1, 1]^2):

* staircase           -- all transition numbers zero, arbitrary lengths;
* wulff-square        -- the square of side sqrt(4*alpha);
* the chains          -- one periodic-block construction.  A chain is m
                         blocks (open, between two half-lines) or 2m blocks
                         (closed) of period p: a straight connector, then
                         p - 1 curved sides turning the same way, the sign
                         alternating from block to block.
  - right-angle-chain  p = 3, two sides sqrt(2*alpha) per block (open
                       n = 3m+1, closed n = 6m);
  - double-right-angle-chain  p = 4, sides a, sqrt(2*alpha), b with
                       1/a^2 + 1/b^2 = 1/(2*alpha), a and b swapping places
                       in odd blocks (open n = 4m+1; closed n = 8m forces
                       a = b = sqrt(4*alpha)).
  An open chain's m - 1 connectors are free.  A closed chain groups its
  connectors by facet; closure fixes each group's total, which its last
  connector takes up.

The classifier inverts the construction: it compares the curve's transition
numbers, up to index rotation and orientation reversal, with those of the
generated chain, after checking the stationarity residual.
Translating-profile generators follow the known one-parameter families;
translation_check fits a single velocity lambda to the height rates and
reports the worst deviation from lambda * <eta, nu_i>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anisotropy import is_square_anisotropy, square_anisotropy
from .curve import (
    AdmissibleCurve,
    build_curve,
    corner_data,
    reconstruct_parallel,
)
from .energy import FlowParams, stationarity_residual
from .errors import (
    HalfLinesNotParallel,
    InvalidClassParams,
    NotStationary,
    ParamOutOfRange,
    SegmentCollapse,
)
from .flow import STATUS_CONVERGED, FlowState, Trajectory, rhs

__all__ = [
    "StationaryClass",
    "TranslationReport",
    "ConvergenceReport",
    "KIND_STAIRCASE",
    "KIND_RIGHT_ANGLE_CHAIN",
    "KIND_DOUBLE_CHAIN",
    "KIND_WULFF_SQUARE",
    "KIND_UNCLASSIFIED",
    "make_stationary_square_aniso",
    "classify_stationary_square",
    "translation_check",
    "make_translating_square_aniso",
    "make_nontranslating_two_rectangles",
    "convergence_monitor",
]

KIND_STAIRCASE = "staircase"
KIND_RIGHT_ANGLE_CHAIN = "right-angle-chain"
KIND_DOUBLE_CHAIN = "double-right-angle-chain"
KIND_WULFF_SQUARE = "wulff-square"
KIND_UNCLASSIFIED = "unclassified"

STATIONARY_KINDS = (KIND_STAIRCASE, KIND_RIGHT_ANGLE_CHAIN, KIND_DOUBLE_CHAIN,
                    KIND_WULFF_SQUARE)


@dataclass(frozen=True)
class StationaryClass:
    kind: str
    closed: bool = False
    m: int | None = None
    a: float | None = None
    b: float | None = None


@dataclass(frozen=True)
class TranslationReport:
    eta: tuple
    velocity: float
    residual: float
    accepted: bool


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    status: str
    limit: AdmissibleCurve | None
    residual: float | None
    stationary: bool
    generalized: bool
    classification: StationaryClass | None


# -------------------------------------------------------------- stationarity

# square facet order produced by square_anisotropy():
#   0: +e1 (right), 1: -e2 (bottom), 2: -e1 (left), 3: +e2 (top)
def _steps_to_facets(s, f0=3):
    return np.concatenate([[f0], f0 + np.cumsum(s, dtype=int)]) % 4


def _assemble(a, facets, lens, closed):
    """Build a curve from per-segment facets and lengths (inf on half-lines),
    starting at the origin."""
    taus = a.tangents[np.asarray(facets, dtype=int)]
    steps = lens[:, None] * taus if closed else lens[1:-1, None] * taus[1:-1]
    pts = np.cumsum(np.concatenate([np.zeros((1, 2)), steps]), axis=0)
    if closed:
        defect = pts[-1]
        if np.linalg.norm(defect) > 1e-9 * max(np.sum(lens), 1.0):
            raise InvalidClassParams(f"chain does not close (defect {defect})")
        return build_curve(a, pts[:-1], "closed")
    rays = np.array([-taus[0], taus[-1]])
    return build_curve(a, pts, "unbounded", ray_directions=rays)


def _default_free(count, scale, m):
    return [scale * (1.0 + (i + 1) / (4.0 * max(m, 1))) for i in range(count)]


def _free_lengths(given, defaults, owner):
    """The free lengths of ``owner``: ``given``, or ``defaults`` when it is
    None; as many as the defaults and all positive."""
    free = list(defaults if given is None else given)
    if len(free) != len(defaults):
        raise InvalidClassParams(f"{owner} takes {len(defaults)} lengths")
    if not all(v > 0.0 for v in free):  # also fails on a NaN
        raise InvalidClassParams("free lengths must be positive")
    return free


# chain kind -> (period p, default connector length in units of sqrt(2*alpha))
_CHAINS = {KIND_RIGHT_ANGLE_CHAIN: (3, 2.5), KIND_DOUBLE_CHAIN: (4, 2.0)}


def _chain_facets(period, m, closed):
    """Facets of the chain of m (open) or 2m (closed) blocks of ``period``
    segments, a connector followed by period - 1 curved sides.  The step at
    corner k is sigma[(k - 1) // period], sigma alternating in sign from block
    to block; an open chain ends in a half-line after its last block."""
    blocks = 2 * m if closed else m
    n = period * blocks + (0 if closed else 1)
    sigma = np.resize([1, -1], blocks)
    return _steps_to_facets(np.repeat(sigma, period)[:n - 1])


def _chain_transitions(period, m, closed):
    """Transition numbers of the chain that _chain_facets describes."""
    normals = square_anisotropy().normals[_chain_facets(period, m, closed)]
    return corner_data(normals, closed)[2]


def _fill_closing_connectors(lens, taus, groups, connectors, m):
    """Assign connector lengths for a closed chain.

    ``groups`` lists the connector slots on each facet, in segment order;
    ``lens`` is zero there.  The connectors of a group share a tangent, so
    closure fixes each group's total; all but the last connector of each
    group are free.  ``connectors`` lists the free values in segment order.
    The defaults spread the group mean linearly, by less than 5% either way,
    over the free slots, and the last connector takes up the rest of the
    total.  With defaults that rest is the group mean, up to rounding, and
    so is the middle default of an even-sized group; default connectors
    repeat values (the closed right-angle chain at m = 512 gives its 1024
    connectors 512 distinct values, both groups having one mean).
    """
    fixed = np.cumsum(lens[:, None] * taus, axis=0)[-1]
    totals = [-float(fixed @ taus[group[0]]) for group in groups]
    if min(totals) <= 0.0:  # pragma: no cover - sides always leave room
        raise InvalidClassParams("sides leave no room for connectors")
    free_slots = np.sort(np.concatenate([group[:-1] for group in groups]))
    defaults = {}
    for group, total in zip(groups, totals):
        mean = total / len(group)
        for pos, slot in enumerate(group[:-1]):
            defaults[slot] = mean * (1.0 + 0.1 * ((pos + 1.0) / len(group) - 0.5))
    lens[free_slots] = _free_lengths(
        connectors, [defaults[slot] for slot in free_slots],
        f"closed chain m={m}")
    for group, total in zip(groups, totals):
        val = total - float(np.sum(lens[group[:-1]]))
        if val <= 0.0:
            raise InvalidClassParams(
                "free connectors leave no room to close the chain")
        lens[group[-1]] = val


def _double_chain_sides(klass, alpha, q):
    """The curved sides (a, b) of an open double chain, one of them solved
    from 1/a^2 + 1/b^2 = 1/(2*alpha)."""
    aa, bb = klass.a, klass.b
    if aa is None and bb is None:
        aa = 1.35 * q
    if aa is not None:
        if aa <= q:
            raise InvalidClassParams("need a > sqrt(2*alpha)")
        bb_solved = 1.0 / np.sqrt(1.0 / (2.0 * alpha) - 1.0 / aa**2)
        if bb is not None and abs(bb - bb_solved) > 1e-9 * bb_solved:
            raise InvalidClassParams(
                "lengths a, b must satisfy 1/a^2 + 1/b^2 = 1/(2*alpha)")
        return aa, bb_solved
    if bb <= q:
        raise InvalidClassParams("need b > sqrt(2*alpha)")
    return 1.0 / np.sqrt(1.0 / (2.0 * alpha) - 1.0 / bb**2), bb


def make_stationary_square_aniso(klass: StationaryClass, alpha: float,
                                 connectors=None) -> AdmissibleCurve:
    """Construct an exact member of a stationary family (square anisotropy).

    ``connectors`` overrides the free connector lengths where the family has
    them; closed chains solve their closure constraints for the last
    connector on each facet.
    """
    if not (alpha > 0.0):  # refuses a NaN alpha too
        raise InvalidClassParams("alpha must be positive")
    a = square_anisotropy()
    q = np.sqrt(2.0 * alpha)
    kind = klass.kind

    if kind == KIND_WULFF_SQUARE:
        r = np.sqrt(alpha)
        return build_curve(a, [(-r, r), (r, r), (r, -r), (-r, -r)], "closed")

    if kind == KIND_STAIRCASE:
        if klass.closed:
            raise InvalidClassParams("a staircase cannot close up")
        n = klass.m if klass.m is not None else 7
        if n < 2:
            raise InvalidClassParams("staircase needs at least 2 segments")
        lens = np.full(n, np.inf)
        lens[1:-1] = _free_lengths(connectors, _default_free(n - 2, 1.5 * q, n),
                                   f"staircase with {n} segments")
        s = [(-1) ** k for k in range(1, n)]  # alternating turns, all c = 0
        return _assemble(a, _steps_to_facets(s), lens, closed=False)

    if kind not in _CHAINS:
        raise InvalidClassParams(f"unknown stationary kind {kind!r}")
    period, scale = _CHAINS[kind]
    m = klass.m
    if m is None or m < 1:
        raise InvalidClassParams(f"{kind} needs m >= 1")
    # curved sides of the even and odd blocks
    if kind == KIND_RIGHT_ANGLE_CHAIN:
        sides = [(q, q), (q, q)]
    elif klass.closed:  # closure forces a = b = sqrt(4*alpha)
        side = np.sqrt(4.0 * alpha)
        for val, name in ((klass.a, "a"), (klass.b, "b")):
            if val is not None and abs(val - side) > 1e-9 * side:
                raise InvalidClassParams(
                    f"closed double chain forces {name} = sqrt(4*alpha)")
        sides = [(side, q, side), (side, q, side)]
    else:
        aa, bb = _double_chain_sides(klass, alpha, q)
        sides = [(aa, q, bb), (bb, q, aa)]
    facets = _chain_facets(period, m, klass.closed)
    blocks = np.zeros((2 * m if klass.closed else m, period))
    blocks[:, 1:] = np.array(sides)[np.arange(len(blocks)) % 2]
    lens = blocks.ravel()
    if klass.closed:
        conn = np.arange(0, len(lens), period)
        groups = [conn[facets[conn] == f] for f in sorted(set(facets[conn]))]
        _fill_closing_connectors(lens, a.tangents[facets], groups,
                                 connectors, m)
        return _assemble(a, facets, lens, closed=True)
    lens = np.append(lens, np.inf)
    lens[0] = np.inf
    lens[period:-1:period] = _free_lengths(
        connectors, _default_free(m - 1, scale * q, m), f"open chain m={m}")
    return _assemble(a, facets, lens, closed=False)


# --------------------------------------------------------------- classifier

def _symmetries(c, lens, closed):
    """The transition word c and its reversal -c[::-1], each under every
    index rotation when the curve is closed and with its lengths when it is
    open (None when closed), yielded one at a time so that a match ends the
    search."""
    for word, ll in ((c, lens), (-c[::-1], lens[::-1])):
        if closed:
            yield from ((np.roll(word, -r), None) for r in range(len(word)))
        else:
            yield word, ll


def classify_stationary_square(curve: AdmissibleCurve, alpha: float,
                               tol: float = 1e-8) -> StationaryClass:
    """Match a stationary curve against the known square-anisotropy families."""
    if not is_square_anisotropy(curve.anisotropy):
        raise InvalidClassParams(
            "this operation requires the square anisotropy [-1, 1]^2")
    res = stationarity_residual(curve, FlowParams(alpha=alpha))
    if not (res <= tol):  # fails on a NaN tol or residual
        raise NotStationary(
            f"stationarity residual {res:.3e} exceeds tolerance {tol:.1e}")
    return _match_family(curve, alpha)


def _match_family(curve: AdmissibleCurve, alpha: float) -> StationaryClass:
    """The family of a square-anisotropy curve, read from its transition
    numbers alone; the caller has checked the anisotropy and stationarity."""
    c = curve.transitions.astype(int)
    n, closed = curve.n, curve.closed
    if closed and (np.all(c == 1) or np.all(c == -1)):
        return StationaryClass(KIND_WULFF_SQUARE, closed=True)
    if not closed and np.all(c == 0):
        return StationaryClass(KIND_STAIRCASE, closed=False, m=n)
    for kind, (period, _) in _CHAINS.items():
        # n = 2m blocks of ``period`` when closed, m blocks and a half-line
        m, rest = divmod(n - (not closed), period * (1 + closed))
        if m < 1 or rest:
            continue
        pattern = _chain_transitions(period, m, closed)
        for word, lens in _symmetries(c, curve.lengths, closed):
            if not np.array_equal(word, pattern):
                continue
            if kind == KIND_RIGHT_ANGLE_CHAIN:
                return StationaryClass(kind, closed=closed, m=m)
            # closure forces a = b = sqrt(4*alpha); an open chain reads them
            a, b = ((float(np.sqrt(4.0 * alpha)),) * 2 if closed
                    else (float(lens[1]), float(lens[3])))
            return StationaryClass(kind, closed=closed, m=m, a=a, b=b)
    return StationaryClass(KIND_UNCLASSIFIED, closed=closed)


# -------------------------------------------------------------- translating

def translation_check(curve: AdmissibleCurve, p: FlowParams, eta,
                      tol: float = 1e-8) -> TranslationReport | None:
    """Fit a translation velocity to the initial height rates.

    Returns None for closed curves (bounded curves never translate).  For an
    unbounded curve whose half-lines are parallel to eta, returns a report
    with the best-fit lambda and the residual max_i |h_i' - lambda <eta, nu_i>|;
    ``accepted`` requires residual <= tol and lambda > 0.
    """
    if curve.closed:
        return None
    eta = np.asarray(eta, dtype=float)
    nrm = float(np.linalg.norm(eta))
    if not (0.0 < nrm < np.inf):  # also fails on a NaN component
        raise HalfLinesNotParallel("direction eta must be finite and nonzero")
    eta = eta / nrm
    for ray in curve.rays:
        if abs(ray[0] * eta[1] - ray[1] * eta[0]) > 1e-9:
            raise HalfLinesNotParallel(
                "half-lines are not parallel to the requested direction")

    state = FlowState(curve, np.zeros(curve.n), 0.0, 0)
    r = rhs(state, p)
    b = curve.bounded
    d = curve.normals @ eta
    denom = float(np.sum(d[b] ** 2))
    lam = float(np.sum(r[b] * d[b]) / denom) if denom > 0.0 else 0.0
    residual = float(np.max(np.abs(r[b] - lam * d[b]))) if np.any(b) else 0.0
    accepted = bool(residual <= tol and lam > 0.0)
    return TranslationReport(eta=(float(eta[0]), float(eta[1])),
                             velocity=lam, residual=residual, accepted=accepted)


def _single_step(alpha, q, lam):
    if lam is None or not (0.0 < lam < 2.0 / q):
        raise ParamOutOfRange(f"single-step needs 0 < lam < {2.0 / q:.6g}")
    l3 = np.sqrt(2.0 * alpha / (1.0 - lam * q / 2.0))
    l4 = (2.0 - lam * q) / lam
    return [0, 3, 2, 1, 2], [q, l3, l4], lam


def _convex_rectangle(alpha, q, aa):
    if aa is None or not (q < aa < np.sqrt(4.0 * alpha)):
        raise ParamOutOfRange(
            "convex-rectangle needs sqrt(2*alpha) < a < sqrt(4*alpha)")
    P = 1.0 - 2.0 * alpha / aa**2
    Q = 4.0 * alpha / aa**2 - 1.0
    lam = np.sqrt((1.0 / (2.0 * alpha))
                  / (1.0 / (4.0 * P**2) + 1.0 / (4.0 * Q**2)))
    l2 = 2.0 * P / lam
    l4 = 2.0 * Q / lam
    return [0, 3, 2, 1, 0, 3, 2], [l2, aa, l4, aa, l2], lam


def _pocket(alpha, q, aa, lam):
    if aa is None or aa <= 0.0:
        raise ParamOutOfRange("pocket needs a > 0")
    if lam is None or not (0.0 < lam < 2.0 / (aa + q)):
        raise ParamOutOfRange(f"pocket needs 0 < lam < {2.0 / (aa + q):.6g}")
    l3 = np.sqrt(4.0 * alpha / (lam * aa))
    rest = 2.0 - lam * q - lam * aa
    l5 = np.sqrt(4.0 * alpha / rest)
    l6 = rest / lam
    return [0, 3, 0, 1, 2, 3, 2], [aa, l3, q, l5, l6], lam


def _convex_chain(alpha, q, m, aa):
    if m is None or m < 1:
        raise ParamOutOfRange("convex-chain needs m >= 1")
    lo, hi = 1.0 / (2.0 * alpha), (m + 1.0) / (2.0 * m * alpha)
    if aa is None or not (lo < aa < hi):
        raise ParamOutOfRange(
            f"convex-chain m={m} needs a in ({lo:.6g}, {hi:.6g})")
    bb = m * aa / (m + 1.0)
    x = _convex_chain_inverse_squares(m, aa, bb)
    if np.any(x <= 0.0):
        raise ParamOutOfRange("leg lengths degenerate for this (m, a)")
    lam = np.sqrt(2.0 / (alpha * (1.0 / (2.0 * aa * alpha - 1.0) ** 2
                                  + 1.0 / (1.0 - 2.0 * bb * alpha) ** 2)))
    lens = np.empty(4 * m + 1)
    lens[1::2] = 1.0 / np.sqrt(x)  # legs
    lens[0::4] = 2.0 * (1.0 - 2.0 * bb * alpha) / lam  # outer horizontals
    lens[2::4] = 2.0 * (2.0 * aa * alpha - 1.0) / lam  # inner horizontals
    return [(-k) % 4 for k in range(4 * m + 3)], lens, lam


# translating kind -> (the parameters it takes, builder); a builder maps
# (alpha, sqrt(2*alpha), the parameters in that order, None where not given)
# to (facets, the bounded lengths between the two half-lines, velocity)
_TRANSLATING = {"single-step": (("lam",), _single_step),
                "convex-rectangle": (("a",), _convex_rectangle),
                "pocket": (("a", "lam"), _pocket),
                "convex-chain": (("m", "a"), _convex_chain)}
TRANSLATING_KINDS = tuple(_TRANSLATING)


def make_translating_square_aniso(kind: str, alpha: float, **params):
    """Build a translating profile (square anisotropy, direction e2).

    Returns (curve, lambda).  Kinds and parameters:

    * "single-step":       lam in (0, 2/sqrt(2*alpha))
    * "convex-rectangle":  a in (sqrt(2*alpha), sqrt(4*alpha))
    * "pocket":            a > 0 and lam in (0, 2/(a + sqrt(2*alpha)))
    * "convex-chain":      m >= 1 and 1/(2*alpha) < a < (m+1)/(2*m*alpha),
                           where a is the shared sum 1/l_i^2 + 1/l_{i+2}^2
                           over consecutive leg pairs
    """
    if not (alpha > 0.0):  # refuses a NaN alpha too
        raise ParamOutOfRange("alpha must be positive")
    if kind not in _TRANSLATING:
        raise ParamOutOfRange(f"unknown translating kind {kind!r}; "
                              f"expected one of {TRANSLATING_KINDS}")
    names, build = _TRANSLATING[kind]
    extra = sorted(set(params) - set(names))
    if extra:
        raise ParamOutOfRange(f"unexpected parameters: {extra}")
    facets, bounded, lam = build(alpha, np.sqrt(2.0 * alpha),
                                 *(params.get(k) for k in names))
    lens = np.concatenate([[np.inf], bounded, [np.inf]])
    return _assemble(square_anisotropy(), facets, lens, closed=False), float(lam)


def _convex_chain_inverse_squares(m: int, a: float, b: float) -> np.ndarray:
    """Inverse squared leg lengths x_j = 1/l^2 for the 2m legs of the
    convex chain, in traversal order: x_2i + x_2i+1 = a, x_2i+1 + x_2i+2 = b,
    and the chain is symmetric, x_j = x_2m-1-j."""
    i = np.arange(m)
    x = np.empty(2 * m)
    x[0::2] = (m / 2 - i) * a - ((m - 1) / 2 - i) * b
    x[1::2] = (i + 1 - m / 2) * a - (i - (m - 1) / 2) * b
    return x


def make_nontranslating_two_rectangles(alpha: float) -> AdmissibleCurve:
    """Admissible two-rectangle profile with vertical half-lines that looks
    like a translating candidate but is rejected for every velocity (one of
    its perpendicular segments cannot have zero rate)."""
    if not (alpha > 0.0):  # refuses a NaN alpha too
        raise ParamOutOfRange("alpha must be positive")
    a4 = square_anisotropy()
    q = np.sqrt(2.0 * alpha)
    s = [-1, 1, 1, 1, 1, -1, -1, -1, -1, -1]
    facets = _steps_to_facets(s, f0=0)
    lens = np.full(11, np.inf)
    lens[1:-1] = [1.3 * q, q, 1.1 * q, q, 1.6 * q, 1.2 * q, q, 1.4 * q, q]
    return _assemble(a4, facets, lens, closed=False)


# -------------------------------------------------------------- convergence

def convergence_monitor(traj: Trajectory) -> ConvergenceReport:
    """Post-hoc diagnosis of a finished trajectory from one rebuild of its
    final curve (no limit when a segment collapsed) and one stationarity
    residual; a stationary limit under the square anisotropy gets its family."""
    opts = traj.options
    converged = traj.status == STATUS_CONVERGED
    state = traj.final_state
    if state is None:
        return ConvergenceReport(False, traj.status, None, None, False, False, None)
    try:
        limit = reconstruct_parallel(state.reference, state.h)
    except SegmentCollapse:
        # heights settled onto a curve with a (numerically) vanished segment
        return ConvergenceReport(converged, traj.status, None, None, False,
                                 converged, None)
    residual = stationarity_residual(limit, traj.params)
    lens = limit.lengths[limit.bounded]
    thr = max(float(opts.vanish_fraction), 1e-6)
    tiny = len(lens) > 0 and bool(np.any(lens <= thr * lens.max()))
    stationary = converged and residual <= 10.0 * opts.stationarity_tol
    generalized = converged and not stationary and tiny
    classification = (_match_family(limit, traj.params.alpha)
                      if stationary and is_square_anisotropy(limit.anisotropy)
                      else None)
    return ConvergenceReport(converged, traj.status, limit, residual,
                             stationary, generalized, classification)
