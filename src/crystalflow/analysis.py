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

from .anisotropy import Anisotropy, is_square_anisotropy, square_anisotropy
from .curve import (
    AdmissibleCurve,
    build_curve,
    corner_data,
    lengths_from_heights,
    reconstruct_parallel,
)
from .energy import FlowParams, first_variation
from .errors import (
    HalfLinesNotParallel,
    InvalidClassParams,
    NotStationary,
    ParamOutOfRange,
    SegmentCollapse,
)
from .flow import FlowState, IntegratorOptions, Trajectory, rhs

__all__ = [
    "StationaryClass",
    "TranslationReport",
    "ConvergenceReport",
    "KIND_STAIRCASE",
    "KIND_RIGHT_ANGLE_CHAIN",
    "KIND_DOUBLE_CHAIN",
    "KIND_WULFF_SQUARE",
    "KIND_UNCLASSIFIED",
    "stationarity_residual",
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

TRANSLATING_KINDS = ("single-step", "convex-rectangle", "pocket", "convex-chain")


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

def stationarity_residual(curve: AdmissibleCurve, p: FlowParams) -> float:
    """max_i |c_i H^1(F_i) + alpha * (neighbor curvature terms)| over bounded
    segments, i.e. the per-segment defect of the stationarity system."""
    g = first_variation(curve, p)
    b = curve.bounded
    if not np.any(b):
        return 0.0
    return float(np.max(np.abs(g[b] * curve.lengths[b])))


def _require_square(a: Anisotropy):
    if not is_square_anisotropy(a):
        raise InvalidClassParams(
            "this operation requires the square anisotropy [-1, 1]^2")


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
    group are free.  ``connectors`` lists the free values in segment order;
    defaults spread each group total with a mild variation so no two are
    equal.
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
    free = ([defaults[slot] for slot in free_slots]
            if connectors is None else list(connectors))
    if len(free) != len(free_slots):
        raise InvalidClassParams(
            f"closed chain m={m} takes {len(free_slots)} free connectors")
    if any(v <= 0.0 for v in free):
        raise InvalidClassParams("connector lengths must be positive")
    lens[free_slots] = free
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
    if alpha <= 0.0:
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
        if connectors is not None:
            if len(connectors) != n - 2:
                raise InvalidClassParams(
                    f"staircase with {n} segments takes {n - 2} lengths")
            lens[1:-1] = connectors
        else:
            lens[1:-1] = _default_free(n - 2, 1.5 * q, n)
        if np.any(lens[1:-1] <= 0.0):
            raise InvalidClassParams("staircase lengths must be positive")
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
    free = (_default_free(m - 1, scale * q, m)
            if connectors is None else list(connectors))
    if len(free) != m - 1:
        raise InvalidClassParams(f"open chain m={m} takes {m - 1} connectors")
    if any(v <= 0.0 for v in free):
        raise InvalidClassParams("connector lengths must be positive")
    lens[period:-1:period] = free
    return _assemble(a, facets, lens, closed=False)


# --------------------------------------------------------------- classifier

def _rotations(c):
    """c and its reversal -c[::-1] under every index rotation, yielded one at
    a time so that a match ends the search."""
    for base in (c, -c[::-1]):
        for r in range(len(base)):
            yield np.roll(base, -r)


def classify_stationary_square(curve: AdmissibleCurve, alpha: float,
                               tol: float = 1e-8) -> StationaryClass:
    """Match a stationary curve against the known square-anisotropy families."""
    _require_square(curve.anisotropy)
    p = FlowParams(alpha=alpha)
    res = stationarity_residual(curve, p)
    if res > tol:
        raise NotStationary(
            f"stationarity residual {res:.3e} exceeds tolerance {tol:.1e}")

    c = curve.transitions.astype(int)
    L = np.array(curve.lengths)
    n = curve.n

    if curve.closed:
        if np.all(c == 1) or np.all(c == -1):
            return StationaryClass(KIND_WULFF_SQUARE, closed=True)
        side = float(np.sqrt(4.0 * alpha))
        for period, klass in (
                (3, StationaryClass(KIND_RIGHT_ANGLE_CHAIN, closed=True, m=n // 6)),
                (4, StationaryClass(KIND_DOUBLE_CHAIN, closed=True, m=n // 8,
                                    a=side, b=side))):
            if n % (2 * period) == 0:
                pattern = _chain_transitions(period, klass.m, closed=True)
                if any(np.array_equal(cc, pattern) for cc in _rotations(c)):
                    return klass
        return StationaryClass(KIND_UNCLASSIFIED, closed=True)

    if np.all(c == 0):
        return StationaryClass(KIND_STAIRCASE, closed=False, m=n)
    right = (_chain_transitions(3, (n - 1) // 3, closed=False)
             if n >= 4 and (n - 1) % 3 == 0 else None)
    double = (_chain_transitions(4, (n - 1) // 4, closed=False)
              if n >= 5 and (n - 1) % 4 == 0 else None)
    for cc, ll in ((c, L), (-c[::-1], L[::-1])):
        if right is not None and np.array_equal(cc, right):
            return StationaryClass(KIND_RIGHT_ANGLE_CHAIN, closed=False,
                                   m=(n - 1) // 3)
        if double is not None and np.array_equal(cc, double):
            return StationaryClass(KIND_DOUBLE_CHAIN, closed=False,
                                   m=(n - 1) // 4,
                                   a=float(ll[1]), b=float(ll[3]))
    return StationaryClass(KIND_UNCLASSIFIED, closed=False)


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
    if nrm == 0.0:
        raise HalfLinesNotParallel("direction eta must be nonzero")
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
    if alpha <= 0.0:
        raise ParamOutOfRange("alpha must be positive")
    a4 = square_anisotropy()
    q = np.sqrt(2.0 * alpha)

    if kind == "single-step":
        lam = params.pop("lam", None)
        _no_extra(params)
        if lam is None or not (0.0 < lam < 2.0 / q):
            raise ParamOutOfRange(f"single-step needs 0 < lam < {2.0 / q:.6g}")
        l3 = np.sqrt(2.0 * alpha / (1.0 - lam * q / 2.0))
        l4 = (2.0 - lam * q) / lam
        lens = np.array([np.inf, q, l3, l4, np.inf])
        facets = [0, 3, 2, 1, 2]
        return _assemble(a4, facets, lens, closed=False), float(lam)

    if kind == "convex-rectangle":
        aa = params.pop("a", None)
        _no_extra(params)
        if aa is None or not (q < aa < np.sqrt(4.0 * alpha)):
            raise ParamOutOfRange(
                "convex-rectangle needs sqrt(2*alpha) < a < sqrt(4*alpha)")
        P = 1.0 - 2.0 * alpha / aa**2
        Q = 4.0 * alpha / aa**2 - 1.0
        lam = np.sqrt((1.0 / (2.0 * alpha))
                      / (1.0 / (4.0 * P**2) + 1.0 / (4.0 * Q**2)))
        l2 = 2.0 * P / lam
        l4 = 2.0 * Q / lam
        lens = np.array([np.inf, l2, aa, l4, aa, l2, np.inf])
        facets = [0, 3, 2, 1, 0, 3, 2]
        return _assemble(a4, facets, lens, closed=False), float(lam)

    if kind == "pocket":
        aa = params.pop("a", None)
        lam = params.pop("lam", None)
        _no_extra(params)
        if aa is None or aa <= 0.0:
            raise ParamOutOfRange("pocket needs a > 0")
        if lam is None or not (0.0 < lam < 2.0 / (aa + q)):
            raise ParamOutOfRange(f"pocket needs 0 < lam < {2.0 / (aa + q):.6g}")
        l3 = np.sqrt(4.0 * alpha / (lam * aa))
        rest = 2.0 - lam * q - lam * aa
        l5 = np.sqrt(4.0 * alpha / rest)
        l6 = rest / lam
        lens = np.array([np.inf, aa, l3, q, l5, l6, np.inf])
        facets = [0, 3, 0, 1, 2, 3, 2]
        return _assemble(a4, facets, lens, closed=False), float(lam)

    if kind == "convex-chain":
        m = params.pop("m", None)
        aa = params.pop("a", None)
        _no_extra(params)
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
        l_out = 2.0 * (1.0 - 2.0 * bb * alpha) / lam   # horizontals, j % 4 == 1
        l_in = 2.0 * (2.0 * aa * alpha - 1.0) / lam    # horizontals, j % 4 == 3
        n = 4 * m + 3
        lens = np.full(n, np.inf)
        for j in range(1, n - 1):
            if j % 2 == 0:
                lens[j] = 1.0 / np.sqrt(x[(j + 1 - 3) // 2])  # legs
            else:
                lens[j] = l_out if j % 4 == 1 else l_in
        facets = [(-k) % 4 for k in range(n)]
        return _assemble(a4, facets, lens, closed=False), float(lam)

    raise ParamOutOfRange(f"unknown translating kind {kind!r}; "
                          f"expected one of {TRANSLATING_KINDS}")


def _no_extra(params):
    if params:
        raise ParamOutOfRange(f"unexpected parameters: {sorted(params)}")


def _convex_chain_inverse_squares(m: int, a: float, b: float) -> np.ndarray:
    """Inverse squared leg lengths x_j = 1/l^2 for the 2m legs of the
    convex chain, in traversal order."""
    x = np.zeros(2 * m)  # slot j holds the leg that is (2j + 2) segments in

    def put(pos, val):
        # pos is the odd 1-based position of the leg along the chain
        x[(pos - 3) // 2] = val

    if m % 2 == 0:
        k = m // 2
        for i in range(0, k + 1):
            val = (k - i) * a - (2 * k - 2 * i - 1) / 2.0 * b
            put(3 + 4 * i, val)
            put(8 * k - 4 * i + 1, val)
        for i in range(1, k + 1):
            val = (2 * k - 2 * i + 1) / 2.0 * b - (k - i) * a
            put(1 + 4 * i, val)
            put(8 * k - 4 * i + 3, val)
    else:
        k = (m - 1) // 2
        for i in range(0, k + 1):
            val = (2 * k - 2 * i + 1) / 2.0 * a - (k - i) * b
            put(3 + 4 * i, val)
            put(8 * k - 4 * i + 5, val)
        for i in range(0, k + 1):
            val = (k - i) * b - (2 * k - 2 * i - 1) / 2.0 * a
            put(5 + 4 * i, val)
            put(8 * k - 4 * i + 3, val)
    return x


def make_nontranslating_two_rectangles(alpha: float) -> AdmissibleCurve:
    """Admissible two-rectangle profile with vertical half-lines that looks
    like a translating candidate but is rejected for every velocity (one of
    its perpendicular segments cannot have zero rate)."""
    if alpha <= 0.0:
        raise ParamOutOfRange("alpha must be positive")
    a4 = square_anisotropy()
    q = np.sqrt(2.0 * alpha)
    s = [-1, 1, 1, 1, 1, -1, -1, -1, -1, -1]
    facets = _steps_to_facets(s, f0=0)
    lens = np.full(11, np.inf)
    lens[1:-1] = [1.3 * q, q, 1.1 * q, q, 1.6 * q, 1.2 * q, q, 1.4 * q, q]
    return _assemble(a4, facets, lens, closed=False)


# -------------------------------------------------------------- convergence

def convergence_monitor(traj: Trajectory,
                        opts: IntegratorOptions | None = None) -> ConvergenceReport:
    """Post-hoc convergence diagnosis of a finished trajectory: materialize
    the final curve, measure its stationarity residual, and classify it when
    the anisotropy is the square."""
    if opts is None:
        opts = traj.options
    converged = traj.status == "Converged"
    state = traj.final_state
    if state is None:
        return ConvergenceReport(False, traj.status, None, None, False, False, None)

    limit = None
    residual = None
    stationary = False
    generalized = False
    try:
        limit = reconstruct_parallel(state.reference, state.h)
    except SegmentCollapse:
        # heights settled onto a curve with a (numerically) vanished segment
        generalized = converged
    if limit is not None:
        residual = stationarity_residual(limit, traj.params)
        lens = lengths_from_heights(state.reference, state.h)
        b = state.reference.bounded
        thr = max(float(opts.vanish_fraction), 1e-6)
        tiny = bool(np.any(lens[b] <= thr * np.max(lens[b]))) if np.any(b) else False
        stationary = converged and residual <= 10.0 * opts.stationarity_tol
        generalized = converged and not stationary and tiny

    classification = None
    if limit is not None and stationary:
        try:
            classification = classify_stationary_square(
                limit, traj.params.alpha, tol=max(100.0 * opts.stationarity_tol, 1e-6))
        except (InvalidClassParams, NotStationary):
            classification = None
    return ConvergenceReport(converged, traj.status, limit, residual,
                             stationary, generalized, classification)
