from fractions import Fraction

import numpy as np
import pytest

from crystalflow import (
    AdmissibleCurve,
    FlowParams,
    build_curve,
    build_wulff,
    lengths_from_heights,
    regular_polygon_anisotropy,
    square_anisotropy,
)
from crystalflow import flow
from crystalflow.curve import corner_stencil


@pytest.fixture(scope="session")
def a4():
    return square_anisotropy()


@pytest.fixture(scope="session")
def a6():
    return regular_polygon_anisotropy(6)


@pytest.fixture()
def p1():
    return FlowParams(alpha=1.0)


@pytest.fixture()
def rect(a4):
    # convex, admissible, not a Wulff square (unequal sides)
    return build_curve(a4, [(-1.8, 1.2), (1.8, 1.2), (1.8, -1.2), (-1.8, -1.2)],
                       "closed")


@pytest.fixture()
def lshape(a4):
    # nonconvex closed hexagonal curve (one concave corner)
    return build_curve(a4, [(0, 0), (4, 0), (4, 2), (2, 2), (2, 6), (0, 6)],
                       "closed")


def wulff_curve(a, scale=1.0):
    return build_curve(a, scale * np.asarray(a.vertices), "closed")


@pytest.fixture()
def wulff2(a4):
    return wulff_curve(a4, 2.0)


PENTAGON = [(2, 0.5), (1, -1), (-1.5, -1.2), (-1.8, 0.7), (0.2, 1.6)]
PENTAGON_SCALE = 1.3


def pentagon_curve():
    """The scaled Wulff pentagon of an irregular anisotropy, listed from its
    third vertex so that segment i does not lie on facet i."""
    a = build_wulff(PENTAGON)
    return build_curve(a, PENTAGON_SCALE * np.roll(a.vertices, -2, axis=0),
                       "closed")


def octagon_curve(a6):
    """A closed, non-convex 8-gon on the regular-hexagon anisotropy."""
    r3 = np.sqrt(3)
    return build_curve(a6, [(0, 0), (2, 0), (3, -r3), (2, -2 * r3), (1, -2 * r3),
                            (0.5, -1.5 * r3), (-0.5, -1.5 * r3), (-1, -r3)],
                       "closed")


def series_lengths(ref, s):
    """Segment lengths of each row of an epoch's series, from its heights."""
    return np.array([lengths_from_heights(ref, h) for h in s.h])


# gamma_3 = 3u / (1 - 3u), u = 2^-53: three products summed in any order
# carry at most gamma_3 sum |x_k y_k| of error (Higham, Accuracy and
# Stability of Numerical Algorithms, 3.1)
_U3 = Fraction(3, 2**53)
GAMMA3 = _U3 / (1 - _U3)


def assert_stencil_product(curve, x, got, scale=1.0):
    """``got`` is ``curve.stencil(x, scale)``.  One row of a curve that
    takes the dense product (at most ``curve._DENSE_MAX_N`` segments) adds
    its other terms as exact zeros, so each entry lies within
    gamma_3 (|S| |x|)_i of the exact (S x)_i, computed in fractions.  Any
    other x, an (m, n) block or a longer row, has the row formula's bits
    (``corner_stencil``) in each row."""
    dense_row = curve._dense and np.ndim(x) == 1
    x, got = np.atleast_2d(x), np.atleast_2d(got)
    assert got.shape == x.shape
    if not dense_row:
        want = [corner_stencil(row, scale * curve.csc, scale * curve.cot_sum)
                for row in x]
        assert got.tobytes() == np.array(want).tobytes()
        return
    coeffs = scale * np.stack([curve.csc[:-1], curve.cot_sum, curve.csc[1:]])
    n = curve.n
    for i, out in enumerate(got[0].tolist()):
        terms = [Fraction(x[0, (i + d) % n]) * Fraction(c)
                 for d, c in zip((-1, 0, 1), coeffs[:, i].tolist())]
        assert (abs(Fraction(out) - sum(terms))
                <= GAMMA3 * sum(map(abs, terms))), (i, out)


@pytest.fixture()
def block_stencils(monkeypatch):
    """(curve, x, scale, S x) of every ``AdmissibleCurve.stencil`` call on an
    (m, n) block made inside ``_OpenEpoch.freeze``, in order."""
    calls, inside = [], []
    stencil, freeze = AdmissibleCurve.stencil, flow._OpenEpoch.freeze

    def spy(self, x, scale=1.0):
        out = stencil(self, x, scale)
        if inside and np.ndim(x) == 2:
            calls.append((self, x.copy(), scale, out))
        return out

    def frozen(self):
        inside.append(True)
        try:
            return freeze(self)
        finally:
            inside.pop()

    monkeypatch.setattr(AdmissibleCurve, "stencil", spy)
    monkeypatch.setattr(flow._OpenEpoch, "freeze", frozen)
    return calls
