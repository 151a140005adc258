import numpy as np
import pytest

from crystalflow import (
    FlowParams,
    build_curve,
    build_wulff,
    lengths_from_heights,
    regular_polygon_anisotropy,
    square_anisotropy,
)


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

