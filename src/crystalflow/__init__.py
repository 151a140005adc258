"""Crystalline elastic flow of admissible polygonal curves in the plane.

The flow couples the crystalline curvature of a curve whose segments lie on
Wulff-shape facet directions with an elastic penalty of strength alpha; it
reduces to a system of ODEs for the facet heights.  This package builds the
curves, integrates the height system with event-driven restarts when a
zero-curvature segment vanishes, and verifies the known stationary and
translating solutions for the square anisotropy.
"""

from . import analysis, anisotropy, curve, energy, errors, flow
from .errors import *  # noqa: F401,F403
from .anisotropy import *  # noqa: F401,F403
from .curve import *  # noqa: F401,F403
from .energy import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .cli import main as cli_main

__version__ = "0.1.0"

# a name is public where its module lists it in __all__; every error derives
# from CrystalFlowError, so errors.py needs no list of its own
__all__ = [
    *anisotropy.__all__, *curve.__all__, *energy.__all__, *flow.__all__,
    *analysis.__all__, "cli_main",
    *(name for name, value in vars(errors).items()
      if isinstance(value, type) and issubclass(value, errors.CrystalFlowError)),
]
