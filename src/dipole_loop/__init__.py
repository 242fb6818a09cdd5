"""Numerical workbench for a relativistic two-state dipole field theory.

Layers: covariant model core (dipole tensor, contractions, power
counting), Jaynes-Cummings cavity dynamics, non-relativistic 4x4
reduction with a decoupling similarity transform, cutoff-regularized
one-loop integrals with quadrature oracles, and the renormalization
bookkeeping built on them. The `dipole-loop` console script exposes the
batch commands.
"""

from . import core, errors, jc, loops, nr, renorm, units
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .jc import *  # noqa: F401,F403
from .loops import *  # noqa: F401,F403
from .nr import *  # noqa: F401,F403
from .renorm import *  # noqa: F401,F403
from .units import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *errors.__all__,
    *jc.__all__,
    *loops.__all__,
    *nr.__all__,
    *renorm.__all__,
    *units.__all__,
    "__version__",
]
