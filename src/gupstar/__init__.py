"""Phase-space quantum mechanics with a minimal position uncertainty.

The deformation replaces ordinary momentum addition by a circle group law;
everything downstream (quadrature, transforms, the integral star product, the
momentum-space operator picture and the localization states) lives on the
resulting angle grid.  See the README for the layout and entry points.
"""

from .beta_arith import INFINITY, BetaContext
from .sampling import LatticeField, TorusField, Wavefunction

__all__ = [
    "BetaContext",
    "INFINITY",
    "Wavefunction",
    "TorusField",
    "LatticeField",
]

__version__ = "0.1.0"
