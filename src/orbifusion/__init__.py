"""Exact representation data of the Z3-orbifold affine sl2 VOA at level k.

The package materializes, in exact arithmetic, the full module catalog of
the orbifold algebra: labels, conformal weights, quantum dimensions, fusion
products and contragredients — together with verification suites that check
every identity the data is supposed to satisfy.

Each submodule's ``__all__`` is the one list of its public names: the
package exports all of them, except ``verify.SUITES``, and ``__version__``.
"""

from . import labels, weights, chebyshev, qdim, fusion
from .labels import *
from .weights import *
from .chebyshev import *
from .qdim import *
from .fusion import *
from .verify import Failure, VerificationReport, run_suites

__version__ = "0.1.0"

__all__ = [name for module in (labels, weights, chebyshev, qdim, fusion) for name in module.__all__]
__all__ += ["Failure", "VerificationReport", "run_suites", "__version__"]
