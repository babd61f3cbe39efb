"""Elementary functions from one doubled-angle polynomial and its radical inverse.

cos and cosh come from iterating -1 + 2*y**2 on a short series seed, the
sine doubled beside them (sin, tan, exp and hyperbolic twins); acos and
acosh run the chain backwards as nested square roots.  Sign choices on the
radicals, ordered by a Gray code, select every other branch of the
inverses, and asin, atan, log and kin reduce to those radical towers.
Exact rational expansion, closed-form oracles, and a CLI round it out.
"""

from . import core, expand, verify
from .core import *  # noqa: F401,F403
from .expand import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *expand.__all__, *verify.__all__]
