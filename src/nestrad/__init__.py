"""Elementary functions from one doubled-angle polynomial and its radical inverse.

cos and cosh come from iterating -1 + 2*y**2 on a short series seed, the
sine doubled beside them (sin, tan, exp and hyperbolic twins); acos and
acosh run the chain backwards as nested square roots.  Sign choices on the
radicals, ordered by a Gray code, select every other branch of the
inverses, and asin, atan, log and kin reduce to those radical towers.
Closed-form oracles and a CLI round it out.  An import loads core and
verify; exact rational expansion (expand, with fractions) loads on first use.
"""

from . import core, verify
from .core import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"
_EXPAND = ("EXPANSION_DEPTH_CAP", "RationalPoly", "expand_nested_cos",
           "maclaurin_error_profile")  # expand.__all__, pinned by test_package
__all__ = [*core.__all__, *_EXPAND, *verify.__all__]


def __getattr__(name: str) -> object:
    # PEP 562: reached only for names not in the module dict, so an expand
    # name costs this call once; setdefault binds it for every later read.
    if name in _EXPAND:
        from . import expand
        return globals().setdefault(name, getattr(expand, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
