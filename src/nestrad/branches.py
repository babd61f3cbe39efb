"""Non-principal inverse branches via sign choices on the radical tower.

Flipping the sign of the iterate after radical step m (counting from the
innermost, m = 0) moves the final value between branches of the inverse.
Consecutive branch indices k differ in exactly one sign when the signs
are read off the binary reflected Gray code of k, which is what makes a
k-sweep numerically cheap: one flip per increment.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import (
    Scalar,
    _tower,
    acos_outer,
    acosh_outer,
    check_depth,
)

__all__ = [
    "gray_signs",
    "gray_adjacent_distance",
    "nested_acos_branch",
    "nested_acosh_branch",
    "extract_branch",
    "branch_oracle_acos",
]


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _check_index(k: int, width: int) -> None:
    if width < 1:
        raise ValueError(f"width must be a positive integer, got {width}")
    if not 0 <= k < 2 ** (width - 1):
        raise ValueError(
            f"branch index {k} out of range for width {width}; "
            f"need 0 <= k < {2 ** (width - 1)}")


def gray_signs(k: int, width: int) -> tuple[int, ...]:
    """Sign tuple (+1/-1) of branch k for a radical tower of the given width.

    Entry m applies after the m-th radical counting from the innermost.
    Bit m of the Gray code k ^ (k >> 1) set means entry m is -1.  The
    outermost slot is the leading Gray bit and stays +1 for every valid
    k, hence the bound k < 2**(width - 1).
    """
    _check_index(k, width)
    g = _gray(k)
    return tuple(-1 if (g >> m) & 1 else 1 for m in range(width))


def gray_adjacent_distance(k: int, width: int) -> int:
    """Number of sign slots that differ between branches k and k + 1."""
    _check_index(k, width)
    _check_index(k + 1, width)
    return (_gray(k) ^ _gray(k + 1)).bit_count()


def _branch(y: Scalar, k: int, depth: int, allow_deep: bool,
            outer: Callable[[Scalar], Scalar]) -> Scalar:
    check_depth(depth, allow_deep=allow_deep)
    if k >= 0:
        _check_index(k, depth)
        return _tower(y, depth, _gray(k), outer)
    if -k >= 2 ** (depth - 1):
        raise ValueError(
            f"branch index {k} out of range for depth {depth}; "
            f"need |k| < {2 ** (depth - 1)}")
    return -_tower(y, depth, _gray(-k - 1), outer)


def nested_acos_branch(y: Scalar, k: int, depth: int = 10, *,
                       allow_deep: bool = False) -> Scalar:
    """Branch k of the inverse cosine from the signed radical tower.

    k = 0 reproduces nested_acos.  Negative k mirrors through zero:
    branch -k of a value is minus branch k - 1, covering the branches
    below the principal one.
    """
    return _branch(y, k, depth, allow_deep, acos_outer)


def nested_acosh_branch(y: Scalar, k: int, depth: int = 10, *,
                        allow_deep: bool = False) -> Scalar:
    """Branch k of the inverse hyperbolic cosine; mirrors nested_acos_branch."""
    return _branch(y, k, depth, allow_deep, acosh_outer)


def extract_branch(x: Scalar) -> float:
    """Recover the continuous branch coordinate re(x)/pi - 1/2.

    Branch k of the inverse cosine of a real argument lands in
    (k*pi, (k+1)*pi), so rounding the returned value gives k back.
    """
    r = x.real if isinstance(x, complex) else float(x)
    return r / math.pi - 0.5


def branch_oracle_acos(y: float, k: int) -> float:
    """Closed-form branch k of acos on [-1, 1] for checking the tower.

    Even k adds k*pi to the principal value; odd k reflects it off the
    next multiple of pi.
    """
    if not -1.0 <= y <= 1.0:
        raise ValueError(f"oracle needs y in [-1, 1], got {y}")
    if k < 0:
        raise ValueError(f"oracle branch index must be >= 0, got {k}")
    x0 = math.acos(y)
    if k % 2 == 0:
        return k * math.pi + x0
    return (k + 1) * math.pi - x0
