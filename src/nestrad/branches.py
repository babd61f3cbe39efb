"""Non-principal inverse branches via sign choices on the radical tower.

Flipping the sign of the iterate after radical step m (counting from the
innermost, m = 0) moves the final value between branches of the inverse.
Consecutive branch indices k differ in exactly one sign when the signs
are read off the binary reflected Gray code of k.  A k-sweep does not
reuse one tower per flip, since the low Gray bits that flip most often
are the innermost radicals; instead branches that agree in their low
Gray bits share those inner radicals, and core._towers computes them
once for a whole batch of branches.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import (
    Scalar,
    _gray,
    _is_int,
    _real,
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


def _index_error(k: object, limit: str, bound: str) -> ValueError:
    # An index of the wrong type is out of range too; the message names it.
    need = bound if _is_int(k) else f"an int {bound}, got {type(k).__name__}"
    return ValueError(f"branch index {k!r} out of range for {limit}; need {need}")


def _check_index(k: int, width: int) -> None:
    if not _is_int(width) or width < 1:
        raise ValueError(f"width must be a positive integer, got {width}")
    if not _is_int(k) or not 0 <= k < 2 ** (width - 1):
        raise _index_error(k, f"width {width}", f"0 <= k < {2 ** (width - 1)}")


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


def _branch(y: Scalar, k: int, depth: int,
            outer: Callable[[Scalar], Scalar]) -> Scalar:
    check_depth(depth)
    half = 2 ** (depth - 1)
    if not _is_int(k) or not -half <= k < half:
        raise _index_error(k, f"depth {depth}", f"{-half} <= k < {half}")
    if k < 0:
        return -_tower(y, depth, _gray(-k - 1), outer)
    return _tower(y, depth, _gray(k), outer)


def nested_acos_branch(y: Scalar, k: int, depth: int = 10) -> Scalar:
    """Branch k of the inverse cosine from the signed radical tower.

    k = 0 reproduces nested_acos.  Negative k mirrors through zero:
    branch -k of a value is minus branch k - 1, covering the branches
    below the principal one, so -2**(depth-1) <= k < 2**(depth-1).
    """
    return _branch(y, k, depth, acos_outer)


def nested_acosh_branch(y: Scalar, k: int, depth: int = 10) -> Scalar:
    """Branch k of the inverse hyperbolic cosine; mirrors nested_acos_branch."""
    return _branch(y, k, depth, acosh_outer)


def extract_branch(x: Scalar) -> float:
    """Recover the continuous branch coordinate re(x)/pi - 1/2.

    Branch k of the inverse cosine of a real argument lands in
    (k*pi, (k+1)*pi), so rounding the returned value gives k back.
    """
    return _real(x) / math.pi - 0.5


def branch_oracle_acos(y: float, k: int) -> float:
    """Closed-form branch k of acos on [-1, 1] for checking the tower.

    Even k adds k*pi to the principal value; odd k reflects it off the
    next multiple of pi.
    """
    if not -1.0 <= y <= 1.0:
        raise ValueError(f"oracle needs y in [-1, 1], got {y}")
    if not _is_int(k) or k < 0:
        raise ValueError(f"oracle branch index must be >= 0, got {k}")
    return _reflect(math.acos(y), k)


def _reflect(x0: Scalar, k: int) -> Scalar:
    # Branch k from the principal value x0: even k adds k*pi, odd k
    # reflects off (k+1)*pi, and negative k is minus branch -k-1.
    if k < 0:
        return -_reflect(x0, -k - 1)
    if k % 2 == 0:
        return k * math.pi + x0
    return (k + 1) * math.pi - x0
