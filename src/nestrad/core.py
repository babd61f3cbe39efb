"""Half-angle recursion kernels: forward cos/cosh and their radical inverses.

The forward direction seeds a short even series at the reduced argument
x / 2**depth and doubles the angle ``depth`` times with the polynomial
-1 + 2*y**2.  The inverse direction runs the same chain backwards as a
tower of square roots and closes with sqrt(2*(1 -+ y)) scaled by 2**depth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "DEPTH_CAP",
    "EvalConfig",
    "DEFAULT_CONFIG",
    "Scalar",
    "principal_sqrt",
    "double_angle_step",
    "half_angle_step",
    "cos_seed",
    "cosh_seed",
    "acos_outer",
    "acosh_outer",
    "nested_cos",
    "nested_cosh",
    "nested_cos_sequence",
    "nested_cosh_sequence",
    "nested_acos",
    "nested_acosh",
    "nested_acos_sequence",
    "nested_acosh_sequence",
    "check_depth",
]

Scalar = float | complex

#: Beyond this depth the 2**n prefactor of the inverse chain amplifies the
#: quantization of iterates pinned against 1.0 faster than the 4**-n
#: truncation term shrinks, so double-precision results silently degrade.
DEPTH_CAP = 30

_EVEN_FACTORIALS = (1.0, 2.0, 24.0, 720.0)  # (2j)! for j = 0..3


def check_depth(depth: int, *, allow_deep: bool = False) -> None:
    """Validate a recursion depth against the precision guard.

    Any depth that is not an int, a bool included, is rejected like a
    nonpositive one rather than failing later inside a loop.
    """
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise ValueError(f"depth must be a positive integer, got {depth}")
    if depth > DEPTH_CAP and not allow_deep:
        raise ValueError(
            f"depth {depth} exceeds the cap of {DEPTH_CAP}; pass allow_deep=True "
            "if degraded precision is acceptable")


@dataclass(frozen=True)
class EvalConfig:
    """Settings for the forward recursions.

    depth       number of doubling steps, >= 1
    seed_order  number of series terms in the seed, 1..4
    allow_deep  lift the depth cap (precision degrades past it)
    """

    depth: int = 10
    seed_order: int = 2
    allow_deep: bool = False

    def __post_init__(self) -> None:
        check_depth(self.depth, allow_deep=self.allow_deep)
        if self.seed_order not in (1, 2, 3, 4):
            raise ValueError(f"seed_order must be in 1..4, got {self.seed_order}")


DEFAULT_CONFIG = EvalConfig()


def _is_finite(v: Scalar) -> bool:
    if isinstance(v, complex):
        return cmath.isfinite(v)
    return math.isfinite(v)


def principal_sqrt(z: Scalar) -> Scalar:
    """Principal square root with the branch cut on the negative real axis.

    Real input with a real root stays a float; a negative real input maps
    to +1j*sqrt(|z|) regardless of the sign of any attached zero imaginary
    part, so values that land exactly on the cut never drop to the lower
    sheet.  Other complex input goes through cmath.sqrt unchanged.
    """
    if isinstance(z, complex) and z.imag != 0.0:
        return cmath.sqrt(z)
    x = z.real if isinstance(z, complex) else float(z)
    if x >= 0.0:
        return math.sqrt(x)
    return complex(0.0, math.sqrt(-x))


def double_angle_step(x: Scalar) -> Scalar:
    """One forward step: maps cos(t) to cos(2t)."""
    return -1.0 + 2.0 * x * x


def half_angle_step(y: Scalar) -> Scalar:
    """One inverse step: maps cos(t) to cos(t/2) on the principal sheet."""
    return principal_sqrt((y + 1.0) / 2.0)


def _seed(x: Scalar, depth: int, seed_order: int, hyperbolic: bool) -> Scalar:
    t = x / (2.0 ** depth)
    u = t * t
    if not hyperbolic:
        u = -u
    # Powers of u only, so the seed is bitwise even in x.
    acc: Scalar = 1.0
    p: Scalar = 1.0
    for j in range(1, seed_order):
        p = p * u
        acc = acc + p / _EVEN_FACTORIALS[j]
    return acc


def cos_seed(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Truncated cosine series at the reduced argument x / 2**depth."""
    return _seed(x, cfg.depth, cfg.seed_order, hyperbolic=False)


def cosh_seed(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Truncated hyperbolic-cosine series at the reduced argument."""
    return _seed(x, cfg.depth, cfg.seed_order, hyperbolic=True)


def _forward(x: Scalar, cfg: EvalConfig, hyperbolic: bool,
             collect: bool) -> Scalar | list[Scalar]:
    y = _seed(x, cfg.depth, cfg.seed_order, hyperbolic)
    out = [y] if collect else None
    for i in range(cfg.depth):
        y = double_angle_step(y)
        if not _is_finite(y):
            raise OverflowError(
                f"iterate left the floating-point range after doubling step "
                f"{i + 1} of {cfg.depth}; a larger depth shrinks the seed argument")
        if collect:
            out.append(y)
    return out if collect else y


def nested_cos(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Approximate cos(x): cos_seed followed by cfg.depth doubling steps.

    Entire in x, even bitwise, and exact at x = 0.  Raises OverflowError
    when an iterate overflows (large |x| at small depth): each doubling
    step roughly squares a deviation that escapes the unit interval.
    """
    return _forward(x, cfg, hyperbolic=False, collect=False)


def nested_cosh(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Approximate cosh(x) with the all-positive seed; otherwise as nested_cos."""
    return _forward(x, cfg, hyperbolic=True, collect=False)


def nested_cos_sequence(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> list[Scalar]:
    """All forward iterates [seed, ..., value]; the last entry is nested_cos."""
    return _forward(x, cfg, hyperbolic=False, collect=True)


def nested_cosh_sequence(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> list[Scalar]:
    """Hyperbolic counterpart of nested_cos_sequence."""
    return _forward(x, cfg, hyperbolic=True, collect=True)


def acos_outer(y: Scalar) -> Scalar:
    """Closing map sqrt(2*(1 - y)); inverts the two-term cosine seed."""
    return principal_sqrt(2.0 * (1.0 - y))


def acosh_outer(y: Scalar) -> Scalar:
    """Closing map sqrt(2*(y - 1)), the hyperbolic twin of acos_outer."""
    return principal_sqrt(2.0 * (-1.0 + y))


def _tower(y: Scalar, depth: int, gray: int,
           outer: Callable[[Scalar], Scalar],
           out: list[Scalar] | None = None) -> Scalar:
    # The one radical tower behind every inverse entry.  Bit m of the Gray
    # code gray negates the iterate after radical m, innermost m = 0, and
    # gray = 0 is the principal sheet.  Iterates go to out when given.
    # The half-angle step is inlined; it is the hot path of branch sweeps.
    for m in range(depth):
        y = principal_sqrt((y + 1.0) / 2.0)
        if gray >> m & 1:
            y = -y
        if out is not None:
            out.append(y)
    return (2.0 ** depth) * outer(y)


def nested_acos(y: Scalar, depth: int = 10, *, allow_deep: bool = False) -> Scalar:
    """Principal inverse cosine as a tower of depth half-angle radicals.

    Real y in [-1, 1] gives a real result in [0, pi]; other input follows
    the principal sheet of each square root, so e.g. y > 1 comes out as a
    positive multiple of 1j.
    """
    check_depth(depth, allow_deep=allow_deep)
    return _tower(y, depth, 0, acos_outer)


def nested_acosh(y: Scalar, depth: int = 10, *, allow_deep: bool = False) -> Scalar:
    """Principal inverse hyperbolic cosine from the same radical tower."""
    check_depth(depth, allow_deep=allow_deep)
    return _tower(y, depth, 0, acosh_outer)


def nested_acos_sequence(y: Scalar, depth: int = 10, *,
                         allow_deep: bool = False) -> list[Scalar]:
    """Inverse iterates followed by the scaled closing value.

    Returns depth + 1 entries; the last one equals nested_acos(y, depth).
    """
    check_depth(depth, allow_deep=allow_deep)
    out: list[Scalar] = []
    out.append(_tower(y, depth, 0, acos_outer, out))
    return out


def nested_acosh_sequence(y: Scalar, depth: int = 10, *,
                          allow_deep: bool = False) -> list[Scalar]:
    """Hyperbolic counterpart of nested_acos_sequence."""
    check_depth(depth, allow_deep=allow_deep)
    out: list[Scalar] = []
    out.append(_tower(y, depth, 0, acosh_outer, out))
    return out
