"""Exact Maclaurin coefficients of the doubled-angle polynomial chain.

Composing -1 + 2*p**2 depth times onto the two-term seed
1 -+ x**2/2**(2*depth+1) gives an even polynomial with exactly
2**depth + 1 rational coefficients.  Everything here runs in exact
arithmetic; no truncation happens during composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

__all__ = [
    "EXPANSION_DEPTH_CAP",
    "RationalPoly",
    "expand_nested_cos",
    "maclaurin_error_profile",
]

#: Coefficient count 2**depth + 1 and coefficient bit-lengths both grow
#: geometrically, and the convolution below costs about 8x per extra depth:
#: a full expansion takes 0.28 s at depth 8, 2.6 s at depth 9 and about
#: 21 s at depth 10 (CPython 3.11, one Xeon core), so depths near the cap
#: are impractical.  The closed-form Chebyshev coefficients (T_N with
#: N = 2**depth) are what will make deep expansions cheap.
EXPANSION_DEPTH_CAP = 12


@dataclass(frozen=True)
class RationalPoly:
    """Even polynomial; coeffs[j] is the exact coefficient of x**(2j)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of x**(2j); zero beyond the stored degree."""
        if j < 0:
            raise ValueError(f"coefficient index must be >= 0, got {j}")
        if j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def evaluate(self, x: float) -> float:
        """Floating-point Horner evaluation in u = x**2."""
        u = x * x
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * u + float(c)
        return acc


def _convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def expand_nested_cos(depth: int, variant: str = "circular") -> RationalPoly:
    """Exact expansion of the depth-fold chain on the two-term seed.

    variant "circular" seeds 1 - x**2/2**(2*depth+1) (cosine);
    "hyperbolic" flips the seed sign (hyperbolic cosine).
    """
    if not 1 <= depth <= EXPANSION_DEPTH_CAP:
        raise ValueError(
            f"depth must be in 1..{EXPANSION_DEPTH_CAP}, got {depth}")
    if variant not in ("circular", "hyperbolic"):
        raise ValueError(
            f"variant must be 'circular' or 'hyperbolic', got {variant!r}")
    seed = Fraction(1, 2 ** (2 * depth + 1))
    if variant == "circular":
        seed = -seed
    p = [Fraction(1), seed]
    for _ in range(depth):
        sq = _convolve(p, p)
        p = [2 * c for c in sq]
        p[0] -= 1
    return RationalPoly(tuple(p))


def maclaurin_error_profile(depth: int, max_j: int) -> list[Fraction]:
    """Exact deviations c_j - (-1)**j/(2j)! of the circular expansion.

    Entry j compares coefficient j against the true cosine series,
    for j = 0..max_j.
    """
    if max_j < 1:
        raise ValueError(f"max_j must be a positive integer, got {max_j}")
    poly = expand_nested_cos(depth, "circular")
    return [
        poly.coefficient(j) - Fraction((-1) ** j, factorial(2 * j))
        for j in range(max_j + 1)
    ]
