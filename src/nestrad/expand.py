"""Exact Maclaurin coefficients of the doubled-angle polynomial chain.

Composing -1 + 2*p**2 depth times onto the two-term seed
1 -+ x**2/2**(2*depth+1) gives T_N(seed) with N = 2**depth (Chebyshev
composition): an even polynomial with exactly N + 1 rational coefficients.
Its hypergeometric form T_N(t) = 2F1(-N, N; 1/2; (1 - t)/2) (DLMF 18.5(iii))
gives each coefficient from the one before by one exact rational factor.
Scaled by 2**((2*depth+1)*j), coefficient j is an integer: the recurrence
divides exactly and gives odd numerators over powers of two, lowest terms.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat

from .core import _is_int

__all__ = [
    "EXPANSION_DEPTH_CAP",
    "RationalPoly",
    "expand_nested_cos",
    "maclaurin_error_profile",
]

#: Coefficient count 2**depth + 1 and bit-lengths grow geometrically.  From
#: depth 10 on, denominators pass Python's 4300-digit int-to-str limit (the
#: CLI prints them as exact Decimals).  Depths 1..9 are built once per
#: process (1.24 MB for all 18 polys with evaluators, CPython 3.11);
#: keeping 10..12 too would hold 77 MB, 29.5 MB at depth 12.
EXPANSION_DEPTH_CAP = 12
_ZERO = Fraction(0)


@dataclass(frozen=True)
class RationalPoly:
    """Even polynomial; coeffs[j] is the exact coefficient of x**(2j)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of x**(2j); zero beyond the stored degree."""
        if not _is_int(j) or j < 0:
            raise ValueError(f"coefficient index must be >= 0, got {j}")
        if j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    @cached_property
    def _horner(self) -> tuple[float, ...]:
        # Not a dataclass field, so ==, hash and repr ignore it.  Top 0.0s
        # are dropped: from acc = 0.0 they leave acc a zero (nan at infinite
        # u), and the next c then gives 0*u + c, as it would without them.
        floats = [float(c) for c in reversed(self.coeffs)]
        top = next((i for i, c in enumerate(floats) if c), 0)
        return tuple(floats[top:])

    @cached_property
    def evaluate(self) -> Callable[[float], float]:
        """Floating-point Horner evaluation in u = x**2: poly.evaluate(x).

        On first use, once per poly, the coefficients go to float (top
        0.0s dropped: from depth 7 on 88-89 remain) and are bound to a
        straight-line evaluator compiled once per process per length.
        Circular terms alternate in sign and cancel: at depth 10 the sum is
        1.6e-14, 1.9e-4 and 9.8e30 off at x = 10, 30 and 100, relative to
        max(|P|, 1); hyperbolic terms do not.  nested_cos and nested_cosh at
        EvalConfig(depth, 2) evaluate the same polynomials within 6e-14 there.
        """
        return _horner_maker(len(self._horner))(*self._horner)

    def __getstate__(self) -> dict:
        # Pickle and copy the coefficients alone: an evaluator cannot be.
        return {"coeffs": self.coeffs}


@lru_cache(maxsize=None)
def _horner_maker(n: int) -> Callable[..., Callable[[float], float]]:
    # make(c0, ..., c<n-1>) returns evaluate(x): acc = acc * u + c from
    # acc = 0.0 written out, 32 nested terms a statement (the parser nests
    # 200 parentheses at most).  Closure cells, not text, hold the floats.
    names = [f"c{i}" for i in range(n)]
    steps = [f"  acc = {'(' * len(cs)}acc{''.join(f' * u + {c})' for c in cs)}"
             for cs in (names[i:i + 32] for i in range(0, n, 32))]
    code = [f"def make({', '.join(names)}):", " def evaluate(x):", "  u = x * x",
            "  acc = 0.0", *steps, "  return acc", " return evaluate"]
    exec("\n".join(code), scope := {})
    return scope["make"]


def _check(depth: int, variant: str) -> None:
    if not _is_int(depth) or not 1 <= depth <= EXPANSION_DEPTH_CAP:
        raise ValueError(
            f"depth must be in 1..{EXPANSION_DEPTH_CAP}, got {depth}")
    if variant not in ("circular", "hyperbolic"):
        raise ValueError(
            f"variant must be 'circular' or 'hyperbolic', got {variant!r}")


def _coefficients(depth: int, variant: str) -> Iterator[Fraction]:
    # Yields c_0..c_N of a checked (depth, variant), each only when asked.
    # Term ratio of 2F1(-N, N; 1/2; z) with z = -+u/2**(2*depth+2), u = x**2:
    # c[j+1] = c[j] * (N-j)(N+j) / ((2j+1)(j+1)) * -+1/2**e, e = 2*depth+1.
    # a = c[j] * 2**(e*j) is +- the coefficient of (1 - t)**j in T_N(t), an
    # integer; its odd part over a power of two is c[j], built with no gcd.
    n, e = 2 ** depth, 2 * depth + 1
    sign = -1 if variant == "circular" else 1
    yield Fraction(1)
    a = 1
    for j in range(n):
        a = sign * a * (n - j) * (n + j) // ((2 * j + 1) * (j + 1))
        tz = (a & -a).bit_length() - 1
        c = object.__new__(Fraction)
        c._numerator, c._denominator = a >> tz, 1 << (e * (j + 1) - tz)
        yield c


@lru_cache(maxsize=None)
def _build(depth: int, variant: str) -> RationalPoly:
    return RationalPoly(tuple(_coefficients(depth, variant)))


def expand_nested_cos(depth: int, variant: str = "circular") -> RationalPoly:
    """Exact expansion of the depth-fold chain on the two-term seed.

    variant "circular" seeds 1 - x**2/2**(2*depth+1) (cosine);
    "hyperbolic" flips the seed sign (hyperbolic cosine).  Up to depth 9
    every call returns one shared, immutable poly; deeper ones are fresh.
    """
    _check(depth, variant)
    return (_build if depth <= 9 else _build.__wrapped__)(depth, variant)


def maclaurin_error_profile(depth: int, max_j: int) -> list[Fraction]:
    """Exact deviations c_j - (-1)**j/(2j)! of the circular expansion.

    Entry j compares coefficient j against the true cosine series,
    for j = 0..max_j.  Coefficients past the degree 2**depth are zero.
    Depths 1..9 read the shared expansion of expand_nested_cos, built on
    first use; deeper ones pull only max_j + 1 coefficients.
    """
    if not _is_int(max_j) or max_j < 1:
        raise ValueError(f"max_j must be a positive integer, got {max_j}")
    _check(depth, "circular")
    coeffs = (_build(depth, "circular").coeffs if depth <= 9
              else _coefficients(depth, "circular"))
    # c - (-1)**j/f with c = n/2**s and f = (2j)! = odd * 2**v (Legendre):
    # over 2**m, m = min(s, v), it is t/(2**(s-m) * (f >> m)) with t =
    # n*(f >> m) -+ 2**(s-m); 2**k, the lowest set bit of t | 2**m, cancels.
    profile, f = [], 1
    for j, c in zip(range(max_j + 1), chain(coeffs, repeat(_ZERO))):
        s, v = c._denominator.bit_length() - 1, 2 * j - j.bit_count()
        m = s if s < v else v
        t = c._numerator * (f >> m) + ((1 if j % 2 else -1) << s - m)
        k = ((u := t | 1 << m) & -u).bit_length() - 1
        e = object.__new__(Fraction)
        e._numerator, e._denominator = t >> k, (f >> k) << s - m
        profile.append(e)
        f *= (2 * j + 1) * (2 * j + 2)
    return profile
