"""Odd functions, logarithm, and exponential built on the even kernels.

The forward functions read the doubling pair (c, s) of core._forward, s
doubled beside c by Viete's sin 2t = 2 sin t cos t: sin and sinh are s,
tan and tanh s/c, exp c + s; s is odd and entire, so no sign is restored.
The inverses reduce to nested_acos / nested_acosh through square roots,
which forget signs: real input gets its sign back, complex input does not.
"""

from __future__ import annotations

import cmath

from . import core
from .core import (
    DEFAULT_CONFIG,
    EvalConfig,
    Scalar,
    _is_int,
    _is_real,
    _real,
    _trace,
    nested_acos,
    nested_acosh,
    principal_sqrt,
)

__all__ = [
    "nested_sin",
    "nested_tan",
    "nested_asin",
    "nested_atan",
    "nested_sinh",
    "nested_tanh",
    "nested_asinh",
    "nested_atanh",
    "nested_log",
    "nested_exp",
    "exp_limit",
    "log_limit",
]


def _odd(v: Scalar, z: Scalar) -> Scalar:
    # The square roots lose the sign of real z; an odd inverse gets it back.
    if _is_real(z) and _real(z) < 0.0:
        return -v
    return v


def nested_sin(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Approximate sin(x): the sine doubled beside nested_cos(x), odd in x."""
    return core._forward(x, cfg, False)[1]


def nested_tan(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """nested_sin / nested_cos from one chain; raises where the cosine is 0."""
    c, s = core._forward(x, cfg, False)
    if c == 0:
        raise ZeroDivisionError("the nested cosine is zero; tangent pole")
    return s / c


def _square(y: Scalar, name: str) -> Scalar:
    # y**2 for asin and asinh, which overflows from about |y| = 1.34e154.
    s = y * y
    if cmath.isinf(s):
        raise OverflowError(
            f"y**2 overflows at y = {y!r}; the {name} radicand needs a "
            "finite square")
    return s


def nested_asin(y: Scalar, depth: int = 10) -> Scalar:
    """nested_acos of the principal root of 1 - y**2.

    Returns the magnitude branch: real y and -y give the same value.
    Raises OverflowError where y**2 overflows.
    """
    return nested_acos(principal_sqrt(1.0 - _square(y, "arcsine")), depth)


def nested_atan(y: Scalar, depth: int = 10) -> Scalar:
    """nested_acos of 1/sqrt(1 + y**2), negated for real y < 0.

    Raises ZeroDivisionError at y = +-1j where 1 + y**2 vanishes.
    """
    d = 1.0 + y * y
    if d == 0:
        raise ZeroDivisionError("1 + y**2 is zero; arctangent poles at +-1j")
    v = nested_acos(1.0 / principal_sqrt(d), depth)
    return _odd(v, y)


def nested_sinh(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """The sine doubled beside nested_cosh(x); its square is cosh**2 - 1."""
    return core._forward(x, cfg, True)[1]


def nested_tanh(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """nested_sinh / nested_cosh from one chain; raises where cosh is 0."""
    c, s = core._forward(x, cfg, True)
    if c == 0:
        raise ZeroDivisionError("the nested cosh is zero; hyperbolic tangent pole")
    return s / c


def nested_asinh(y: Scalar, depth: int = 10) -> Scalar:
    """nested_acosh of sqrt(1 + y**2), with the sign of real y.

    Raises OverflowError where y**2 overflows.
    """
    v = nested_acosh(principal_sqrt(1.0 + _square(y, "inverse hyperbolic sine")),
                     depth)
    return _odd(v, y)


def nested_atanh(y: Scalar, depth: int = 10) -> Scalar:
    """nested_acosh of 1/sqrt(1 - y**2), with the sign of real y.

    Raises ZeroDivisionError at the poles y = +-1.
    """
    d = 1.0 - y * y
    if d == 0:
        raise ZeroDivisionError("y is +-1; inverse hyperbolic tangent pole")
    v = nested_acosh(1.0 / principal_sqrt(d), depth)
    return _odd(v, y)


def nested_log(y: Scalar, depth: int = 10) -> Scalar:
    """Logarithm via nested_acosh of the symmetric mean (y + 1/y)/2.

    The mean collapses y and 1/y, so the principal inverse returns
    |log y| for real y > 0; the sign is restored from y < 1.  Raises
    ZeroDivisionError at y = 0 and OverflowError where 1/y overflows.
    """
    if y == 0:
        raise ZeroDivisionError("logarithm of zero")
    r = 1.0 / y
    if cmath.isinf(r):
        raise OverflowError(
            f"1/y overflows at y = {y!r}; the logarithm's symmetric mean "
            "needs a finite reciprocal")
    v = nested_acosh((y + r) / 2.0, depth)
    if _is_real(y) and 0.0 < _real(y) < 1.0:
        return -v
    return v


def nested_exp(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """exp(x) as nested_cosh(x) + nested_sinh(x), from one chain."""
    c, s = core._forward(x, cfg, True)
    return c + s


def exp_limit(x: Scalar, n: int) -> Scalar:
    """The classic limit (1 + x/n)**n by explicit square-and-multiply."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    base: Scalar = 1.0 + x / n
    result: Scalar = 1.0
    e = n
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def log_limit(y: Scalar, n: int) -> Scalar:
    """The limit n*(y**(1/n) - 1) with the root as a chain of square roots.

    n must be a power of two so the n-th root stays radical-only.
    Raises ZeroDivisionError at y = 0 (log pole).
    """
    if not _is_int(n) or n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    if y == 0:
        raise ZeroDivisionError("logarithm of zero")
    return n * (_trace(y, principal_sqrt, n.bit_length() - 1)[-1] - 1.0)
