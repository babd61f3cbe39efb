"""Independent references and correctness checks for the benchmark.

Nothing here calls nestrad: every reference is computed from the
standard library, ``fractions`` or mpmath, so a check cannot pass just
because the library agrees with itself.

Error model (absolute error, checked as ``|value - ref| <= tolerance``)
-----------------------------------------------------------------------
``d`` is the depth, ``m`` the seed order, ``eps = 2**-52`` and every
bound carries the safety factor ``K = 16``.

* forward chain (cos, cosh):  ``K * 4**d * cosh(|z|)**2 * (t**(2m)/(2m)! * cosh(t) + eps)``
  with ``t = |z| / 2**d``.  A seed error is multiplied by at most
  ``4|y_i|`` per doubling step and ``prod 4|y_i| <= 4**d cosh(|z|)**2``.
* square-root recoveries (sin, sinh, tan, tanh, exp): an input error
  ``D`` of the radicand moves the principal root by at most
  ``min(sqrt(D), D / |root|)``, plus ``2|root|`` for a complex root whose
  radicand lies within ``D`` of the branch cut (``D >= 2|re root||root|``),
  where the root may come out on the other sheet.
* inverse tower (acos, acosh and everything reduced to them): the
  closing map adds ``|theta|**3 / (24 * 4**d)`` truncation; roundoff of
  the last iterate is ``delta = 4 eps``, amplified by the closing map to
  ``min(4**d delta / |theta|, 2**d sqrt(2 delta))``.  A signed
  (non-principal) tower can sit next to -1 in its middle steps, so only
  the ``2**d sqrt(2 delta)`` form holds there.
* limits: ``exp_limit`` adds ``|e^z| (|z|**2/(2n) + 2(n + d) eps)`` and
  ``log_limit`` adds ``|L|**2/(2n) + 2 n eps`` with ``n = 2**d``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath

EPS = 2.0 ** -52
K = 16.0

#: Functions reduced to the inverse radical tower, with the chain they use.
INVERSE = {"acos": "acos", "asin": "acos", "atan": "acos",
           "acosh": "acosh", "asinh": "acosh", "atanh": "acosh",
           "log": "acosh"}
#: Functions built on the forward chain, with the chain they use.
FORWARD = {"cos": "cos", "sin": "cos", "tan": "cos", "sin-shift": "cos",
           "cosh": "cosh", "sinh": "cosh", "tanh": "cosh", "exp": "cosh"}


# ---------------------------------------------------------------- Gray code

def gray_signs(k: int, width: int) -> tuple[int, ...]:
    """Sign slots of branch k, innermost first: bit m of k ^ (k >> 1) set means -1."""
    g = k ^ (k >> 1)
    return tuple(-1 if (g >> m) & 1 else 1 for m in range(width))


def signs_text(k: int, width: int, inner_first: bool) -> str:
    signs = gray_signs(k, width)
    if not inner_first:
        signs = signs[::-1]
    return "".join("+" if s > 0 else "-" for s in signs)


# ------------------------------------------------------- exact expansion

def closed_form_coeffs(depth: int, variant: str) -> tuple[Fraction, ...]:
    """Coefficients in u = x**2 of T_N(1 -+ u / 2**(2d+1)), N = 2**depth.

    From T_N(1 - 2v) = 2F1(-N, N; 1/2; v): consecutive coefficients obey
    c[j+1] = c[j] * (N - j)(N + j) / ((2j + 1)(j + 1)) * s with
    s = -1/2**(2d+1) for the circular seed and +1/2**(2d+1) otherwise.
    """
    n = 2 ** depth
    s = Fraction(1 if variant == "hyperbolic" else -1, 2 ** (2 * depth + 1))
    c = Fraction(1)
    out = [c]
    for j in range(n):
        c = c * (n - j) * (n + j) / ((2 * j + 1) * (j + 1)) * s
        out.append(c)
    return tuple(out)


def profile_reference(coeffs: tuple[Fraction, ...], max_j: int) -> list[Fraction]:
    """Exact c_j - (-1)**j/(2j)! for j = 0..max_j of a circular expansion."""
    return [(coeffs[j] if j < len(coeffs) else Fraction(0))
            - Fraction((-1) ** j, math.factorial(2 * j))
            for j in range(max_j + 1)]


def horner_tolerance(coeffs: tuple[Fraction, ...], x: float) -> float:
    """Roundoff bound of float Horner: (2n + 2) eps * sum |c_j| x**(2j)."""
    u = x * x
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + abs(float(c))
    return K * (2 * len(coeffs) + 2) * EPS * acc + 1e-300


# ------------------------------------------------------------ oracles

def branch_acos(z: complex, k: int) -> complex:
    """Branch k of acos: k*pi + acos(z) for even k, (k+1)*pi - acos(z) for odd k."""
    if k < 0:
        return -branch_acos(z, -k - 1)
    a = cmath.acos(z)
    return k * math.pi + a if k % 2 == 0 else (k + 1) * math.pi - a


_STD = {
    "cos": cmath.cos, "sin": cmath.sin, "tan": cmath.tan, "sin-shift": cmath.sin,
    "cosh": cmath.cosh, "sinh": cmath.sinh, "tanh": cmath.tanh, "exp": cmath.exp,
    "exp-limit": cmath.exp, "acos": cmath.acos, "asin": cmath.asin,
    "atan": cmath.atan, "acosh": cmath.acosh, "asinh": cmath.asinh,
    "atanh": cmath.atanh, "log": cmath.log, "log-limit": cmath.log,
}


def reference(name: str, z: complex, branch: int = 0) -> complex:
    """Closed-form value the nested evaluation approximates."""
    if branch:
        if name == "acos":
            return branch_acos(z, branch)
        # acosh branches are defined for real z in [-1, 1], where the
        # signed tower closes on a nonpositive real: 1j times the acos branch.
        return 1j * branch_acos(z, branch)
    return _STD[name](complex(z))


def reduction(name: str, z: complex) -> complex:
    """The library's documented reduction evaluated with cmath.

    Complex input gets the principal square root with no sign
    restoration, so a complex argument is valid only where this equals
    the standard function.
    """
    s = cmath.sqrt
    if name == "sin":
        return s(1 - cmath.cos(z) ** 2)
    if name == "tan":
        return s(1 / cmath.cos(z) ** 2 - 1)
    if name == "sinh":
        return s(cmath.cosh(z) ** 2 - 1)
    if name == "tanh":
        return s(1 - 1 / cmath.cosh(z) ** 2)
    if name == "exp":
        return cmath.cosh(z) + s(cmath.cosh(z) ** 2 - 1)
    if name == "asin":
        return cmath.acos(s(1 - z * z))
    if name == "atan":
        return cmath.acos(1 / s(1 + z * z))
    if name == "asinh":
        return cmath.acosh(s(1 + z * z))
    if name == "atanh":
        return cmath.acosh(1 / s(1 - z * z))
    if name == "log":
        return cmath.acosh((z + 1 / z) / 2)
    return reference(name, z)


def complex_arg_valid(name: str, z: complex, margin: float = 1e-3) -> bool:
    """True where the reduction matches the standard function near z too."""
    for dz in (0, margin, -margin, 1j * margin, -1j * margin):
        w = z + dz
        try:
            want = reference(name, w)
            got = reduction(name, w)
        except (ValueError, ZeroDivisionError, OverflowError):
            return False
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            return False
    return True


# ---------------------------------------------------------- error bounds

def _chain_err(a: float, depth: int, order: int) -> float:
    t = a / 2.0 ** depth
    trunc = t ** (2 * order) / math.factorial(2 * order) * math.cosh(t)
    return 4.0 ** depth * math.cosh(a) ** 2 * (trunc + EPS)


def _root_err(radicand_err: float, root: complex) -> float:
    r = abs(root)
    err = math.sqrt(radicand_err)
    if r > 0.0:
        err = min(err, radicand_err / r)
    # A radicand within its error of the negative real axis (distance
    # about 2|re(root)||root|) may land on the other sheet of the root.
    if complex(root).imag != 0.0 and radicand_err >= 2 * abs(complex(root).real) * r:
        err += 2 * r
    return err


def _tower_err(theta: float, depth: int, signed: bool) -> float:
    delta = 4 * EPS
    trunc = theta ** 3 / (24 * 4.0 ** depth) * 2
    wide = 2.0 ** depth * math.sqrt(2 * delta)
    if signed or theta == 0.0:
        return trunc + wide
    return trunc + min(4.0 ** depth * delta / theta, wide)


def tolerance(name: str, z: complex, depth: int, order: int, branch: int,
              ref: complex) -> float:
    """Absolute error allowed for one evaluation (see the module docstring)."""
    a = abs(z)
    r = abs(ref)
    floor = 64 * EPS * max(1.0, r)
    if name in INVERSE:
        return K * _tower_err(r, depth, branch != 0) + floor
    if name == "exp-limit":
        n = 2.0 ** depth
        e = math.exp(a)
        return K * e * (a * a / (2 * n) * math.exp(a * a / (2 * n))
                        + 2 * (n + depth) * EPS) + floor
    if name == "log-limit":
        n = 2.0 ** depth
        return K * (r * r / (2 * n) * math.exp(r / n) + 2 * n * EPS) + floor
    if name == "sin-shift":
        a = abs(z - math.pi / 2)
    ce = _chain_err(a, depth, order)
    big = math.cosh(a)
    if name in ("cos", "cosh", "sin-shift"):
        return K * ce + floor
    if name in ("sin", "sinh"):
        return K * _root_err(ce * (2 * big + ce), ref) + floor
    if name == "exp":
        sinh_err = _root_err(ce * (2 * big + ce), cmath.sinh(z))
        return K * (ce + sinh_err) + floor
    # tan, tanh: the radicand 1/c**2 - 1 (or 1 - 1/c**2) moves by at most
    # ce (2|c| + ce) / (|c|**2 (|c| - ce)**2).
    c = abs(cmath.cos(z) if name == "tan" else cmath.cosh(z))
    if ce >= c / 2:
        return math.inf
    rad = ce * (2 * c + ce) / (c * c * (c - ce) ** 2)
    return K * _root_err(rad, ref) + floor


def scale(ref: complex) -> float:
    return max(abs(ref), 1.0)


def close(value: complex, ref: complex, tol: float) -> bool:
    return cmath.isfinite(value) and abs(value - ref) <= tol


def text_roundtrip_ok(text_value: complex, value: complex) -> bool:
    """15 significant digits keep each component within 1e-14 relative."""
    v = complex(value)
    p = complex(text_value)
    return (abs(p.real - v.real) <= 1e-14 * abs(v.real)
            and abs(p.imag - v.imag) <= 1e-14 * abs(v.imag))


# ------------------------------------------ same-depth high-precision runs

DIGITS = 60


def _mp(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return mpmath.mpf(z.real)
    return mpmath.mpc(z.real, z.imag)


def mp_forward(z: complex, depth: int, order: int, hyperbolic: bool) -> complex:
    """The forward chain of the library run at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        t = _mp(z) / mpmath.mpf(2) ** depth
        u = t * t if hyperbolic else -(t * t)
        acc = mpmath.mpf(1)
        p = mpmath.mpf(1)
        for j in range(1, order):
            p = p * u
            acc = acc + p / math.factorial(2 * j)
        for _ in range(depth):
            acc = 2 * acc * acc - 1
        return complex(acc)


def mp_tower(z: complex, depth: int, branch: int, hyperbolic: bool) -> complex:
    """The signed radical tower of branch ``branch`` at DIGITS digits."""
    if branch < 0:
        return -mp_tower(z, depth, -branch - 1, hyperbolic)
    with mpmath.workdps(DIGITS):
        y = _mp(z)
        for s in gray_signs(branch, depth):
            y = mpmath.sqrt((y + 1) / 2)
            if s < 0:
                y = -y
        closing = mpmath.sqrt(2 * (y - 1) if hyperbolic else 2 * (1 - y))
        return complex(mpmath.mpf(2) ** depth * closing)


def mp_poly_value(x: float, depth: int, variant: str) -> float:
    """T_N(1 -+ x**2/2**(2d+1)) by the doubling recurrence at DIGITS digits."""
    return mp_forward(x, depth, 2, variant == "hyperbolic").real


def scaled_error(value: complex, ref: complex) -> float:
    """|value - ref| / max(|ref|, 1): the scale eval_report uses."""
    return abs(complex(value) - ref) / scale(ref)
