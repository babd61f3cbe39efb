"""Half-angle recursion kernels and every elementary function built on them.

The forward direction seeds a short even series at the reduced argument
x / 2**depth and doubles the angle ``depth`` times: -1 + 2*y**2 on the
deviation 1 - y, and Viete's sin 2t = 2 sin t cos t beside it.  Of that
pair (c, s), cos and cosh are c, sin and sinh s, tan and tanh s/c, exp
c + s (1/(c - s) for re x < 0); s is odd and entire, so no sign is restored.
The inverse direction runs the cosine chain backwards as a tower of square
roots on the deviation d of each iterate +-(1 - d) from +-1, and closes with
sqrt(+-2d) scaled by 2**depth; signs on the radicals read off the Gray code
of k give branch k, so consecutive k differ in one sign.  asin, atan,
log and kin reach it through square roots, which forget signs: atan, asinh
and atanh restore a real input's sign; asin returns the magnitude branch.
Each *_sequence function lists the iterates its kernel records as it runs.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_

__all__ = [
    "DEPTH_MAX",
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
    "gray_signs",
    "gray_adjacent_distance",
    "nested_acos_branch",
    "nested_acosh_branch",
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

Scalar = float | complex

DEPTH_MAX = 1023  #: the depth bound: 2.0**depth and 2**depth must stay floats

_SEED_Q = ((0.5,), (1 / 24, 0.5), (1 / 720, 1 / 24, 0.5))  # q's Horner terms, orders 2..4


def _is_int(v: object) -> bool:
    # Integer arguments (depths, indices, counts) reject bool and every
    # non-int type like an out-of-range value, not later inside a loop.
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(z: Scalar) -> bool:
    # A complex carrying a zero imaginary part counts as real input.
    return not isinstance(z, complex) or z.imag == 0.0


def _real(z: Scalar) -> float:
    return z.real if isinstance(z, complex) else float(z)


def check_depth(depth: int) -> None:
    """Validate a recursion depth: an int in 1..DEPTH_MAX.

    Any depth that is not an int, a bool included, is rejected like a
    nonpositive one rather than failing later inside a loop.
    """
    if not _is_int(depth) or depth < 1:
        raise ValueError(f"depth must be a positive integer, got {depth}")
    if depth > DEPTH_MAX:
        raise ValueError(f"depth {depth} exceeds {DEPTH_MAX}; 2**depth must "
                         "stay a float")


@dataclass(frozen=True)
class EvalConfig:
    """Settings for the forward recursions.

    depth       number of doubling steps, 1..DEPTH_MAX
    seed_order  number of series terms in the seed, 1..4; order 1 is the
                constant 1.0, which doubling keeps, so every forward value
                is constant: 1.0 for cos/cosh/exp, a zero for sin/sinh/tan/tanh
    """

    depth: int = 10
    seed_order: int = 2

    def __post_init__(self) -> None:
        check_depth(self.depth)
        if not _is_int(self.seed_order) or self.seed_order not in (1, 2, 3, 4):
            raise ValueError(f"seed_order must be in 1..4, got {self.seed_order}")


DEFAULT_CONFIG = EvalConfig()


def principal_sqrt(z: Scalar) -> Scalar:
    """Principal square root with the branch cut on the negative real axis.

    Real input with a real root stays a float; a negative real input maps
    to +1j*sqrt(|z|) regardless of the sign of any attached zero imaginary
    part, so values that land exactly on the cut never drop to the lower
    sheet.  Other complex input goes through cmath.sqrt unchanged.
    """
    # _is_real and _real written out: scalar inverse and single-branch
    # evaluations run this once per radical, where calls cost measurable time.
    if isinstance(z, complex) and z.imag != 0.0:
        return cmath.sqrt(z)
    x = z.real if isinstance(z, complex) else float(z)
    if x >= 0.0:
        return math.sqrt(x)
    return complex(0.0, math.sqrt(-x))


def double_angle_step(x: Scalar) -> Scalar:
    """One literal forward step, cos(t) to cos(2t); the chains take it on 1 - cos t."""
    return -1.0 + 2.0 * x * x


def half_angle_step(y: Scalar) -> Scalar:
    """One literal inverse step, cos(t) to cos(t/2); the tower steps 1 -+ cos t."""
    return principal_sqrt((y + 1.0) / 2.0)


def _seed(x: Scalar, cfg: EvalConfig, hyperbolic: bool) -> tuple[Scalar, Scalar]:
    # e0 = -u*q = 1 - c0 for the series c0 at t = x/2**depth, u = -+t**2, and
    # s0 = t*sqrt(q*(2 + u*q)) = sqrt(-+(1 - c0**2)), odd; e0 is even in x.
    # q = sum of u**(j-1)/(2j)!, j < seed_order; order 1 is 1.0 for every x.
    t = x / (2.0 ** cfg.depth)
    if cfg.seed_order == 1:  # before t*t or t can overflow into inf*0.0
        return 0.0, (0.0 * t if cmath.isfinite(t) else 0.0)
    u = t * t
    if not hyperbolic:
        u = -u
    q: Scalar = 0.0
    for f in _SEED_Q[cfg.seed_order - 2]:
        q = q * u + f
    return -u * q, t * principal_sqrt(q * (2.0 + u * q))


def cos_seed(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Truncated cosine series at the reduced argument x / 2**depth."""
    return 1.0 - _seed(x, cfg, False)[0]


def cosh_seed(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Truncated hyperbolic-cosine series at the reduced argument."""
    return 1.0 - _seed(x, cfg, True)[0]


def _forward(x: Scalar, cfg: EvalConfig, hyperbolic: bool,
             pairs: list | None = None) -> tuple[Scalar, Scalar]:
    # (c, s) by -1 + 2*c**2 on e = 1 - c and Viete's sin 2t = 2 sin t cos t,
    # each (e, s) from the seed on appended to pairs if given.  NaN and inf
    # persist, so one end check suffices; _doublings reruns it to name the step.
    e, s = _seed(x, cfg, hyperbolic)
    if pairs is not None:
        pairs.append((e, s))
    for _ in range(cfg.depth):
        e, s = 2.0 * e * (2.0 - e), 2.0 * s * (1.0 - e)
        if pairs is not None:
            pairs.append((e, s))
    if pairs is None and not (cmath.isfinite(e) and cmath.isfinite(s)):
        _doublings(x, cfg, hyperbolic)
    return 1.0 - e, s


def _doublings(x: Scalar, cfg: EvalConfig, hyperbolic: bool) -> list[Scalar]:
    pairs: list[tuple[Scalar, Scalar]] = []
    _forward(x, cfg, hyperbolic, pairs)
    finite = [cmath.isfinite(e) and cmath.isfinite(s) for e, s in pairs]
    if not finite[-1]:
        # Entry m follows doubling step m; a NaN seed fails at step 1.
        raise OverflowError(f"iterate is not finite after doubling step "
                            f"{finite.index(False, 1)} of {cfg.depth}")
    return [1.0 - e for e, _ in pairs]


def nested_cos(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Approximate cos(x): cos_seed followed by cfg.depth doubling steps.

    Entire in x, even bitwise, and exact at x = 0.  Raises OverflowError
    when an iterate overflows (large |x| at small depth): each doubling
    step roughly squares a deviation that escapes the unit interval.
    """
    return _forward(x, cfg, False)[0]


def nested_cosh(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Approximate cosh(x) with the all-positive seed; otherwise as nested_cos."""
    return _forward(x, cfg, True)[0]


def nested_cos_sequence(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> list[Scalar]:
    """All forward iterates [seed, ..., value]; the last entry is nested_cos."""
    return _doublings(x, cfg, False)


def nested_cosh_sequence(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> list[Scalar]:
    """Hyperbolic counterpart of nested_cos_sequence."""
    return _doublings(x, cfg, True)


def nested_sin(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """Approximate sin(x): the sine doubled beside nested_cos(x), odd in x."""
    return _forward(x, cfg, False)[1]


def nested_tan(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """nested_sin / nested_cos from one chain; raises where the cosine is 0."""
    c, s = _forward(x, cfg, False)
    if c == 0:
        raise ZeroDivisionError("the nested cosine is zero; tangent pole")
    return s / c


def nested_sinh(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """The sine doubled beside nested_cosh(x); its square is cosh**2 - 1."""
    return _forward(x, cfg, True)[1]


def nested_tanh(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """nested_sinh / nested_cosh from one chain; raises where cosh is 0."""
    c, s = _forward(x, cfg, True)
    if c == 0:
        raise ZeroDivisionError("the nested cosh is zero; hyperbolic tangent pole")
    return s / c


def nested_exp(x: Scalar, cfg: EvalConfig = DEFAULT_CONFIG) -> Scalar:
    """exp(x) as cosh + sinh from one chain, or 1/(cosh - sinh) if re x < 0."""
    c, s = _forward(x, cfg, True)
    return 1.0 / (c - s) if _real(x) < 0.0 else c + s


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


def acos_outer(y: Scalar) -> Scalar:
    """Closing map sqrt(2*(1 - y)); inverts the two-term cosine seed.

    No kernel runs it: the tower closes on the deviation 1 - y itself.
    """
    return principal_sqrt(2.0 * (1.0 - y))


def acosh_outer(y: Scalar) -> Scalar:
    """Closing map sqrt(2*(y - 1)), the hyperbolic twin; no kernel runs it."""
    return principal_sqrt(2.0 * (-1.0 + y))


def _tower(y: Scalar, depth: int, gray: int, hyperbolic: bool,
           ys: list | None = None) -> Scalar:
    # The one radical tower behind every inverse entry; ys, given a list,
    # records its iterates.  Bit m of the Gray code gray < 2**(depth-1)
    # negates the iterate after radical m, innermost m = 0.  The iterate
    # v = +-(1 - d), - after a set bit, is carried as p = 2d, so no iterate
    # near +-1 is rounded.  Of a = 4r for the radicand r = (v + 1)/2, a
    # radical makes p = 2 - sqrt(a), or (4 - a)/(2 + sqrt(a)) where that
    # cancels; the test is on a, so iterates +0 and -0 step alike.  A float
    # from [-1, 1], or finite above 1 on the principal sheet, has no a < 0
    # and runs on math.sqrt, as principal_sqrt would.  Where 2(1 -+ y)
    # overflows, radical 0 is taken literally: it loses nothing there.
    neg = (y.real if isinstance(y, complex) else y) < 0.0
    p = 2.0 * (1.0 + y) if neg else 2.0 * (1.0 - y)
    if cmath.isinf(p):
        if y == math.inf and not gray:  # +inf at every radical of branch 0
            ys is None or ys.extend([math.inf] * depth)
            return math.inf if hyperbolic else complex(0.0, math.inf)
        if cmath.isfinite(y):
            v = principal_sqrt((y + 1.0) / 2.0) * (-1.0 if gray & 1 else 1.0)
            if ys is not None:
                ys.append(v)
            return 2.0 * _tower(v, depth - 1, gray >> 1, hyperbolic, ys)
    fast = isinstance(y, float) and (-1.0 <= y <= 1.0 or not gray and 1.0 < y < math.inf)
    sqrt = math.sqrt
    for m in range(depth):
        if fast:
            p = 2.0 - sqrt(p) if neg and p != 2.0 else p / (2.0 + sqrt(4.0 - p))
        else:
            a = p if neg else 4.0 - p
            s = principal_sqrt(a)
            p = 2.0 - s if a.real < 2.0 else (4.0 - p if neg else p) / (2.0 + s)
        neg = gray >> m & 1
        if ys is not None:
            ys.append(p * 0.5 - 1.0 if neg else 1.0 - p * 0.5)
    return (2.0 ** depth) * principal_sqrt(0.0 - p if hyperbolic else p)


#: Branches per batch of _towers, and leaves of its Gray tree at most:
#: enough lanes to share the inner radicals and amortize the list work,
#: few enough that memory stays bounded for any sweep.
_BATCH = 4096


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _towers(y: float, depth: int, ks: Sequence[int]
            ) -> Iterator[tuple[Sequence[int], list[float]]]:
    # (chunk, values) for each run of at most _BATCH branch indices of ks,
    # where values[i] is _tower(y, depth, _gray(chunk[i]), False) bit for
    # bit.  One Gray tree, as tall as one batch needs, serves every chunk.
    # Precondition, kept by every caller: the arguments are validated, y is
    # a float in [-1, 1] and 0 <= k < 2**(depth-1), so _tower's fast path.
    tree = _gray_tree(y, (min(len(ks), _BATCH) - 1).bit_length())
    for lo in range(0, len(ks), _BATCH):
        chunk = ks[lo:lo + _BATCH]
        yield chunk, _climb(tree, [_gray(k) for k in chunk], depth)


@lru_cache(maxsize=8)
def _gray_tree(y: float, height: int) -> tuple[float, ...]:
    # _tower's p after height + 1 radicals of y under every sign pattern of
    # Gray bits 0..height-1, at leaf g & (2**height - 1) for Gray code g.
    # Radical m steps by bit m - 1 (y's sign for m = 0), so a level is
    # roots + roots: a set bit changes the state, not p.  Kept for later
    # sweeps and tables of the same y and height; -0.0 and 0.0 start at p = 2.
    sqrt = math.sqrt
    level = [2.0 * (1.0 + y) if y < 0.0 else 2.0 * (1.0 - y)]
    half = 0 if y < 0.0 else 1  # leaves from half on are in the - state
    for i in range(height + 1):
        roots = ([p / (2.0 + sqrt(4.0 - p)) for p in level[:half]]
                 + [2.0 - sqrt(p) if p != 2.0 else p / (2.0 + sqrt(4.0 - p))
                    for p in level[half:]])
        level = roots + roots if i < height else roots
        half = len(roots)
    return tuple(level)


def _climb(tree: Sequence[float], grays: Sequence[int], depth: int) -> list[float]:
    # Every lane from its leaf up the remaining radicals, then the closing
    # map, in _tower's expressions, so each lane is bitwise _tower's.
    # Radical m steps by Gray bit m - 1: clear in every lane, the + pass
    # (four in a row fused); set in every lane, the - pass; else per lane.
    # Above the tree every bit of an aligned sweep chunk is uniform: the
    # Gray codes of 2**h aligned indices differ only in their low h bits.
    sqrt = math.sqrt
    low = len(tree) - 1
    lanes = [tree[g & low] for g in grays]
    any_set = reduce(or_, grays, 0)
    all_set = reduce(and_, grays, -1)
    i = low.bit_length() + 1
    while i < depth:
        bit = 1 << (i - 1)
        if i + 4 <= depth and not any_set >> (i - 1) & 15:
            lanes = [p / (2.0 + sqrt(4.0 - p)) for v in lanes
                     for p in [v / (2.0 + sqrt(4.0 - v))]
                     for p in [p / (2.0 + sqrt(4.0 - p))]
                     for p in [p / (2.0 + sqrt(4.0 - p))]]
            i += 3  # and one more below
        elif not any_set & bit:
            lanes = [p / (2.0 + sqrt(4.0 - p)) for p in lanes]
        elif all_set & bit:
            lanes = [2.0 - sqrt(p) if p != 2.0 else p / (2.0 + sqrt(4.0 - p))
                     for p in lanes]
        else:
            lanes = [2.0 - sqrt(p) if g & bit and p != 2.0
                     else p / (2.0 + sqrt(4.0 - p)) for p, g in zip(lanes, grays)]
        i += 1
    scale = 2.0 ** depth
    return [scale * sqrt(p) for p in lanes]


def nested_acos(y: Scalar, depth: int = 10) -> Scalar:
    """Principal inverse cosine as a tower of depth half-angle radicals.

    Real y in [-1, 1] gives a nonnegative float, off acos(y) by up to the
    truncation acos(y)**3 / (24 * 4**depth) plus a few eps of roundoff at
    any depth: the tower carries each iterate's deviation from +-1, so no
    digits are lost near 1.  Other input follows the principal sheet of
    each square root, so e.g. y > 1 is a positive multiple of 1j.
    """
    check_depth(depth)
    return _tower(y, depth, 0, False)


def nested_acosh(y: Scalar, depth: int = 10) -> Scalar:
    """Principal inverse hyperbolic cosine from the same radical tower."""
    check_depth(depth)
    return _tower(y, depth, 0, True)


def _inverse_sequence(y: Scalar, depth: int, hyperbolic: bool) -> list[Scalar]:
    check_depth(depth)
    ys: list[Scalar] = []
    value = _tower(y, depth, 0, hyperbolic, ys)
    return ys + [value]


def nested_acos_sequence(y: Scalar, depth: int = 10) -> list[Scalar]:
    """Inverse iterates followed by the scaled closing value.

    Returns depth + 1 entries; the last one equals nested_acos(y, depth).
    """
    return _inverse_sequence(y, depth, False)


def nested_acosh_sequence(y: Scalar, depth: int = 10) -> list[Scalar]:
    """Hyperbolic counterpart of nested_acos_sequence."""
    return _inverse_sequence(y, depth, True)


def _odd(v: Scalar, z: Scalar) -> Scalar:
    # The square roots lose the sign of real z; an odd inverse gets it back.
    if _is_real(z) and _real(z) < 0.0:
        return -v
    return v


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


def log_limit(y: Scalar, n: int) -> Scalar:
    """The limit n*(y**(1/n) - 1) with the root as a chain of square roots.

    n must be a power of two so the n-th root stays radical-only.
    Raises ZeroDivisionError at y = 0 (log pole).
    """
    if not _is_int(n) or n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    if y == 0:
        raise ZeroDivisionError("logarithm of zero")
    for _ in range(n.bit_length() - 1):
        y = principal_sqrt(y)
    return n * (y - 1.0)


def _index_error(k: object, limit: str, bound: str) -> ValueError:
    # An index of the wrong type is out of range too; the message names it.
    need = bound if _is_int(k) else f"an int {bound}, got {type(k).__name__}"
    return ValueError(f"branch index {k!r} out of range for {limit}; need {need}")


def _check_index(k: int, width: int) -> None:
    if not _is_int(width) or width < 1:
        raise ValueError(f"width must be a positive integer, got {width}")
    if width > DEPTH_MAX:
        raise ValueError(f"width {width} exceeds {DEPTH_MAX}; a tower has at "
                         f"most {DEPTH_MAX} radicals")
    if not _is_int(k) or not 0 <= k < 2 ** (width - 1):
        raise _index_error(k, f"width {width}", f"0 <= k < {2 ** (width - 1)}")


def gray_signs(k: int, width: int) -> tuple[int, ...]:
    """Sign tuple (+1/-1) of branch k for a radical tower of the given width.

    Entry m applies after the m-th radical counting from the innermost.
    Bit m of the Gray code k ^ (k >> 1) set means entry m is -1.  The
    outermost slot is the leading Gray bit and stays +1 for every valid
    k, hence the bound k < 2**(width - 1).  width is at most DEPTH_MAX.
    """
    _check_index(k, width)
    g = _gray(k)
    return tuple(-1 if (g >> m) & 1 else 1 for m in range(width))


def gray_adjacent_distance(k: int, width: int) -> int:
    """Number of sign slots that differ between branches k and k + 1."""
    _check_index(k, width)
    _check_index(k + 1, width)
    return (_gray(k) ^ _gray(k + 1)).bit_count()


def _branch(y: Scalar, k: int, depth: int, hyperbolic: bool) -> Scalar:
    check_depth(depth)
    half = 2 ** (depth - 1)
    if not _is_int(k) or not -half <= k < half:
        raise _index_error(k, f"depth {depth}", f"{-half} <= k < {half}")
    if k < 0:
        return -_tower(y, depth, _gray(-k - 1), hyperbolic)
    return _tower(y, depth, _gray(k), hyperbolic)


def nested_acos_branch(y: Scalar, k: int, depth: int = 10) -> Scalar:
    """Branch k of the inverse cosine from the signed radical tower.

    k = 0 reproduces nested_acos.  Negative k mirrors through zero:
    branch -k of a value is minus branch k - 1, covering the branches
    below the principal one, so -2**(depth-1) <= k < 2**(depth-1).
    """
    return _branch(y, k, depth, False)


def nested_acosh_branch(y: Scalar, k: int, depth: int = 10) -> Scalar:
    """Branch k of the inverse hyperbolic cosine; mirrors nested_acos_branch."""
    return _branch(y, k, depth, True)
