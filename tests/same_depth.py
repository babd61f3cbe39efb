"""The tests' radical towers, and their same-depth value in closed form.

After m half-angle radicals the iterate of branch k is exactly cos(a/2**m),
where a is branch k of the inverse cosine, so the closing map makes the
depth-n tower exactly

    S_n = 2**n * sqrt(2*(1 - cos(a/2**n))) = 2**(n+1) * sin(a/2**(n+1)),

and the acosh tower 2**(n+1) * sinh(h/2**(n+1)), with h branch k of the
inverse hyperbolic cosine.  S_n splits a tower's error in two: the tower
minus S_n is roundoff, S_n minus a is truncation.  The two bounds below
are derived, not fitted.  S_n is Viete's partial product.

The towers: ``radicals`` is the tests' one loop of Gray-signed literal
half-angle radicals, which ``mp_tower`` runs in mpmath at the caller's
working precision, beside the forward ``mp_pairs`` and its cosine column
``mp_chain``.  Only those need mpmath, and they import it when called.
``deviation_tower`` is the library's float tower written out on
principal_sqrt, with no fast path.

A test reference only: it calls sin, so no evaluator may ever use it.
"""

import cmath
import math
import sys

from nestrad.core import principal_sqrt
from nestrad.verify import _acos_oracle, _acosh_oracle

EPS = sys.float_info.epsilon

# Roundoff.  The tower carries each iterate +-(1 - d) as p = 2d, so no
# step rounds an iterate near +-1.  A + radical p/(2 + sqrt(4 - p)) rounds
# four times, each within u = EPS/2 of its result: 4 - p, its root (which
# also passes on half of the difference's error), 2 + root (at most half
# of the root's, since root <= 2 + root) and the quotient, so p leaves it
# within 2.75u = 1.375 EPS relative of the exact step of the rounded p.
# The exact + step passes p's own relative error on at a factor of
# 1 + p/16 for small p, up to 1.21 at p = 2, and p shrinks fourfold per
# + radical; a - radical 2 - sqrt(p) passes it on at most at 1.21 too,
# and damps it for small p.  The closing root halves p's relative error,
# so each radical costs the value about 0.7 EPS, or 1 EPS with those
# factors, plus half an ulp for the closing root and 4 ulps of S_n's own
# rounding (test_same_depth_matches_60_digit_towers allows 4), relative
# to max(|S_n|, 1).  Complex towers round in cmath.sqrt and complex
# division to within a few ulps as well.  On 20,000 random draws of real
# and complex y, branches and depths 1-30 the worst was 4.2 EPS against
# S_n, far inside the bound's 35 EPS at depth 30.
ROUNDOFF_STEP = 1.0
ROUNDOFF_C = 5.0


def acos_same_depth(y, k, depth):
    """Branch k of the depth-``depth`` acos tower at y, as a complex."""
    scale = 2.0 ** (depth + 1)
    return scale * cmath.sin(_acos_oracle(y, k) / scale)


def acosh_same_depth(y, k, depth):
    """Branch k of the depth-``depth`` acosh tower at y, as a complex."""
    scale = 2.0 ** (depth + 1)
    return scale * cmath.sinh(_acosh_oracle(y, k) / scale)


def roundoff_bound(s, depth):
    """Largest |tower - S_n| the rounding of a depth-``depth`` tower allows."""
    return (ROUNDOFF_STEP * depth + ROUNDOFF_C) * EPS * max(abs(s), 1.0)


def truncation_bound(a, depth):
    """Largest |S_n - a|: the cubic term |a|**3/(24*4**n) times its factor.

    With x = a/2**(n+1), S_n - a = 2**(n+1)*(sin x - x), and sin x - x and
    sinh x - x are the series sum of (-+1)**j * x**(2j+1)/(2j+1)! over
    j >= 1, so both are at most sinh r - r in size, r = |x|.  That is the
    cubic term times 6*(sinh r - r)/r**3 = sum of 6*r**(2j)/(2j+3)!
    (j >= 0), which is 1 at r = 0 and grows with r; it is summed here
    term by term, without the cancellation of sinh r - r.
    """
    r2 = (abs(a) / 2.0 ** (depth + 1)) ** 2
    factor = term = 1.0
    j = 0
    while term > EPS * factor:
        j += 1
        term *= r2 / ((2 * j + 2) * (2 * j + 3))
        factor += term
    return abs(a) ** 3 / (24.0 * 4.0 ** depth) * factor


def radicals(y, depth, gray, sqrt):
    """The iterate after ``depth`` half-angle radicals of y under sqrt.

    The iterate after radical m is negated when bit m of gray is set.
    """
    for m in range(depth):
        y = sqrt((y + 1.0) / 2.0)
        if gray >> m & 1:
            y = -y
    return y


def deviation_tower(y, depth, gray, hyperbolic, ys=None):
    """core._tower's loop with principal_sqrt on every radical, any input.

    The iterate after radical m is +-(1 - d), - when bit m of gray is set,
    carried as p = 2d; a = 4r is four times the radicand r = (v + 1)/2 of
    iterate v.  ys, given a list, gets each iterate as core._tower records
    it.  gray must stay below 2**(depth - 1).  Real +inf on branch 0 stays
    +inf at every radical, as in core._tower, where the loop's + step would
    make -inf/inf.
    """
    neg = (y.real if isinstance(y, complex) else y) < 0.0
    p = 2.0 * (1.0 + y) if neg else 2.0 * (1.0 - y)
    if y == math.inf and not gray:
        if ys is not None:
            ys.extend([math.inf] * depth)
        return math.inf if hyperbolic else complex(0.0, math.inf)
    for m in range(depth):
        a, b = (p, 4.0 - p) if neg else (4.0 - p, p)
        s = principal_sqrt(a)
        p = 2.0 - s if a.real < 2.0 else b / (2.0 + s)
        neg = gray >> m & 1
        if ys is not None:
            ys.append(p * 0.5 - 1.0 if neg else 1.0 - p * 0.5)
    return 2.0 ** depth * principal_sqrt(0.0 - p if hyperbolic else p)


def mp_tower(y, k, depth, hyperbolic):
    """Branch k of the depth-``depth`` acos or acosh tower at y, in mpmath.

    The formula read off the paper, independent of nestrad: the radicals
    signed by the Gray code k ^ (k >> 1), then the closing radical scaled
    by 2**depth.  mpmath.sqrt is principal with +i on the cut.  Negative
    k is minus branch -k - 1.
    """
    import mpmath

    if k < 0:
        return -mp_tower(y, -k - 1, depth, hyperbolic)
    v = radicals(mpmath.mpmathify(y), depth, k ^ (k >> 1), mpmath.sqrt)
    return 2 ** depth * mpmath.sqrt(2 * (v - 1) if hyperbolic
                                    else 2 * (1 - v))


def mp_pairs(x, depth, order, hyperbolic=False):
    """The forward chain's (c, s) iterates at x, in mpmath.

    The seed is core._seed's, exact: c = 1 + u*q, the even series of
    ``order`` terms at t = x/2**depth with u = -t**2 (+t**2 when
    hyperbolic) and q the sum of u**(j-1)/(2j)! for 0 < j < order, and
    s = t*sqrt(q*(2 + u*q)), the root of +-(1 - c**2) with t's sign; at
    orders 2 to 4 and real x it is real when hyperbolic or when |t| <= 2,
    where 2 + u*q >= 2/3 at order 3 and > 0.57 at order 4.  Then
    ``depth`` literal steps (c, s) <- (2c**2 - 1, 2sc).
    """
    import mpmath

    t = mpmath.mpf(x) / 2 ** depth
    u = t * t if hyperbolic else -t * t
    q = sum(u ** (j - 1) / mpmath.factorial(2 * j) for j in range(1, order))
    pairs = [(1 + u * q, t * mpmath.sqrt(q * (2 + u * q)))]
    for _ in range(depth):
        c, s = pairs[-1]
        pairs.append((2 * c * c - 1, 2 * s * c))
    return pairs


def mp_chain(x, depth, order):
    """The circular chain's cosine iterates at x: mp_pairs' c column."""
    return [c for c, _ in mp_pairs(x, depth, order)]
