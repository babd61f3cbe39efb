"""The tests' radical towers, and their same-depth value in closed form.

After m half-angle radicals the iterate of branch k is exactly cos(a/2**m),
where a is branch k of the inverse cosine, so the closing map makes the
depth-n tower exactly

    S_n = 2**n * sqrt(2*(1 - cos(a/2**n))) = 2**(n+1) * sin(a/2**(n+1)),

and the acosh tower 2**(n+1) * sinh(h/2**(n+1)), with h branch k of the
inverse hyperbolic cosine.  S_n splits a tower's error in two: the tower
minus S_n is roundoff, S_n minus a is truncation.  The two bounds below
are derived, not fitted.  S_n is Viete's partial product.

The literal towers: ``radicals`` is the tests' one loop of Gray-signed
half-angle radicals.  ``literal_tower`` runs it on principal_sqrt, and
``mp_tower`` in mpmath at the caller's working precision, beside the
forward ``mp_chain``.  Only those two need mpmath, and they import it
when called.

A test reference only: it calls sin, so no evaluator may ever use it.
"""

import cmath
import math
import sys

from nestrad.core import principal_sqrt
from nestrad.verify import _acos_oracle, _acosh_oracle

EPS = sys.float_info.epsilon

# Roundoff.  Write each iterate as cos(phi).  A radical step rounds twice,
# the sum y + 1 and the root, each to within u*|result| with u = EPS:
# float operations are within EPS/2, complex addition rounds each part and
# cmath.sqrt is within about an ulp.  Roundoff builds up where an iterate
# nears +-1 and cos is flat: there a change d of the iterate moves phi by
# at most acos(1 - d) = 2*asin(sqrt(d/2)), about sqrt(2*d); elsewhere by
# about d/|sin phi|, far less.  Near +-1, |y + 1| <= 2 and the root is
# about 1 in size, so a step moves phi by sqrt(2*2u)/2 = sqrt(u) through
# the sum, which the step halves, and by sqrt(2u) through the root.  Each
# later step halves that (1 + sqrt(2))*sqrt(u), so phi at the top is off
# by less than twice it, and the closing map 2**(n+1)*sin(phi/2) scales
# that by at most 2**n.  The closing root and S_n's own rounding add a
# few ulps of S_n (test_same_depth_matches_60_digit_towers allows 4).
ROUNDOFF_C = 2.0 * (1.0 + math.sqrt(2.0))


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
    return ROUNDOFF_C * 2.0 ** depth * math.sqrt(EPS) + 4.0 * EPS * abs(s)


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


def literal_tower(y, depth, gray, outer):
    """core._tower's tower with principal_sqrt on every radical, any input."""
    return (2.0 ** depth) * outer(radicals(y, depth, gray, principal_sqrt))


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


def mp_chain(x, depth, order):
    """The forward chain's iterates at x, in mpmath.

    The even series of ``order`` terms at x/2**depth, then ``depth``
    literal steps -1 + 2*y**2.
    """
    import mpmath

    t = mpmath.mpf(x) / 2 ** depth
    ys = [sum((-t * t) ** j / mpmath.factorial(2 * j) for j in range(order))]
    for _ in range(depth):
        ys.append(2 * ys[-1] ** 2 - 1)
    return ys
