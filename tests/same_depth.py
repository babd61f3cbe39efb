"""The same-depth value of a radical tower in closed form (Viete's partial product).

After m half-angle radicals the iterate of branch k is exactly cos(a/2**m),
where a is branch k of the inverse cosine, so the closing map makes the
depth-n tower exactly

    S_n = 2**n * sqrt(2*(1 - cos(a/2**n))) = 2**(n+1) * sin(a/2**(n+1)),

and the acosh tower 2**(n+1) * sinh(h/2**(n+1)), with h branch k of the
inverse hyperbolic cosine.  S_n splits a tower's error in two: the tower
minus S_n is roundoff, S_n minus a is truncation.  The two bounds below
are derived, not fitted.

A test reference only, on the standard library: it calls sin, so no
evaluator may ever use it.
"""

import cmath
import math
import sys

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
