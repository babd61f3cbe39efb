"""The closed-form same-depth values against 60-digit radical towers."""

import pytest

mpmath = pytest.importorskip("mpmath")

from nestrad.core import _gray
from same_depth import EPS, acos_same_depth, acosh_same_depth

# Real y in and off [-1, 1] and complex y, large ones included.
_YS = [-1.0, -0.5, 0.0, 0.3, 1.0, 1.5, -2.0, 1e6, -1e6,
       0.3 - 0.1j, 2 + 3j, -2 + 3j, 1e6 + 1j, -1e6 + 1j]


def _mp_towers(y, k, depth):
    # Branch k >= 0 of the acos and acosh towers at 60 digits: the same
    # radicals and Gray signs as the float tower, each exactly rounded.
    with mpmath.workdps(60):
        g = _gray(k)
        v = mpmath.mpmathify(y)
        for m in range(depth):
            v = mpmath.sqrt((v + 1) / 2)
            if g >> m & 1:
                v = -v
        scale = mpmath.mpf(2) ** depth
        return (complex(scale * mpmath.sqrt(2 * (1 - v))),
                complex(scale * mpmath.sqrt(2 * (v - 1))))


@pytest.mark.parametrize("depth", [3, 10, 25])
@pytest.mark.parametrize("y", _YS)
def test_same_depth_matches_60_digit_towers(y, depth):
    # A few ulps: the oracle's angle is within about two, the sine adds
    # about one, and both scalings by 2**(n+1) are exact.  Branch -k-1 is
    # minus branch k, so its towers are the negated ones.
    for k in range(min(101, 2 ** (depth - 1))):
        c, h = _mp_towers(y, k, depth)
        for branch, sign in ((k, 1), (-k - 1, -1)):
            for got, want in ((acos_same_depth(y, branch, depth), sign * c),
                              (acosh_same_depth(y, branch, depth), sign * h)):
                assert abs(got - want) <= 4 * EPS * abs(want), (y, branch, depth)
