"""The closed-form same-depth values against 60-digit radical towers."""

import pytest

mpmath = pytest.importorskip("mpmath")

from same_depth import EPS, acos_same_depth, acosh_same_depth, mp_tower

# Real y in and off [-1, 1] and complex y, large ones included.
_YS = [-1.0, -0.5, 0.0, 0.3, 1.0, 1.5, -2.0, 1e6, -1e6,
       0.3 - 0.1j, 2 + 3j, -2 + 3j, 1e6 + 1j, -1e6 + 1j]


@pytest.mark.parametrize("depth", [3, 10, 25])
@pytest.mark.parametrize("y", _YS)
def test_same_depth_matches_60_digit_towers(y, depth):
    # A few ulps: the oracle's angle is within about two, the sine adds
    # about one, and both scalings by 2**(n+1) are exact.  Branch -k-1 is
    # minus branch k, so its towers are the negated ones.
    for k in range(min(101, 2 ** (depth - 1))):
        with mpmath.workdps(60):
            c, h = (complex(mp_tower(y, k, depth, hyperbolic))
                    for hyperbolic in (False, True))
        for branch, sign in ((k, 1), (-k - 1, -1)):
            for got, want in ((acos_same_depth(y, branch, depth), sign * c),
                              (acosh_same_depth(y, branch, depth), sign * h)):
                assert abs(got - want) <= 4 * EPS * abs(want), (y, branch, depth)
