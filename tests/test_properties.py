"""Hypothesis properties of the branch towers and the inverse-cosine oracles.

Every property runs derandomized and without an example database, so a
run draws the same inputs each time and saves no examples between runs.
Hypothesis still caches the constants it finds in the source under
.hypothesis/, which .gitignore lists.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestrad import FUNCTIONS, nested_acos_branch, nested_acosh_branch

REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None,
                        max_examples=500)

# Real arguments up to 1e6 in magnitude and complex ones with parts up
# to 1e3: the tower leaves the float range nowhere in there.
ARGS = st.one_of(
    st.floats(-1e6, 1e6),
    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)


@st.composite
def towers(draw, mirrored=False):
    # (y, k, depth) with 0 <= k < 2**(depth - 1), the branches a depth
    # has; mirrored, k also has branch -k-1, whose |-k-1| < 2**(depth - 1).
    depth = draw(st.integers(1 + mirrored, 30))
    k = draw(st.integers(0, 2 ** (depth - 1) - 1 - mirrored))
    return draw(ARGS), k, depth


def quarter_turn(a):
    # The acosh oracle's rule: +-1j*a, whichever has a positive real part,
    # or a zero one with a nonnegative imaginary part.
    a = complex(a)
    h = complex(-a.imag, a.real)
    return h if h.real > 0.0 or (h.real == 0.0 and h.imag >= 0.0) else -h


@REPRODUCIBLE
@given(towers(mirrored=True))
def test_negative_branches_mirror_bitwise(case):
    y, k, depth = case
    for branch in (nested_acos_branch, nested_acosh_branch):
        assert repr(branch(y, -k - 1, depth)) == repr(-branch(y, k, depth))


@REPRODUCIBLE
@given(towers())
def test_acosh_branch_is_the_quarter_turn_of_acos(case):
    # The closing radical of the acosh tower picks the same rotation of
    # the acos tower's value as the oracle does, to a few ulps.
    y, k, depth = case
    v = nested_acosh_branch(y, k, depth)
    want = quarter_turn(nested_acos_branch(y, k, depth))
    assert abs(v - want) <= 4 * 2 ** -52 * max(abs(v), 1.0)


@REPRODUCIBLE
@given(st.one_of(st.floats(allow_nan=False),
                 st.builds(complex, st.floats(-1e300, 1e300),
                           st.floats(-1e300, 1e300))))
@example(0.5)
def test_acosh_oracle_branch_zero_is_principal(z):
    # The principal sheet: a positive real part, or a zero one on the upper
    # imaginary axis, and an imaginary part in [-pi, pi].
    v = FUNCTIONS["acosh"].oracle(z, 0)
    assert v.real > 0.0 or (v.real == 0.0 and v.imag >= 0.0), v
    assert -math.pi <= v.imag <= math.pi, v
