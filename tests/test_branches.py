"""Gray-coded sign towers and branch selection for the radical inverses."""

import math
import re

import pytest

from nestrad import (
    DEPTH_MAX,
    branch_oracle_acos,
    extract_branch,
    gray_adjacent_distance,
    gray_signs,
    nested_acos,
    nested_acos_branch,
    nested_acos_sequence,
    nested_acosh,
    nested_acosh_branch,
    nested_acosh_sequence,
)

YGRID = (-0.9, -0.5, 0.0, 0.5, 0.9)


def test_branch_zero_is_all_plus():
    assert gray_signs(0, 6) == (1,) * 6


@pytest.mark.parametrize("k,pattern", [
    (0, "++++"), (1, "+++-"), (2, "++--"), (3, "++-+"),
    (4, "+--+"), (5, "+---"), (6, "+-+-"), (7, "+-++"),
])
def test_innermost_four_slots_small_branches(k, pattern):
    # Outermost of the four printed first; the remaining slots stay +.
    signs = gray_signs(k, 10)
    assert "".join("+" if s > 0 else "-" for s in reversed(signs[:4])) == pattern
    assert all(s == 1 for s in signs[4:])


def test_sign_sequence_range_errors():
    with pytest.raises(ValueError, match="0 <= k < 8"):
        gray_signs(8, 4)
    with pytest.raises(ValueError):
        gray_signs(-1, 4)
    with pytest.raises(ValueError, match="width"):
        gray_signs(0, 0)
    # Both ends of the adjacent pair are checked: k itself and k + 1.
    with pytest.raises(ValueError, match="branch index -1 out of range"):
        gray_adjacent_distance(-1, 4)
    with pytest.raises(ValueError, match="branch index 8 out of range"):
        gray_adjacent_distance(2 ** 3 - 1, 4)
    # Indices and widths are ints; bool and float are rejected like a
    # value out of range, with the type named.
    for k, kind in ((2.5, "float"), (True, "bool"), (1.0, "float"),
                    ("3", "str"), (None, "NoneType")):
        with pytest.raises(ValueError, match=rf"branch index {k!r} out of range "
                           rf"for width 4; need an int 0 <= k < 8, got {kind}$"):
            gray_signs(k, 4)
    for width in (4.0, True):
        with pytest.raises(ValueError, match="width must be a positive integer"):
            gray_signs(0, width)


def test_width_stops_at_the_tallest_tower():
    # No tower has more than DEPTH_MAX radicals, so a wider pattern is
    # rejected before the bound 2**(width - 1) is formed.
    assert len(gray_signs(0, DEPTH_MAX)) == DEPTH_MAX == 1023
    message = "width 1024 exceeds 1023; a tower has at most 1023 radicals"
    for fn in (gray_signs, gray_adjacent_distance):
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(0, 1024)


def test_adjacent_branches_differ_in_one_slot():
    for width in range(2, 9):
        for k in range(2 ** (width - 1) - 1):
            assert gray_adjacent_distance(k, width) == 1
    # Top of the width-16 range as well.
    assert gray_adjacent_distance(2 ** 15 - 2, 16) == 1


def test_branch_zero_is_principal_bitwise():
    # repr tells signed zeros apart, so equal reprs mean equal bits.
    ys = (-0.7, 0.2, 0.9, 2.0, 2 + 1j, -0.0, complex(-2.0, 0.0),
          complex(-2.0, -0.0), 1e300)
    for depth in (1, 10, 30):
        for y in ys:
            for principal, branch, sequence in (
                    (nested_acos, nested_acos_branch, nested_acos_sequence),
                    (nested_acosh, nested_acosh_branch, nested_acosh_sequence)):
                p = repr(principal(y, depth))
                assert repr(branch(y, 0, depth)) == p
                assert repr(sequence(y, depth)[-1]) == p
                if depth > 1:
                    assert repr(-branch(y, -1, depth)) == p


def test_negative_branch_is_exact_mirror():
    for k in range(5):
        assert nested_acos_branch(0.3, -k - 1, 10) == \
            -nested_acos_branch(0.3, k, 10)


def test_negative_branch_range_error():
    # One signed range, -512 <= k < 512 at depth 10: every branch has its
    # mirror, the top one 511 included.
    for branch in (nested_acos_branch, nested_acosh_branch):
        assert repr(branch(0.3, -512, 10)) == repr(-branch(0.3, 511, 10))
        for k in (-513, 512):
            with pytest.raises(ValueError, match=f"branch index {k} out of range"
                               r" for depth 10; need -512 <= k < 512$"):
                branch(0.0, k, 10)
    # A non-int index names its type, whatever its sign.
    for k, kind in ((True, "bool"), (2.5, "float"), (-2.5, "float"),
                    (-1.0, "float")):
        for branch in (nested_acos_branch, nested_acosh_branch):
            with pytest.raises(ValueError, match=f"branch index {k} out of range"
                               f" for depth 10; need an int -512 <= k < 512, "
                               f"got {kind}$"):
                branch(0.0, k, 10)
    # An index that does not compare with 0 is rejected the same way, not
    # with a TypeError from the sign test.
    for k, kind in (("3", "str"), (None, "NoneType"), (1j, "complex")):
        for branch in (nested_acos_branch, nested_acosh_branch):
            with pytest.raises(ValueError, match="branch index .* out of range "
                               rf"for depth 10; need an int -512 <= k < 512, got {kind}$"):
                branch(0.0, k, 10)


def test_branch_values_match_oracle_depth_15():
    for k in range(32):
        for y in YGRID:
            v = nested_acos_branch(y, k, 15)
            assert abs(v - branch_oracle_acos(y, k)) <= 1e-5 * (1 + k)


def test_branch_round_trip_depth_15():
    for k in range(32):
        for y in YGRID:
            assert abs(math.cos(nested_acos_branch(y, k, 15)) - y) <= 1e-4


def test_small_branch_degrades_at_depth_25():
    # The same grid point that round-trips to 4e-5 at depth 15 was off by
    # several hundredths at depth 25 on the literal tower, whose iterate
    # was quantized against 1.0.  The deviation tower does not degrade:
    # at depth 25 the round trip is within an ulp of 0.5.
    assert abs(math.cos(nested_acos_branch(0.5, 0, 15)) - 0.5) <= 1e-4
    assert abs(math.cos(nested_acos_branch(0.5, 0, 25)) - 0.5) <= 2.0 ** -52


@pytest.mark.parametrize("k", [0, 10, 100, 1000, 10000])
def test_extracted_branch_rounds_to_index(k):
    assert round(extract_branch(nested_acos_branch(0.0, k, 25))) == k


def test_double_branch_ties_at_unit_inputs():
    # At y = +1 branches 2j-1 and 2j coincide exactly; at y = -1 branches
    # 2j and 2j+1 do: the sign slot that separates them acts on an iterate
    # pinned by the unit input.
    for depth in (10, 25):
        for j in range(1, 6):
            assert nested_acos_branch(1.0, 2 * j - 1, depth) == \
                nested_acos_branch(1.0, 2 * j, depth)
        for j in range(0, 5):
            assert nested_acos_branch(-1.0, 2 * j, depth) == \
                nested_acos_branch(-1.0, 2 * j + 1, depth)


def test_extract_branch_halfturn_points():
    assert extract_branch(math.pi / 2) == 0.0
    assert extract_branch(3 * math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    # Complex input extracts from the real part only.
    assert extract_branch(complex(3 * math.pi / 2, 7.0)) == pytest.approx(
        1.0, abs=1e-15)


def test_branch_oracle_closed_form():
    for k in range(6):
        assert branch_oracle_acos(0.0, k) == pytest.approx(
            (2 * k + 1) * math.pi / 2, rel=1e-15)
    assert branch_oracle_acos(0.5, 2) == pytest.approx(
        2 * math.pi + math.acos(0.5), rel=1e-15)
    assert branch_oracle_acos(0.5, 3) == pytest.approx(
        4 * math.pi - math.acos(0.5), rel=1e-15)


def test_branch_oracle_domain_errors():
    with pytest.raises(ValueError, match="\\[-1, 1\\]"):
        branch_oracle_acos(2.0, 0)
    with pytest.raises(ValueError, match=">= 0"):
        branch_oracle_acos(0.0, -1)
    for k in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=">= 0"):
            branch_oracle_acos(0.0, k)


def test_acosh_branch_principal_of_minus_one():
    v = nested_acosh_branch(-1.0, 0, 10)
    assert v == pytest.approx(3.1415914215111997j, rel=1e-12)
    assert abs(v - math.pi * 1j) <= 1e-5


def test_acosh_branch_on_the_segment_rotates_circular():
    # On [-1, 1] every hyperbolic branch is 1j times the circular one up
    # to the shared tower error.
    v = nested_acosh_branch(0.5, 2, 10)
    assert v == pytest.approx(7.330367206416667j, rel=1e-12)
    assert abs(v - 1j * branch_oracle_acos(0.5, 2)) <= 2e-5
