"""Forward doubling chains, radical inverse towers, and their guards."""

import math
import sys

import pytest

from nestrad import (
    DEFAULT_CONFIG,
    DEPTH_CAP,
    EvalConfig,
    acos_outer,
    acosh_outer,
    check_depth,
    cos_seed,
    cosh_seed,
    double_angle_step,
    half_angle_step,
    nested_acos,
    nested_acos_sequence,
    nested_acosh,
    nested_acosh_sequence,
    nested_cos,
    nested_cos_sequence,
    nested_cosh,
    principal_sqrt,
)

EPS = sys.float_info.epsilon


def test_default_config():
    assert DEFAULT_CONFIG.depth == 10
    assert DEFAULT_CONFIG.seed_order == 2
    assert DEFAULT_CONFIG.allow_deep is False


def test_config_rejects_nonpositive_depth():
    for depth in (0, 2.5, True):
        with pytest.raises(ValueError, match="positive"):
            EvalConfig(depth, 2)


def test_config_rejects_depth_beyond_cap():
    with pytest.raises(ValueError, match="allow_deep"):
        EvalConfig(DEPTH_CAP + 1, 2)


def test_config_allow_deep_lifts_cap():
    cfg = EvalConfig(DEPTH_CAP + 1, 2, allow_deep=True)
    assert nested_cos(0.0, cfg) == 1.0


def test_config_rejects_bad_seed_order():
    with pytest.raises(ValueError, match="seed_order"):
        EvalConfig(10, 5)


def test_check_depth_boundaries():
    check_depth(1)
    check_depth(DEPTH_CAP)
    check_depth(DEPTH_CAP + 1, allow_deep=True)
    with pytest.raises(ValueError):
        check_depth(0)
    with pytest.raises(ValueError):
        check_depth(DEPTH_CAP + 1)
    for depth in (2.5, True):
        with pytest.raises(ValueError, match="positive integer"):
            check_depth(depth)
        with pytest.raises(ValueError, match="positive integer"):
            nested_acos(0.5, depth)


def test_principal_sqrt_real_stays_float():
    v = principal_sqrt(4.0)
    assert v == 2.0
    assert isinstance(v, float)


def test_principal_sqrt_negative_real_goes_to_upper_sheet():
    assert principal_sqrt(-4.0) == 2j


def test_principal_sqrt_ignores_sign_of_zero_imaginary():
    # Inputs landing exactly on the cut must not drop to the lower sheet.
    assert principal_sqrt(complex(-4.0, -0.0)) == 2j


def test_principal_sqrt_complex():
    assert principal_sqrt(complex(9.0, 0.0)) == 3.0
    assert principal_sqrt(3 + 4j) == pytest.approx(2 + 1j, rel=1e-15)


def test_cosh_seed_two_terms_exact():
    # Depth 1, two terms: 1 + (1/2)**2 / 2 = 1.125 with no rounding.
    assert cosh_seed(1.0, EvalConfig(1, 2)) == 1.125


def test_seed_even_in_argument():
    cfg = EvalConfig(7, 4)
    assert cos_seed(-1.3, cfg) == cos_seed(1.3, cfg)


def test_cosh_seed_matches_rotated_cos_seed():
    cfg = EvalConfig(4, 4)
    assert cosh_seed(1.0, cfg) == cos_seed(1j, cfg).real


def test_double_angle_step_tabulated_iterate():
    # The input is itself a 15-digit rounding of the true iterate, and the
    # map amplifies that displacement fourfold, so equality is relative.
    assert double_angle_step(0.997858158767125) == pytest.approx(
        0.991441810036233, rel=1e-14)


def test_half_angle_step_tabulated_iterate():
    assert half_angle_step(0.707106781186548) == pytest.approx(
        0.923879532511287, rel=1e-15)


@pytest.mark.parametrize("npts,step", [(21, 0.05), (41, 0.025)])
def test_half_angle_inverts_double_angle(npts, step):
    for i in range(npts):
        x = i * step
        assert abs(half_angle_step(double_angle_step(x)) - x) <= 4 * EPS


def test_outer_maps():
    assert acos_outer(1.0) == 0.0
    assert acos_outer(0.995184726672197) == pytest.approx(
        0.098135348654836, rel=1e-12)
    assert acosh_outer(1.0) == 0.0
    assert acosh_outer(0.0) == complex(0.0, math.sqrt(2.0))


@pytest.mark.parametrize("depth,order,expected", [
    (4, 2, 0.499838043607131),
    (10, 2, 0.499999960463562),
    (4, 4, 0.499999999998225),
])
def test_cos_third_of_pi(depth, order, expected):
    assert nested_cos(math.pi / 3, EvalConfig(depth, order)) == pytest.approx(
        expected, rel=1e-10)


SEQ_THIRD_D4_O2 = [
    0.997858158767125, 0.991441810036233, 0.965913725375842,
    0.865978649738875, 0.499838043607131,
]
SEQ_THIRD_D10_O2 = [
    0.999999477089543, 0.999997908358718, 0.999991633443621,
    0.999966533914483, 0.999866137897891, 0.999464587429687,
    0.997858923051989, 0.991444860628951, 0.965925823335118,
    0.866025392371252, 0.499999960463562,
]
SEQ_THIRD_D4_O4 = [
    0.997858923238595, 0.991444861373777, 0.965925826288936,
    0.866025403783926, 0.499999999998225,
]


@pytest.mark.parametrize("depth,order,expected", [
    (4, 2, SEQ_THIRD_D4_O2),
    (10, 2, SEQ_THIRD_D10_O2),
    (4, 4, SEQ_THIRD_D4_O4),
])
def test_cos_iterate_sequences(depth, order, expected):
    seq = nested_cos_sequence(math.pi / 3, EvalConfig(depth, order))
    assert len(seq) == depth + 1
    for got, want in zip(seq, expected):
        assert got == pytest.approx(want, rel=1e-12)
    assert seq[-1] == nested_cos(math.pi / 3, EvalConfig(depth, order))


def test_cos_even_bitwise_real():
    for i in range(30):
        x = 0.1 + 0.1 * i
        assert nested_cos(-x, DEFAULT_CONFIG) == nested_cos(x, DEFAULT_CONFIG)


def test_cos_even_bitwise_complex():
    for z in (1 + 2j, -0.3 + 0.7j, 2 - 3j):
        assert nested_cos(-z, DEFAULT_CONFIG) == nested_cos(z, DEFAULT_CONFIG)


def test_zero_argument_is_exact_fixed_point():
    for cfg in (EvalConfig(1, 1), EvalConfig(10, 2), EvalConfig(30, 4)):
        assert all(v == 1.0 for v in nested_cos_sequence(0.0, cfg))
        assert nested_cos(0.0, cfg) == 1.0


def test_overflow_reports_the_doubling_step():
    with pytest.raises(OverflowError, match="doubling step"):
        nested_cos(1e80, EvalConfig(1, 2))


def test_error_ratio_window_second_order_seed():
    # Truncation shrinks 4x per extra level across the whole usable range.
    for x in (math.pi / 3, 1.0):
        errs = {n: abs(nested_cos(x, EvalConfig(n, 2)) - math.cos(x))
                for n in range(3, 12)}
        for n in range(3, 11):
            assert 3.0 <= errs[n] / errs[n + 1] <= 5.0


def test_error_ratio_fourth_order_seed_first_step():
    # The 64x regime is only measurable before the rounding floor of the
    # chain (growing like 4**n eps) overtakes the 64**-n truncation term,
    # which happens by n = 4 in double precision.
    for x in (math.pi / 3, 1.0):
        e3 = abs(nested_cos(x, EvalConfig(3, 4)) - math.cos(x))
        e4 = abs(nested_cos(x, EvalConfig(4, 4)) - math.cos(x))
        assert 48.0 <= e3 / e4 <= 80.0


@pytest.mark.parametrize("x", [1e-3, 7e-4, 5e-4, 2e-4, 1e-4])
def test_small_argument_series_floor(x):
    # Quartic tail bound plus the rounding noise of ten doubling steps.
    assert abs(nested_cos(x, DEFAULT_CONFIG) - (1.0 - x * x / 2.0)) \
        <= x ** 4 + 1e-10


def test_cosh_matches_cos_of_rotated_argument():
    for i in range(61):
        x = 0.05 * i
        v = nested_cos(complex(0.0, x), DEFAULT_CONFIG)
        assert abs(nested_cosh(x, DEFAULT_CONFIG) - v.real) <= 4 * EPS
        assert abs(v.imag) <= 4 * EPS


def test_cosh_of_two():
    assert nested_cosh(1.316957896924817, DEFAULT_CONFIG) == pytest.approx(
        2.0, abs=1e-6)


@pytest.mark.parametrize("y,depth,expected,tol", [
    (0.0, 4, 1.570165578477370, 1e-10),
    (0.5, 4, 1.047010650296843, 1e-10),
    (0.0, 10, 1.570796172805538, 1e-10),
    (0.5, 10, 1.047197505529385, 1e-10),
])
def test_acos_real_goldens(y, depth, expected, tol):
    assert nested_acos(y, depth) == pytest.approx(expected, rel=tol)


@pytest.mark.parametrize("depth", [1, 5, 10, 25, 30])
def test_acos_of_one_is_exactly_zero(depth):
    assert nested_acos(1.0, depth) == 0.0
    assert nested_acosh(1.0, depth) == 0.0


def test_acosh_of_two():
    assert nested_acosh(2.0, 10) == pytest.approx(1.31695798760619, rel=1e-9)


@pytest.mark.parametrize("y", [1.5, 2.0, 5.0, 10.0])
def test_acos_above_one_rotates_acosh(y):
    # For real y > 1 both towers share the same real iterates; only the
    # closing radical differs, by an exact factor of 1j.
    assert nested_acos(y, 10) == 1j * nested_acosh(y, 10)


@pytest.mark.parametrize("depth", [17, 18, 19, 20])
def test_acos_above_one_deep_plateau(depth):
    # Across this depth range the iterate quantizes to the same floating
    # neighbor of 1.0, so the scaled closing value does not move.
    assert nested_acos(2.0, depth) == 1.3169567191065923j


def test_deep_tower_precision_collapse():
    # At depth 25 the iterate sits within one ulp of 1.0 and the 2**25
    # prefactor turns that quantization into an error of order 1e-2.
    # Documents what DEPTH_CAP protects against further out.
    v = nested_acos(0.0, 25)
    assert v == pytest.approx(1.5811388300841898, rel=1e-12)
    assert abs(v - math.pi / 2) > 5e-3


def test_depth_cap_enforced_on_inverse():
    with pytest.raises(ValueError, match="allow_deep"):
        nested_acos(0.0, DEPTH_CAP + 1)
    # With the override the depth runs, at total precision loss: the
    # iterate saturates at 1.0 and the closing radical returns zero.
    assert nested_acos(0.0, DEPTH_CAP + 1, allow_deep=True) == 0.0


SEQ_ACOS0_D4 = [
    0.707106781186548, 0.923879532511287, 0.980785280403230,
    0.995184726672197, 1.570165578477370,
]
SEQ_ACOS_HALF_D4 = [
    0.866025403784439, 0.965925826289068, 0.991444861373810,
    0.997858923238603, 1.047010650296843,
]


@pytest.mark.parametrize("y,expected", [
    (0.0, SEQ_ACOS0_D4),
    (0.5, SEQ_ACOS_HALF_D4),
])
def test_acos_iterate_sequences(y, expected):
    seq = nested_acos_sequence(y, 4)
    assert len(seq) == 5
    for got, want in zip(seq, expected):
        assert got == pytest.approx(want, rel=1e-12)


def test_inverse_sequence_shapes():
    seq = nested_acos_sequence(0.5, 6)
    assert len(seq) == 7
    assert seq[-1] == nested_acos(0.5, 6)
    seqh = nested_acosh_sequence(2.0, 6)
    assert len(seqh) == 7
    assert seqh[-1] == nested_acosh(2.0, 6)


def test_inverse_forward_round_trip():
    for i in range(37):
        y = -0.9 + 0.05 * i
        assert abs(math.cos(nested_acos(y, 10)) - y) <= 1e-6


def test_forward_inverse_round_trip():
    for i in range(30):
        x = 0.1 + 0.1 * i
        assert abs(nested_acos(nested_cos(x, EvalConfig(10, 4)), 10) - x) <= 1e-5
