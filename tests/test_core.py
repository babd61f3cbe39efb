"""Forward doubling chains, radical inverse towers, and their guards."""

import cmath
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from nestrad import (
    DEFAULT_CONFIG,
    DEPTH_MAX,
    EvalConfig,
    acos_outer,
    acosh_outer,
    check_depth,
    cos_seed,
    cosh_seed,
    double_angle_step,
    half_angle_step,
    nested_acos,
    nested_acos_branch,
    nested_acos_sequence,
    nested_acosh,
    nested_acosh_branch,
    nested_acosh_sequence,
    nested_asin,
    nested_asinh,
    nested_atan,
    nested_atanh,
    nested_cos,
    nested_cos_sequence,
    nested_cosh,
    nested_cosh_sequence,
    nested_log,
    nested_sin,
    principal_sqrt,
)
from nestrad import core
from nestrad.core import _climb, _gray_tree, _tower, _towers

from bitwise import assert_bitwise_equal
from same_depth import deviation_tower, mp_tower

EPS = sys.float_info.epsilon


def test_default_config():
    assert DEFAULT_CONFIG.depth == 10
    assert DEFAULT_CONFIG.seed_order == 2


def test_config_rejects_nonpositive_depth():
    for depth in (0, 2.5, True):
        with pytest.raises(ValueError, match="positive"):
            EvalConfig(depth, 2)


def test_config_rejects_depth_beyond_cap():
    with pytest.raises(ValueError, match="2\\*\\*depth must stay a float"):
        EvalConfig(DEPTH_MAX + 1, 2)


def test_config_accepts_every_depth_up_to_the_bound():
    for depth in (1, 30, 31, DEPTH_MAX):
        assert nested_cos(0.0, EvalConfig(depth, 2)) == 1.0


def test_config_rejects_bad_seed_order():
    for order in (5, 2.0, True):
        with pytest.raises(ValueError, match="seed_order"):
            EvalConfig(10, order)


def test_check_depth_boundaries():
    for depth in (1, 30, 31, 1023):
        check_depth(depth)
    assert DEPTH_MAX == 1023
    with pytest.raises(ValueError, match=re.escape(
            "depth 1024 exceeds 1023; 2**depth must stay a float")):
        check_depth(1024)
    with pytest.raises(ValueError, match="positive integer"):
        check_depth(0)
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


SEQ_THIRD_D4_O2 = [
    0.997858158767125, 0.991441810036233, 0.965913725375842,
    0.865978649738875, 0.499838043607131,
]
SEQ_THIRD_D10_O2 = [
    0.999999477089543, 0.999997908358718, 0.999991633443621,
    0.999966533914483, 0.999866137897891, 0.999464587429687,
    0.997858923051989, 0.991444860628951, 0.965925823336425,
    0.866025392376301, 0.499999960481051,
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


@pytest.mark.parametrize("fn, x, step", [
    (nested_cos, 1e200, 1),
    (nested_cos, 3e5, 6),
    (nested_cos, 2500.0, 10),
    (nested_cos, complex(1e200, 1e200), 1),
    (nested_cos, complex(3e5, 1.0), 6),
    (nested_cos, 1500j, 10),
    (nested_cosh, 3000.0, 9),
    (nested_cos_sequence, 3e5, 6),
    (nested_cos, math.nan, 1),
    (nested_cos, complex(math.nan, 1.0), 1),
])
def test_overflow_names_the_first_nonfinite_step(fn, x, step):
    # Finiteness is checked once, after the last step; the message still
    # names the step where the iterate first stopped being finite.
    with pytest.raises(OverflowError) as info:
        fn(x, EvalConfig(10))
    assert str(info.value) == f"iterate is not finite after doubling step {step} of 10"


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


def test_cosh_iterate_sequence():
    cfg = EvalConfig(6, 3)
    seq = nested_cosh_sequence(1.5, cfg)
    assert len(seq) == 7
    assert repr(seq[-1]) == repr(nested_cosh(1.5, cfg))


@pytest.mark.parametrize("depth", [1, 5, 10, 25, 30])
def test_acos_of_one_is_exactly_zero(depth):
    assert nested_acos(1.0, depth) == 0.0
    assert nested_acosh(1.0, depth) == 0.0


def test_acos_of_real_input_is_a_nonnegative_float_near_acos():
    # The docstring's claim at every depth to 30: truncation
    # acos(y)**3 / (24 * 4**depth) plus a few eps of roundoff, here allowed
    # 4 eps of the value.
    rng = random.Random(5)
    ys = [i / 64 - 1 for i in range(129)] + [rng.uniform(-1.0, 1.0)
                                             for _ in range(200)]
    ys += [math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 5e-324]
    for depth in range(1, 31):
        bound = 4 * EPS * math.pi
        for y in ys:
            v, theta = nested_acos(y, depth), math.acos(y)
            assert type(v) is float and 0.0 <= v < math.inf, (y, depth)
            assert abs(v - theta) <= theta ** 3 / (24 * 4 ** depth) + bound, \
                (y, depth)


def test_acosh_of_two():
    assert nested_acosh(2.0, 10) == pytest.approx(1.31695798760619, rel=1e-9)


@pytest.mark.parametrize("y", [1.5, 2.0, 5.0, 10.0])
def test_acos_above_one_rotates_acosh(y):
    # For real y > 1 both towers share the same real iterates; only the
    # closing radical differs, by an exact factor of 1j.
    assert nested_acos(y, 10) == 1j * nested_acosh(y, 10)


def test_real_plus_infinity_on_branch_0():
    # Every radical of +inf is +inf, at every depth to DEPTH_MAX: acosh and
    # log are cmath.acosh's and math.log's +inf, and acos is the positive
    # multiple of 1j the principal sheet gives every real y > 1.
    h = cmath.acosh(math.inf)
    assert h == math.log(math.inf) == math.inf
    for depth in range(1, DEPTH_MAX + 1):
        assert type(nested_acosh(math.inf, depth)) is float
        assert nested_acosh(math.inf, depth) == h
        assert nested_log(math.inf, depth) == math.log(math.inf)
        assert repr(nested_acos(math.inf, depth)) == repr(complex(0.0, h.real))
    for depth in (1, 10, DEPTH_MAX):
        assert nested_acosh_sequence(math.inf, depth) == [h.real] * (depth + 1)
        ys = nested_acos_sequence(math.inf, depth)
        assert ys[:-1] == [h.real] * depth and ys[-1] == complex(0.0, h.real)


@pytest.mark.parametrize("depth", [17, 18, 19, 20])
def test_acos_above_one_deep_plateau(depth):
    # The literal tower's iterate quantized to one floating neighbor of 1.0
    # across these depths, so its value stood still at 1.3169567191065923j.
    # The deviation tower keeps moving with the truncation, and stays
    # within 2 eps of the exact same-depth value.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        exact = complex(mp_tower(2.0, 0, depth, False))
    v = nested_acos(2.0, depth)
    assert abs(v - exact) <= 2 * EPS * abs(exact)
    assert v != nested_acos(2.0, depth - 1) != 1.3169567191065923j


def test_deep_tower_precision_collapse():
    # The literal tower's iterate sat within one ulp of 1.0 at depth 25,
    # and the 2**25 prefactor made that 1.5811388300841898, 1e-2 off; it
    # returned exactly 0.0 once acos(y) < 2**n * sqrt(eps/3), and for
    # acosh(y) of real y > 1 below twice that.  The deviation tower
    # carries 1 - y itself: each of those rows is within 4 eps of its
    # exact same-depth value.
    mpmath = pytest.importorskip("mpmath")
    assert abs(nested_acos(0.0, 25) - math.pi / 2) <= 2 * EPS
    r = math.sqrt(EPS / 3)
    rows = [(0.0, 28, False), (-1.0, 29, False), (2.0, 27, True),
            (2.0, 30, True), (1000.0, 29, True), (1000.0, 30, True),
            (987886.3382985231, 30, False),
            (math.cos(0.99 * 2 ** 20 * r), 20, False),
            (math.cosh(0.99 * 2 ** 21 * r), 20, True)]
    for y, depth, hyperbolic in rows:
        got = (nested_acosh if hyperbolic else nested_acos)(y, depth)
        with mpmath.workdps(60):
            want = complex(mp_tower(y, 0, depth, hyperbolic))
        assert got != 0.0 and abs(got - want) <= 4 * EPS * abs(want), (y, depth)
    # The forward chain carries e = 1 - c, which is x**2/2 for tiny x at
    # every depth, so nested_cos is exactly 1.0 only where that rounds
    # below eps/4, |x| < sqrt(eps/2); deeper also where the seed's
    # e = (x/2**n)**2/2 underflows, from depth 537 at x = 1.
    s = math.sqrt(EPS / 2)
    cfgs = [EvalConfig(1), EvalConfig(30), EvalConfig(20, 4)]
    one = [nested_cos(0.99 * s, cfg) for cfg in cfgs] + [
        nested_cos(1.0, EvalConfig(537))]
    moved = [nested_cos(1.01 * s, cfg) for cfg in cfgs] + [
        nested_cos(1.0, EvalConfig(536)),
        nested_cos(1.0, EvalConfig(30)), nested_cos(11.0, EvalConfig(30))]
    assert one == [1.0] * len(one) and 1.0 not in moved
    assert math.cos(0.99 * s) == 1.0 != math.cos(1.01 * s)


def test_forward_chain_keeps_its_digits_past_the_cap():
    # The deviation chain's roundoff does not grow with depth, so the
    # forward side keeps its digits to depth 500.
    for depth in (30, 100, 500):
        cfg = EvalConfig(depth, 2)
        assert abs(nested_cos(1.0, cfg) - math.cos(1.0)) <= 2 * EPS
        assert abs(nested_sin(1.0, cfg) - math.sin(1.0)) <= 2 * EPS


@pytest.mark.parametrize("y", [1e308, 1.7976931348623157e308, -1.7e308,
                               complex(1e308, -1e308), complex(-3.0, 1.7e308)])
def test_tower_near_the_float_maximum(y):
    # 2*(1 -+ y) overflows there, so the tower takes radical 0 literally;
    # every branch stays within a few eps of its same-depth value, and the
    # sequence records that radical first.
    mpmath = pytest.importorskip("mpmath")
    for k in (0, 1, 5, -3):
        for hyperbolic, fn in ((False, nested_acos_branch), (True, nested_acosh_branch)):
            with mpmath.workdps(60):
                exact = complex(mp_tower(y, k, 10, hyperbolic))
            assert abs(fn(y, k, 10) - exact) <= 4 * EPS * abs(exact), (k, hyperbolic)
    ys = nested_acos_sequence(y, 10)
    assert len(ys) == 11 and ys[0] == principal_sqrt((y + 1.0) / 2.0)
    assert ys[-1] == nested_acos(y, 10)


def test_acos_of_zero_roundoff_overtakes_truncation():
    # The README's regimes for nested_acos(0): the error is the cubic
    # truncation term, to within 2 eps of roundoff, from depth 11 on, so
    # roundoff overtakes it only once the term falls below an ulp, from
    # depth 24.  The literal tower's roundoff overtook it from depth 14
    # and was 1e-2 at depth 24.  The value stays in [0, pi], to an ulp.
    def err(d):
        return abs(nested_acos(0.0, d) - math.pi / 2)

    def cubic(d):
        return (math.pi / 2) ** 3 / (24 * 4 ** d)

    assert err(11) == pytest.approx(cubic(11), rel=1e-2)
    assert all(abs(err(d) - cubic(d)) <= 2 * EPS for d in range(11, 31))
    assert err(24) <= EPS < cubic(23)
    assert all(0.0 <= nested_acos(-1.0, d) <= math.pi + 2 * EPS for d in range(1, 31))


def test_depth_cap_enforced_on_inverse():
    # Depth 31 and deeper keep their digits: the literal tower returned
    # zero there below the thresholds of depth 30 (acosh 35.2 and 39.8
    # against 2**32 * sqrt(eps/3), about 37).  From about depth 515 the
    # deviation itself underflows, as nested_acos's docstring says.
    assert nested_acos(0.0, 540) == 0.0
    for depth in (31, 100, 500):
        assert abs(nested_acos(0.0, depth) - math.pi / 2) <= 2 * EPS
        for y in (1e15, 1e17):
            assert abs(nested_acosh(y, depth) - math.acosh(y)) <= \
                2 * EPS * math.acosh(y)


def test_large_angles_gain_digits_past_the_cap():
    # Truncation, not roundoff, limits large branches and large |x|, so
    # depths past 30 buy them digits (as the README says).
    k = 10 ** 6
    exact = (2 * k + 1) * math.pi / 2

    def branch_err(d):
        return abs(nested_acos_branch(0.0, k, d) - exact) / exact

    def cos_err(d):
        return abs(nested_cos(1e6, EvalConfig(d, 2)) - math.cos(1e6))

    assert branch_err(30) > 1e-7 and branch_err(33) < 1e-8
    assert cos_err(30) > 5e-3 and cos_err(33) < 1e-3


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


@pytest.mark.parametrize("cfg", [EvalConfig(1, 1), EvalConfig(10, 2),
                                 EvalConfig(25, 4)])
@pytest.mark.parametrize("x", [0.0, 1.0, -2.5, math.pi / 3, 0.3 + 0.4j, 2j,
                               -1.5 - 2.0j])
def test_forward_sequences_are_the_recorded_chain(x, cfg):
    # Entry 0 is the seed and each later entry 1 - e of the deviation e
    # doubled as e' = 2e(2 - e), both written out here from the even
    # series (the one-term seed is the float 1.0 for every x), and the last
    # is the scalar entry, all by repr, so no second chain can drift apart.
    for seq, seed, scalar in ((nested_cos_sequence, cos_seed, nested_cos),
                              (nested_cosh_sequence, cosh_seed, nested_cosh)):
        ys = seq(x, cfg)
        assert len(ys) == cfg.depth + 1
        t = x / 2.0 ** cfg.depth
        u = t * t if seq is nested_cosh_sequence else -(t * t)
        q = 0.0
        for f in (1 / 720, 1 / 24, 0.5)[4 - cfg.seed_order:]:
            q = q * u + f
        e = -u * q if cfg.seed_order > 1 else 0.0
        assert repr(ys[0]) == repr(seed(x, cfg)) == repr(1.0 - e)
        for y in ys[1:]:
            e = 2.0 * e * (2.0 - e)
            assert repr(y) == repr(1.0 - e)
        assert repr(ys[-1]) == repr(scalar(x, cfg))


@pytest.mark.parametrize("depth", [1, 2, 10, 25])
@pytest.mark.parametrize("y", [-1.0, -0.3, 0.0, 0.5, 1.0, 1.5, 10.0,
                               2 + 3j, -2 + 3j, 0.3 - 0.1j, 0, True,
                               Fraction(1, 3), complex(0.5, -0.0), math.inf,
                               -math.inf, math.nan, 1e300])
def test_inverse_sequences_are_the_recorded_tower(y, depth):
    # Entry m is the iterate after radical m as the deviation loop written
    # out in same_depth records it, 1 - d or d - 1, the last entry is the
    # loop's closing value and the scalar entry, all by repr.  Each iterate
    # is the half-angle step of the one before to a few ulps; on [-1, 1]
    # the literal step loses the digits the deviation keeps.
    for seq, hyperbolic, scalar in ((nested_acos_sequence, False, nested_acos),
                                    (nested_acosh_sequence, True, nested_acosh)):
        ys = seq(y, depth)
        want: list = []
        want.append(deviation_tower(y, depth, 0, hyperbolic, want))
        assert len(ys) == depth + 1
        assert [repr(v) for v in ys] == [repr(v) for v in want]
        assert repr(ys[-1]) == repr(scalar(y, depth))
        if isinstance(y, float) and -1.0 <= y <= 1.0:
            for prev, r in zip([y] + ys[:-2], ys[:-1]):
                assert abs(r - half_angle_step(prev)) <= 2 * EPS


def test_inverse_forward_round_trip():
    for i in range(37):
        y = -0.9 + 0.05 * i
        assert abs(math.cos(nested_acos(y, 10)) - y) <= 1e-6


def test_forward_inverse_round_trip():
    for i in range(30):
        x = 0.1 + 0.1 * i
        assert abs(nested_acos(nested_cos(x, EvalConfig(10, 4)), 10) - x) <= 1e-5


def _batched(y, depth, ks):
    # All values _towers yields for the branch indices ks, after checking
    # that its chunks are ks cut into consecutive runs of 4096.
    batches = list(_towers(y, depth, ks))
    assert [list(chunk) for chunk, _ in batches] == [
        list(ks[lo:lo + 4096]) for lo in range(0, len(ks), 4096)]
    return [v for _, values in batches for v in values]


@pytest.mark.parametrize("depth", [1, 2, 10, 25, 30])
@pytest.mark.parametrize("y", [0.0, -0.0, 1.0, -1.0, 0.3, -0.7])
def test_towers_match_single_tower_bitwise(y, depth):
    # The batched kernel shares the inner radicals of lanes with equal low
    # Gray bits; each lane must still be the single tower, bit for bit.
    # Lane counts 1..3 and 4096/4097 sit on and around tree-size and chunk
    # edges, capped at the 2**(depth-1) branches a tower has.
    rng = random.Random(f"towers:{y!r}:{depth}")
    branches = 2 ** (depth - 1)
    k_sets = [range(min(n, branches)) for n in (1, 2, 3, 4096, 4097)]
    k_sets.append(rng.sample(range(branches), min(300, branches)))
    for ks in k_sets:
        want = [_tower(y, depth, k ^ (k >> 1), False) for k in ks]
        assert_bitwise_equal(_batched(y, depth, ks), want)


def test_signed_zeros_share_a_gray_tree():
    # _gray_tree is cached by value, and -0.0 == 0.0: whichever zero
    # builds the tree, towers of the other are still bitwise their own.
    for zeros in [(0.0, -0.0), (-0.0, 0.0)]:
        _gray_tree.cache_clear()
        for y in zeros:
            for depth, ks in [(1, range(1)), (2, range(2)), (25, range(5))]:
                want = [_tower(y, depth, k ^ (k >> 1), False) for k in ks]
                assert_bitwise_equal(_batched(y, depth, ks), want)


@pytest.mark.parametrize("depth", [14, 22, 25])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_towers_uniform_levels_match_single_tower(c, depth):
    # An aligned chunk of 4096 branch indices is the sweep's case: above
    # the 12 tree levels every Gray bit is uniform across the lanes.
    ks = range(4096 * c, 4096 * (c + 1))
    want = [_tower(0.0, depth, k ^ (k >> 1), False) for k in ks]
    assert_bitwise_equal(_batched(0.0, depth, ks), want)


def test_towers_mixed_uniform_and_varying_levels():
    # Three lanes on a two-level tree from bits 0 and 1.  Above it,
    # bits 4 and 9 are set in every lane, bits 7 and 11 differ between
    # lanes and the rest are clear: single clear levels run between
    # per-lane levels, which take the set bits too.
    grays = [0b1010_1001_0000, 0b0010_0001_0011, 0b1010_0001_0000]
    for y in (0.0, 0.3, -1.0):
        want = [_tower(y, 14, g, False) for g in grays]
        assert_bitwise_equal(_climb(_gray_tree(y, 2), grays, 14), want)


@pytest.mark.parametrize("y", [0.0, 0.3, -1.0])
def test_towers_fused_runs_of_set_bits(y):
    # 512 lanes on a nine-level tree rise through bits 9..11.  Above
    # them every lane has bits 12..15, 17..19, 21..22 and 24 set and the
    # rest clear: the set runs of four, three, two and one level take the
    # per-lane pass level by level, between single clear levels.
    high = sum(1 << b for b in (12, 13, 14, 15, 17, 18, 19, 21, 22, 24))
    grays = [(k ^ (k >> 1)) | high for k in range(512)]
    want = [_tower(y, 25, g, False) for g in grays]
    assert_bitwise_equal(_climb(_gray_tree(y, 9), grays, 25), want)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


_TOWER_INPUTS = [
    0.0, -0.0, 0.3, -0.5, 1.0, -1.0, math.nextafter(1.0, 2.0),
    math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
    math.nextafter(-1.0, -2.0), 2.0, -2.0, 1e300, -1e300, math.inf,
    -math.inf, math.nan, 0, 1, -1, 3, -3, True, False, 10 ** 400, -10 ** 400,
    Fraction(1, 3), Fraction(5, 2), complex(0.5, 0.0), complex(0.5, -0.0),
    complex(-1.0, -0.0), complex(-0.0, 0.0), complex(2.0, 0.0),
    complex(2.0, -0.0), complex(-2.0, -0.0), complex(math.inf, 0.0),
    complex(math.inf, -0.0), complex(math.nan, 0.0), 0.3 - 0.1j, 2 + 3j,
    # Not numbers; they stay last.
    "0.5", Decimal("0.5"), None,
]


def _tower_outcomes(depth):
    gray_max = 2 ** (depth - 1) - 1
    k_min = -(2 ** (depth - 1))
    out = []
    for y in _TOWER_INPUTS:
        for gray in sorted({g for g in (0, 1, 2, 5, gray_max) if g <= gray_max}):
            for hyperbolic in (False, True):
                out.append(_outcome(_tower, y, depth, gray, hyperbolic))
        # k = -1, -2, -4, -7 and k_min take Gray codes 0, 1, 2, 5 and the
        # largest the depth allows.
        for k in (-1, -2, -4, -7, k_min):
            out.append(_outcome(nested_acos_branch, y, k, depth))
            out.append(_outcome(nested_acosh_branch, y, k, depth))
        for fn in (nested_acos, nested_acosh, nested_asin, nested_atan,
                   nested_asinh, nested_atanh, nested_log):
            out.append(_outcome(fn, y, depth))
    return out


@pytest.mark.parametrize("depth", [1, 2, 10, 25, 30])
def test_tower_matches_literal_loop(depth, monkeypatch):
    # A float in [-1, 1], or finite above 1 on the principal sheet, runs
    # on math.sqrt; every value and every error must stay what the same
    # deviation loop written out on principal_sqrt gives, by repr or by
    # exception type and message.
    got = _tower_outcomes(depth)
    # float() would take "0.5" and Decimal("0.5"); the tower must not.  A
    # branch index too large for a small depth is reported first.
    per_input = len(got) // len(_TOWER_INPUTS)
    assert all(o.startswith(("TypeError: ", "ValueError: branch index"))
               for o in got[-3 * per_input:])
    monkeypatch.setattr(core, "_tower", deviation_tower)
    assert got == _tower_outcomes(depth)


@pytest.mark.parametrize("y, gray, calls", [
    (0.5, 0, 1), (-1.0, 2 ** 25 - 1, 1), (complex(0.3, 0.0), 5, 26),
    (0, 0, 26), (1e300, 0, 1), (1.5, 1, 26), (0.3 - 0.1j, 0, 26),
])
def test_real_tower_runs_on_math_sqrt(y, gray, calls, monkeypatch):
    # Only the closing map goes through principal_sqrt on the float path.
    # Other real types, a complex with a zero imaginary part included, take
    # principal_sqrt at every radical; it gives them the same bits
    # (test_tower_matches_literal_loop).  The sequences record the
    # principal tower's own radicals, so they take its path too.
    seen = []

    def counted(z):
        seen.append(z)
        return principal_sqrt(z)

    monkeypatch.setattr(core, "principal_sqrt", counted)
    runs = [lambda: _tower(y, 25, gray, False)]
    if not gray:
        runs += [lambda: nested_acos_sequence(y, 25),
                 lambda: nested_acosh_sequence(y, 25)]
    for run in runs:
        seen.clear()
        run()
        assert len(seen) == calls
