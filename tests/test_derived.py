"""Odd functions, inverses, logarithm, and exponential over the even kernels."""

import cmath
import math
import sys

import pytest

from nestrad import (
    DEFAULT_CONFIG,
    EvalConfig,
    double_angle_step,
    exp_limit,
    log_limit,
    nested_acos,
    nested_acosh,
    nested_asin,
    nested_asinh,
    nested_atan,
    nested_atanh,
    nested_cos,
    nested_cos_sequence,
    nested_cosh,
    nested_exp,
    nested_log,
    nested_sin,
    nested_sinh,
    nested_tan,
    nested_tanh,
    principal_sqrt,
)
from nestrad import core
from same_depth import roundoff_bound, truncation_bound

EPS = sys.float_info.epsilon
ORDER4 = EvalConfig(10, 4)


def test_sin_known_values():
    assert nested_sin(math.pi / 6, ORDER4) == pytest.approx(0.5, abs=1e-9)
    assert nested_sin(0.0, DEFAULT_CONFIG) == 0.0


def test_sin_odd_exact():
    # The sine seed is x/2**n times an even radical and each doubling
    # multiplies it by the even cosine, so negation only flips its sign.
    assert nested_sin(-math.pi / 6, ORDER4) == -nested_sin(math.pi / 6, ORDER4)


@pytest.mark.parametrize("x,positive", [
    (2.0, True), (4.0, False), (7.0, True), (-2.0, False),
])
def test_sin_sign_tracks_period(x, positive):
    assert (nested_sin(x, DEFAULT_CONFIG) > 0) is positive


def test_pythagorean_residual():
    for i in range(27):
        x = 0.1 + 1.3 * i / 26
        s = nested_sin(x, DEFAULT_CONFIG)
        c = nested_cos(x, DEFAULT_CONFIG)
        assert abs(s * s + c * c - 1.0) <= 8 * EPS


def test_tan_known_values():
    assert nested_tan(math.pi / 4, ORDER4) == pytest.approx(1.0, abs=1e-8)
    assert nested_tan(0.0, DEFAULT_CONFIG) == 0.0
    assert nested_tan(-0.7, DEFAULT_CONFIG) == -nested_tan(0.7, DEFAULT_CONFIG)


def test_tan_matches_quotient():
    for i in range(27):
        x = 0.1 + 1.3 * i / 26
        s = nested_sin(x, DEFAULT_CONFIG)
        c = nested_cos(x, DEFAULT_CONFIG)
        assert abs(nested_tan(x, DEFAULT_CONFIG) - s / c) <= 1e-10


def test_tan_cosine_is_never_exactly_zero():
    # The literal step -1 + 2*y*y never lands on 0.0 next to +-1/sqrt(2):
    # no float y there makes 2*y*y exactly 1.  The chain's last step is
    # 1 - e on the deviation instead, which is 0.0 wherever e rounds to 1,
    # so nested_tan can meet an exact zero cosine (the pole test below).
    for root in (math.sqrt(0.5), -math.sqrt(0.5)):
        y = root
        for _ in range(64):
            y = math.nextafter(y, -math.inf)
        for _ in range(129):
            assert double_angle_step(y) != 0.0, y
            y = math.nextafter(y, math.inf)


def test_tan_is_finite_next_to_its_pole():
    # The quotient is finite wherever the chain's cosine is nonzero.  At
    # float +-pi/2 from depth 26 on the chain ends on c == 0.0 exactly,
    # and nested_tan names the pole there.
    h = math.pi / 2
    xs = [h, math.nextafter(h, 0.0), math.nextafter(h, 2.0), -h]
    poles = []
    for depth in range(1, 31):
        cfg = EvalConfig(depth)
        for x in xs:
            if nested_cos(x, cfg) == 0.0:
                poles.append((depth, x))
                with pytest.raises(ZeroDivisionError, match="tangent pole"):
                    nested_tan(x, cfg)
            else:
                assert math.isfinite(nested_tan(x, cfg)), (x, depth)
    assert poles == [(d, x) for d in range(26, 31) for x in (h, -h)]


@pytest.mark.parametrize("depth", [26, 30])
def test_tanh_names_its_pole_on_the_imaginary_axis(depth):
    z = complex(0.0, math.pi / 2)
    assert nested_cosh(z, EvalConfig(depth)) == 0.0
    with pytest.raises(ZeroDivisionError, match="hyperbolic tangent pole"):
        nested_tanh(z, EvalConfig(depth))


def test_asin_complements_acos():
    assert nested_asin(1.0, 7) == nested_acos(0.0, 7)
    assert nested_asin(0.5, 10) == pytest.approx(math.pi / 6, abs=1e-6)
    # The radical forgets the sign of y, so the formula returns the
    # magnitude branch and sends 0 to acos(1) = 0.
    assert nested_asin(0.0, 10) == 0.0
    assert nested_asin(-0.5, 10) == nested_asin(0.5, 10)


def test_atan_known_values():
    assert nested_atan(0.0, 10) == 0.0
    assert nested_atan(1.0, 10) == pytest.approx(math.pi / 4, abs=1e-7)
    assert nested_atan(-1.0, 10) == pytest.approx(-math.pi / 4, abs=1e-7)
    assert nested_atan(-2.0, 10) == -nested_atan(2.0, 10)


def test_atan_pole():
    with pytest.raises(ZeroDivisionError, match="arctangent"):
        nested_atan(1j, 10)


def test_sinh_tanh_known_values():
    assert nested_sinh(1.0, ORDER4) == pytest.approx(1.1752012, abs=1e-6)
    assert nested_tanh(1.0, ORDER4) == pytest.approx(0.7615942, abs=1e-6)
    assert nested_sinh(0.0, DEFAULT_CONFIG) == 0.0
    assert nested_tanh(0.0, DEFAULT_CONFIG) == 0.0
    assert nested_sinh(-1.0, ORDER4) == -nested_sinh(1.0, ORDER4)


def test_asinh_atanh_known_values():
    assert nested_asinh(1.0, 10) == pytest.approx(0.8813736, abs=1e-5)
    assert nested_atanh(0.5, 10) == pytest.approx(0.5493061, abs=1e-5)
    assert nested_asinh(0.0, 10) == 0.0
    assert nested_atanh(0.0, 10) == 0.0
    assert nested_asinh(-2.0, 10) == -nested_asinh(2.0, 10)
    assert nested_atanh(-0.5, 10) == -nested_atanh(0.5, 10)


@pytest.mark.parametrize("y", [1.0, -1.0])
def test_atanh_pole(y):
    with pytest.raises(ZeroDivisionError, match="pole"):
        nested_atanh(y, 10)


@pytest.mark.parametrize("y", [1.5, 2.0, 10.0])
def test_asin_atanh_above_one_land_on_the_conjugate_sheet(y):
    # For real y > 1 both evaluators return the conjugate of cmath's
    # value, which the eval oracles use, so eval reports the gap between
    # the sheets as error (ROADMAP item 20).  Each value stays within its
    # tower's truncation plus roundoff bound of that conjugate.
    for fn, ref in ((nested_asin, cmath.asin), (nested_atanh, cmath.atanh)):
        v, a = fn(y, 10), ref(y).conjugate()
        assert abs(v - a) <= truncation_bound(a, 10) + roundoff_bound(v, 10), fn


def test_log_known_values():
    assert nested_log(2.0, 10) == pytest.approx(0.693147193652913, rel=1e-9)
    assert nested_log(1.0, 10) == 0.0
    assert nested_log(-1.0, 10) == pytest.approx(3.14159142150464j, rel=1e-9)
    assert nested_log(1e100, 10) == pytest.approx(230.743921174299, rel=1e-9)


def test_log_of_imaginary_unit():
    assert abs(nested_log(1j, 10) - cmath.log(1j)) <= 1e-6


def test_log_zero_pole():
    with pytest.raises(ZeroDivisionError, match="zero"):
        nested_log(0.0, 10)


@pytest.mark.parametrize("y", [1e-320, 5e-309, -1e-320, 5e-324, 1e-320j,
                               1e-320 + 1e-320j])
def test_log_rejects_reciprocal_overflow(y):
    # 1/y overflows, and the log came out -inf or nan+nanj.
    with pytest.raises(OverflowError, match="1/y overflows"):
        nested_log(y, 10)


def test_log_just_above_reciprocal_overflow():
    # 1/6e-309 is finite, so the mean stays the one it always was.
    assert nested_log(6e-309, 10) == -723.9970751233711


@pytest.mark.parametrize("fn", [nested_asin, nested_asinh])
@pytest.mark.parametrize("y", [1e155, -1e200, 1e308, 2e154 + 1j, 1e155j])
def test_asin_asinh_reject_square_overflow(fn, y):
    # y**2 overflows, so the radicand would be nan or inf.
    with pytest.raises(OverflowError, match=r"y\*\*2 overflows at y = "):
        fn(y, 10)


@pytest.mark.parametrize("y", [1.34e154, -1.34e154, 1.3e154j, 1e154 + 1j])
def test_asin_asinh_just_below_square_overflow(y):
    # y**2 is finite, so the radicands stay the ones they always were.
    assert repr(nested_asin(y, 10)) == \
        repr(nested_acos(principal_sqrt(1.0 - y * y), 10))
    v = nested_acosh(principal_sqrt(1.0 + y * y), 10)
    want = -v if isinstance(y, float) and y < 0 else v
    assert repr(nested_asinh(y, 10)) == repr(want)


@pytest.mark.parametrize("y", [2.0, 4.0, 8.0, 0.5, 0.25, 3.0, 10.0, 1.5, 7.0])
def test_log_reciprocal_negation(y):
    # (y + 1/y)/2 is invariant under y -> 1/y, so the inner acosh values
    # coincide bitwise and only the restored sign differs.
    r = 1.0 / y
    assert nested_acosh((y + 1.0 / y) / 2.0, 10) == \
        nested_acosh((r + 1.0 / r) / 2.0, 10)
    assert nested_log(r, 10) == -nested_log(y, 10)


def test_exp_known_values():
    assert nested_exp(1.0, ORDER4) == pytest.approx(math.e, abs=1e-5)
    assert nested_exp(-1.0, ORDER4) == pytest.approx(1.0 / math.e, abs=1e-5)
    assert nested_exp(0.0, DEFAULT_CONFIG) == 1.0


@pytest.mark.parametrize("cfg", [EvalConfig(10, 2), EvalConfig(4, 4)])
@pytest.mark.parametrize("x", [1.0, -2.0, 0.3 + 0.4j, -1.5 - 2j, 0.0, 10.0])
def test_exp_is_cosh_plus_sinh_from_one_chain(x, cfg, monkeypatch):
    # On the left half-plane cosh + sinh would cancel, so exp is
    # 1/(cosh - sinh) of the same chain there.
    c, s = nested_cosh(x, cfg), nested_sinh(x, cfg)
    want = 1.0 / (c - s) if complex(x).real < 0.0 else c + s
    assert repr(nested_exp(x, cfg)) == repr(want)
    calls = []
    forward = core._forward

    def counting(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(core, "_forward", counting)
    nested_exp(x, cfg)
    assert len(calls) == 1


def test_log_exp_round_trip():
    cfg = EvalConfig(12, 4)
    for y in (0.5, 2.0, 10.0, 1000.0):
        assert abs(nested_exp(nested_log(y, 12), cfg) - y) / y <= 1e-4


def test_exp_limit_values():
    assert exp_limit(1.0, 1) == 2.0
    assert exp_limit(0.0, 64) == 1.0
    assert abs(exp_limit(1.0, 2 ** 20) - math.e) <= 2e-6
    assert abs(exp_limit(1j, 2 ** 20) - cmath.exp(1j)) <= 2e-6


def test_exp_limit_validation():
    for n in (0, True, 4.0, 2.5):
        with pytest.raises(ValueError, match="positive"):
            exp_limit(1.0, n)


def test_log_limit_values():
    assert log_limit(1.0, 64) == 0.0
    assert abs(log_limit(2.0, 2 ** 20) - math.log(2.0)) <= 1e-6
    assert abs(log_limit(math.e, 2 ** 20) - 1.0) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 4, 64, 2 ** 20, 2 ** 40])
@pytest.mark.parametrize("y", [2.0, 0.5, math.e, 1e-300, 1e300, -4.0,
                               3 + 4j, -1 - 1e-3j])
def test_log_limit_is_the_explicit_root_chain(y, n):
    # The n-th root as log2(n) principal square roots, written out.
    r = y
    k = n
    while k > 1:
        r = principal_sqrt(r)
        k >>= 1
    assert repr(log_limit(y, n)) == repr(n * (r - 1.0))


def test_log_limit_validation():
    for n in (3, True, 4.0):
        with pytest.raises(ValueError, match="power of two"):
            log_limit(2.0, n)
    with pytest.raises(ValueError):
        log_limit(2.0, 0)
    with pytest.raises(ZeroDivisionError):
        log_limit(0.0, 64)


def _lin(a, b, n=32):
    return [a + (b - a) * i / (n - 1) for i in range(n)]


CONVERGENCE_CASES = [
    ("sin", lambda x, d: nested_sin(x, EvalConfig(d, 2)), math.sin,
     _lin(0.1, 1.4)),
    ("tan", lambda x, d: nested_tan(x, EvalConfig(d, 2)), math.tan,
     _lin(0.1, 1.4)),
    ("sinh", lambda x, d: nested_sinh(x, EvalConfig(d, 2)), math.sinh,
     _lin(-3.0, 3.0)),
    ("tanh", lambda x, d: nested_tanh(x, EvalConfig(d, 2)), math.tanh,
     _lin(-3.0, 3.0)),
    ("exp", lambda x, d: nested_exp(x, EvalConfig(d, 2)), math.exp,
     _lin(-2.0, 2.0)),
    ("asin", lambda x, d: nested_asin(x, d), math.asin, _lin(0.0, 0.95)),
    ("atan", lambda x, d: nested_atan(x, d), math.atan, _lin(-3.0, 3.0)),
    ("asinh", lambda x, d: nested_asinh(x, d), math.asinh, _lin(-3.0, 3.0)),
    ("atanh", lambda x, d: nested_atanh(x, d), math.atanh,
     _lin(-0.95, 0.95)),
    ("log", lambda x, d: nested_log(x, d), math.log, _lin(0.1, 10.0)),
    ("exp_limit", lambda x, d: exp_limit(x, 2 ** d), math.exp,
     _lin(-2.0, 2.0)),
    ("log_limit", lambda x, d: log_limit(x, 2 ** d), math.log,
     _lin(0.1, 10.0)),
]


@pytest.mark.parametrize("name,fn,oracle,grid", CONVERGENCE_CASES,
                         ids=[c[0] for c in CONVERGENCE_CASES])
def test_error_decreases_with_depth(name, fn, oracle, grid):
    e6, e8, e10 = (max(abs(fn(x, d) - oracle(x)) for x in grid)
                   for d in (6, 8, 10))
    assert e6 > e8 > e10


FORWARD_ORACLES = [(nested_sin, cmath.sin), (nested_tan, cmath.tan),
                   (nested_sinh, cmath.sinh), (nested_tanh, cmath.tanh),
                   (nested_exp, cmath.exp)]


@pytest.mark.parametrize("fn,ref", FORWARD_ORACLES,
                         ids=[f.__name__ for f, _ in FORWARD_ORACLES])
def test_forward_functions_follow_cmath_off_the_real_axis(fn, ref):
    # Off the real axis there is no sign to restore: the doubled sine is
    # analytic, so depth-10 truncation (about 3e-6 here) is the whole error.
    cfg = EvalConfig(10, 2)
    for a in range(-12, 13):
        for b in range(-12, 13):
            if b:
                z = complex(a / 4, b / 4)
                want = ref(z)
                assert abs(fn(z, cfg) - want) <= 1e-5 * max(abs(want), 1.0), z


@pytest.mark.parametrize("depth", [10, 25])
@pytest.mark.parametrize("x", [1e-8, 1e-5])
@pytest.mark.parametrize("fn,ref", [(nested_sin, math.sin), (nested_sinh, math.sinh),
                                    (nested_tan, math.tan), (nested_tanh, math.tanh)],
                         ids=["sin", "sinh", "tan", "tanh"])
def test_odd_forward_functions_keep_small_arguments(fn, ref, x, depth):
    # The sine seed is x/2**n times a radical near 1, and doubling scales
    # it by powers of two and cosines near 1, so no digit cancels.
    want = ref(x)
    assert abs(fn(x, EvalConfig(depth)) - want) <= 4 * EPS * abs(want)


@pytest.mark.parametrize("depth", [1, 2, 10, 30])
def test_seed_order_one_makes_forward_functions_constant(depth):
    # The one-term seed is 1.0, a fixed point of -1 + 2*y**2, for every x.
    cfg = EvalConfig(depth, 1)
    for x in (0.0, 0.5, -2.0, 3.7, 1e6, 1 + 1j):
        for f in (nested_cos, nested_cosh, nested_exp):
            assert f(x, cfg) == 1.0, (f.__name__, x)
        for f in (nested_sin, nested_sinh, nested_tan, nested_tanh):
            assert f(x, cfg) == 0.0, (f.__name__, x)


@pytest.mark.parametrize("x", [1e300, -1e300 + 1j, 1e300j, math.inf])
def test_seed_order_one_is_constant_where_the_reduced_argument_overflows(x):
    # t*t overflows at |x|/2**depth above about 1.3e154, and t itself at
    # inf; the one-term seed must not form inf*0.0 there.
    cfg = EvalConfig(1, 1)
    for f in (nested_cos, nested_cosh, nested_exp):
        assert f(x, cfg) == 1.0, f.__name__
    for f in (nested_sin, nested_sinh, nested_tan, nested_tanh):
        assert f(x, cfg) == 0.0, f.__name__
    assert nested_cos_sequence(x, cfg) == [1.0, 1.0]
