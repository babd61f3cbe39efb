"""Hypothesis properties of the branch towers, their same-depth values and
the inverse-cosine oracles.

Every property runs derandomized and without an example database, so a
run draws the same inputs each time and saves no examples between runs.
Hypothesis still caches the constants it finds in the source under
.hypothesis/, which .gitignore lists.
"""

import cmath
import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestrad import (
    FUNCTIONS,
    EvalConfig,
    converge,
    eval_report,
    nested_acos,
    nested_acos_branch,
    nested_acosh,
    nested_acosh_branch,
    nested_asin,
    nested_asinh,
    nested_atan,
    nested_atanh,
    nested_cos,
    nested_cosh,
    nested_exp,
    nested_sin,
    nested_sinh,
    nested_tan,
    nested_tanh,
)
from nestrad.cli import fmt_scalar, main, parse_scalar
from nestrad.verify import _acos_oracle, _acosh_oracle
from same_depth import (
    EPS,
    acos_same_depth,
    acosh_same_depth,
    mp_pairs,
    roundoff_bound,
    truncation_bound,
)

REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None,
                        max_examples=500)

# Real arguments up to 1e6 in magnitude and complex ones with parts up
# to 1e3: the tower leaves the float range nowhere in there.
ARGS = st.one_of(
    st.floats(-1e6, 1e6),
    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)


@st.composite
def towers(draw):
    # (y, k, depth) with 0 <= k < 2**(depth - 1), the branches a depth
    # has; each has its mirror -k-1.
    depth = draw(st.integers(1, 30))
    k = draw(st.integers(0, 2 ** (depth - 1) - 1))
    return draw(ARGS), k, depth


def quarter_turn(a):
    # The acosh oracle's rule: +-1j*a, whichever has a positive real part,
    # or a zero one with a nonnegative imaginary part.
    a = complex(a)
    h = complex(-a.imag, a.real)
    return h if h.real > 0.0 or (h.real == 0.0 and h.imag >= 0.0) else -h


@REPRODUCIBLE
@given(towers())
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


@REPRODUCIBLE
@given(towers())
@example((987886.3382985231, 0, 30))  # the literal tower's worst a search found
def test_tower_roundoff_within_the_docstring_term(case):
    # The tower minus its exact same-depth value is roundoff, at most
    # (ROUNDOFF_STEP * n + ROUNDOFF_C) * eps relative to max(|S_n|, 1);
    # same_depth derives the constants.
    y, k, depth = case
    for tower, same_depth in ((nested_acos_branch, acos_same_depth),
                              (nested_acosh_branch, acosh_same_depth)):
        s = same_depth(y, k, depth)
        assert abs(tower(y, k, depth) - s) <= roundoff_bound(s, depth), case


# The same-depth round trips at seed order 2 (the paper's inverse
# relationship): the tower undoes the chain exactly in real arithmetic
# wherever every radicand of the tower is the square of a nonnegative
# iterate, which holds for acos on x in [0, 2.5] at every depth (the
# depth-1 seed 1 - x**2/8 stays positive) and for acosh on the real line.
# What is left is roundoff: the inverse tower's own, a few eps of |x|;
# the forward chain's, which grows as about 1.5 eps * |x| (ROADMAP item
# 28); and the rounding of f_n(x) to a float, half an ulp of f, which g
# scales by |g'(f)|.  So the error is within c * eps * (|x| + |f * g'(f)|),
# with c = 8 covering 1.5 + 0.5 and the tower's roundoff of at most about
# 5 eps (ROUNDOFF_C) with room; 60,000 random draws read at most 4.4
# (acos) and 5.0 (acosh).
ROUND_TRIP_C = 8.0


@REPRODUCIBLE
@given(st.floats(0.0, 2.5), st.integers(1, 30))
def test_acos_undoes_cos_at_the_same_depth(x, depth):
    f = nested_cos(x, EvalConfig(depth, 2))
    cond = abs(f) / math.sqrt(1.0 - f * f) if abs(f) < 1.0 else math.inf
    assert abs(nested_acos(f, depth) - x) <= ROUND_TRIP_C * EPS * (x + cond)


@REPRODUCIBLE
@given(st.floats(-700.0, 700.0), st.integers(1, 30))
def test_acosh_undoes_cosh_at_the_same_depth(x, depth):
    f = nested_cosh(x, EvalConfig(depth, 2))
    cond = f / math.sqrt((f - 1.0) * (f + 1.0)) if f > 1.0 else math.inf
    assert abs(nested_acosh(f, depth) - abs(x)) <= \
        ROUND_TRIP_C * EPS * (abs(x) + cond)


@REPRODUCIBLE
@given(st.one_of(st.floats(0.0, 800.0, exclude_min=True),
                 st.builds(complex, st.floats(0.0, 800.0, exclude_min=True),
                           st.floats(-1e3, 1e3))),
       st.integers(1, 30), st.integers(1, 4))
def test_exp_of_minus_x_is_the_reciprocal_bitwise(x, depth, order):
    # cosh is even and sinh odd, bitwise, so cosh - sinh at -x is
    # cosh + sinh at x: nested_exp(-x) is 1/nested_exp(x) to the bit, or
    # both raise the same error (ZeroDivisionError where the sum is 0).
    cfg = EvalConfig(depth, order)
    b = _outcome(nested_exp, x, cfg)
    want = b if isinstance(b, type) else _outcome(lambda v: 1.0 / v, b)
    got = _outcome(nested_exp, -x, cfg)
    assert got is want if isinstance(want, type) else repr(got) == repr(want), x


# The forward chains against their exact same-depth pair (C, S), the
# doubled seed of same_depth.mp_pairs in 60 digits at seed orders 2 to 4:
# the roundoff grows as about 1.5 eps * |x| (ROADMAP item 28), so each
# value is within PAIR_C * (1 + |x|) * eps of max(1, |C|, |S|), and exp
# within that of its own value, C + S or 1/(C - S) for x < 0.  The
# circular seed sine is real only for |x| <= 2**(depth + 1), where
# 2 + u*q stays positive at each of these orders, so cos and sin are
# drawn there only.  6000 random draws at order 2 read at most 7.4 (cos,
# depth 16), and 9000 at orders 3 and 4 at most 6.7 (cos, order 4).
PAIR_C = 20.0


@REPRODUCIBLE
@given(st.floats(-60.0, 60.0), st.integers(1, 30), st.sampled_from([2, 3, 4]))
def test_forward_chains_keep_to_the_same_depth_pair(x, depth, order):
    mpmath = pytest.importorskip("mpmath")
    cfg = EvalConfig(depth, order)
    with mpmath.workdps(60):
        c, s = mp_pairs(x, depth, order, True)[-1]
        e = c + s if x >= 0.0 else 1 / (c - s)
        scale = max(1.0, abs(c), abs(s))
        checks = [(nested_cosh, c, scale), (nested_sinh, s, scale),
                  (nested_exp, e, abs(e))]
        if abs(x) <= 2.0 ** (depth + 1):
            c, s = mp_pairs(x, depth, order)[-1]
            scale = max(1.0, abs(c), abs(s))
            checks += [(nested_cos, c, scale), (nested_sin, s, scale)]
        for fn, exact, scale in checks:
            off = abs(fn(x, cfg) - exact)
            assert off <= PAIR_C * (1.0 + abs(x)) * EPS * scale, \
                (fn.__name__, x, depth, order)


@REPRODUCIBLE
@given(towers())
@example((723513.7512843949, 0, 1))  # imaginary a: the bound is attained
def test_same_depth_values_truncate_by_the_cubic_law(case):
    # S_n minus the limit is truncation: the cubic term times the factor
    # same_depth.truncation_bound derives, plus the rounding of S_n, of
    # the difference and of the bound, a few ulps of |a| + |S_n| each.
    y, k, depth = case
    for oracle, same_depth in ((_acos_oracle, acos_same_depth),
                               (_acosh_oracle, acosh_same_depth)):
        a, s = oracle(y, k), same_depth(y, k, depth)
        slack = 8 * EPS * (abs(a) + abs(s))
        assert abs(s - a) <= truncation_bound(a, depth) + slack, case


# The scalar grammar: repr text of finite floats comes back bit for bit,
# signed zeros, subnormals and the largest floats included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _signed(b):
    return "-" if math.copysign(1.0, b) < 0.0 else "+"


@REPRODUCIBLE
@given(FINITE, FINITE)
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(5e-324, -2.5e-310)
@example(1.7e308, -1.7e308)
def test_repr_text_parses_bitwise(a, b):
    assert repr(parse_scalar(repr(a))) == repr(a)
    got = parse_scalar(f"{a!r}{_signed(b)}{abs(b)!r}i")
    assert repr(got) == repr(complex(a, b))
    assert repr(parse_scalar(f"{b!r}i")) == repr(complex(0.0, b))


# fmt_scalar keeps 15 significant digits, so each part comes back within
# 6e-15 relative, up to the largest finite float.
NORMAL = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@REPRODUCIBLE
@given(st.one_of(NORMAL, st.builds(complex, NORMAL, NORMAL)))
@example(-0.0)
@example(complex(2.2250738585072014e-308, -1e308))
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@example(complex(-1.7976931348623151e308, 1.7976931348623157e308))
def test_formatted_text_parses_to_15_digits(v):
    got = complex(parse_scalar(fmt_scalar(v)))
    for part, want in ((got.real, complex(v).real), (got.imag, complex(v).imag)):
        assert abs(part - want) <= 6e-15 * abs(want), (v, got)


def _outcome(fn, *args):
    # A value, or the type of the error raised instead.
    try:
        return fn(*args)
    except Exception as e:
        return type(e)


def _negated(v):
    return v if isinstance(v, type) else -v


def _same(a, b):
    # Equal values (so 0.0 matches -0.0), NaN matching NaN, or the same
    # error type on both sides.
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a == b or (cmath.isnan(a) and cmath.isnan(b))


DEPTHS = st.integers(1, 30)
REALS = st.floats(allow_nan=False)


@REPRODUCIBLE
@given(st.one_of(REALS, st.builds(complex, REALS, REALS)), DEPTHS,
       st.integers(1, 4))
def test_cos_and_cosh_are_bitwise_even(x, depth, order):
    cfg = EvalConfig(depth, order)
    for fn in (nested_cos, nested_cosh):
        a, b = _outcome(fn, x, cfg), _outcome(fn, -x, cfg)
        assert repr(a) == repr(b), (fn.__name__, x)


@REPRODUCIBLE
@given(REALS, DEPTHS)
def test_odd_functions_are_odd_and_asin_is_even(x, depth):
    cfg = EvalConfig(depth)
    for fn, arg in ((nested_sinh, cfg), (nested_tanh, cfg), (nested_atan, depth),
                    (nested_asinh, depth), (nested_atanh, depth)):
        a, b = _outcome(fn, -x, arg), _outcome(fn, x, arg)
        assert _same(a, _negated(b)), (fn.__name__, x)
    # nested_asin returns the magnitude branch, the same for y and -y.
    a, b = _outcome(nested_asin, -x, depth), _outcome(nested_asin, x, depth)
    assert repr(a) == repr(b), x


@REPRODUCIBLE
@given(FINITE, DEPTHS)
def test_sin_and_tan_are_odd_off_their_zeros(x, depth):
    # The sign comes from x reduced by the period; where that is exactly
    # zero, both x and -x take the positive root.
    cfg = EvalConfig(depth)
    for fn, period in ((nested_sin, math.tau), (nested_tan, math.pi)):
        a, b = _outcome(fn, -x, cfg), _outcome(fn, x, cfg)
        if isinstance(b, type) or math.remainder(x, period) != 0.0:
            assert _same(a, _negated(b)), (fn.__name__, x)


PARTS = st.floats(-1e308, 1e308)


@st.composite
def eval_argvs(draw):
    # nestrad eval on any function, finite real or complex text, any depth
    # under the cap and any seed order; acos and acosh also get a branch,
    # in range or out of it.
    name = draw(st.sampled_from(sorted(FUNCTIONS)))
    a = draw(PARTS)
    text = repr(a)
    if draw(st.booleans()):
        b = draw(PARTS)
        text += f"{_signed(b)}{abs(b)!r}i"
    depth = draw(DEPTHS)
    argv = ["eval", name, text, "--depth", str(depth),
            "--seed-order", str(draw(st.integers(1, 4)))]
    if name in ("acos", "acosh"):
        argv += ["--branch", str(draw(st.integers(-2 ** depth, 2 ** depth)))]
    return argv


@REPRODUCIBLE
@given(eval_argvs())
@example(["eval", "log", "0"])
@example(["eval", "tan", "0", "--depth", "1"])
@example(["eval", "acos", "0", "--branch", "512"])
def test_eval_exits_0_2_or_3_with_stderr_only_on_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())


@st.composite
def converge_requests(draw):
    # Any function at real z inside and outside [-1, 1], complex z or a
    # pole, any seed order and a depth range A..B under the cap.
    name = draw(st.sampled_from(sorted(FUNCTIONS)))
    z = draw(st.one_of(st.floats(-1.0, 1.0), REALS, st.builds(complex, PARTS, PARTS),
                       st.sampled_from([0.0, 1.0, -1.0, 1j, -1j])))
    lo = draw(DEPTHS)
    depths = list(range(lo, draw(st.integers(lo, min(lo + 8, 30))) + 1))
    return name, z, depths, draw(st.integers(1, 4))


def _error(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as e:
        return type(e), str(e)
    return None


@REPRODUCIBLE
@given(converge_requests())
@example(("log", 0.0, [4, 5], 2))
@example(("atanh", 1.0, [4, 5], 2))
@example(("atan", 1j, [4, 5], 2))
@example(("log-limit", 0.0, [2, 3], 2))
@example(("cosh", 1e300, [4, 5], 1))  # every depth evaluates; the oracle overflows
@example(("cos", 1e300, [1, 2], 2))   # the evaluator and the oracle both overflow
@example(("cos", 947.0, [1, 2, 3, 4, 5, 6, 7], 4))  # only the last depth overflows
def test_converge_agrees_with_eval_at_every_depth(req):
    # Each row is eval_report's value and error at its depth, bit for bit.
    # converge evaluates every depth before it consults the oracle, so its
    # error is eval_report's at the first depth whose evaluation raises,
    # and the oracle's only when every depth evaluates.
    name, z, depths, order = req
    spec = FUNCTIONS[name]
    failing = [d for d in depths if _error(spec.evaluate, z, d, order, 0)]
    try:
        rows = converge(name, z, depths, order)
    except Exception as e:
        want = (_error(eval_report, name, z, depth=failing[0], seed_order=order)
                if failing else _error(spec.oracle, z, 0))
        assert (type(e), str(e)) == want, req
        return
    assert [row.depth for row in rows] == depths
    for row in rows:
        r = eval_report(name, z, depth=row.depth, seed_order=order)
        assert repr((row.value, row.abs_error)) == repr((r.value, r.abs_error)), req
