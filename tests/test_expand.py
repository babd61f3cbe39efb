"""Exact rational expansion of the doubled polynomial chain."""

import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nestrad
from nestrad import (
    EXPANSION_DEPTH_CAP,
    EvalConfig,
    RationalPoly,
    expand_nested_cos,
    maclaurin_error_profile,
    nested_cos,
    nested_cosh,
)
from nestrad.expand import _build


def test_hyperbolic_variant_seed_sign():
    assert expand_nested_cos(1, "hyperbolic").coeffs == (
        Fraction(1), Fraction(1, 2), Fraction(1, 32))


@pytest.mark.parametrize("depth", range(1, 7))
def test_circular_signs_alternate(depth):
    for j, c in enumerate(expand_nested_cos(depth).coeffs):
        assert c != 0
        assert (c > 0) == (j % 2 == 0)


@pytest.mark.parametrize("depth", range(1, 7))
def test_hyperbolic_coefficients_positive(depth):
    assert all(c > 0 for c in expand_nested_cos(depth, "hyperbolic").coeffs)


def test_quartic_coefficient_approaches_series():
    assert [expand_nested_cos(n).coefficient(2) for n in (1, 2, 3)] == \
        [Fraction(1, 32), Fraction(5, 128), Fraction(21, 512)]
    target = Fraction(1, 24)
    gaps = [abs(expand_nested_cos(n).coefficient(2) - target)
            for n in range(1, 7)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_error_profile():
    # The two lowest coefficients are exact at every depth; the quartic
    # one first deviates.
    assert maclaurin_error_profile(1, 1) == [Fraction(0), Fraction(0)]
    assert maclaurin_error_profile(2, 2) == [
        Fraction(0), Fraction(0), Fraction(-1, 384)]
    # Past the degree 2**depth the coefficients are zero, so the entries
    # are minus the cosine series terms.
    assert maclaurin_error_profile(1, 4) == [
        Fraction(0), Fraction(0), Fraction(-1, 96), Fraction(1, 720),
        Fraction(-1, 40320)]
    assert maclaurin_error_profile(2, 5) == [
        Fraction(0), Fraction(0), Fraction(-1, 384), Fraction(19, 46080),
        Fraction(-709, 41287680), Fraction(1, 3628800)]


def _reference_coefficients(depth, variant, last=None):
    # Reference: the term-ratio recurrence in Fraction arithmetic, one
    # normalized Fraction multiply per coefficient.
    n = 2 ** depth
    scale = 2 ** (2 * depth + 1)
    if variant == "circular":
        scale = -scale
    coeffs = [Fraction(1)]
    for j in range(n if last is None else min(last, n)):
        coeffs.append(coeffs[-1] * Fraction(
            (n - j) * (n + j), (2 * j + 1) * (j + 1) * scale))
    return coeffs


@pytest.mark.parametrize("variant", ["circular", "hyperbolic"])
@pytest.mark.parametrize("depth", range(1, EXPANSION_DEPTH_CAP + 1))
def test_coefficients_match_fraction_recurrence(depth, variant):
    # The expansion builds each Fraction from its slots, with no gcd; it
    # must be the normalized Fraction in every way a caller can see.  An
    # odd numerator over a power of two is in lowest terms; Fraction(n, d)
    # and math.gcd cost seconds at depths 11 and 12, so they stop at 10.
    # str is compared where the CLI can print it (see EXPANSION_DEPTH_CAP).
    coeffs = expand_nested_cos(depth, variant).coeffs
    ref = _reference_coefficients(depth, variant)
    assert [(c.numerator, c.denominator) for c in coeffs] == \
        [(r.numerator, r.denominator) for r in ref]
    for c, r in zip(coeffs, ref):
        n, d = c.numerator, c.denominator
        assert type(c) is Fraction
        assert d > 0 and d & (d - 1) == 0 and (n % 2 == 1 or d == 1)
        assert hash(c) == hash(r) and c == r
        if depth <= 10:
            assert math.gcd(n, d) == 1 and c == Fraction(n, d)
        if depth <= 9:
            assert str(c) == str(r)


@pytest.mark.parametrize("depth", range(1, EXPANSION_DEPTH_CAP + 1))
def test_error_profile_matches_fraction_recurrence(depth):
    # max_j below, at and above the degree 2**depth: the partial expansion
    # stops at max_j, and past the degree the coefficients are zero.  Every
    # depth also takes max_j 1..12, the sizes the benchmark draws; depths
    # 8..12 take only those.
    n = 2 ** depth
    rows = {*range(1, 13), n - 1, n, n + 2} if depth <= 7 else range(1, 13)
    for max_j in sorted(rows):
        ref = _reference_coefficients(depth, "circular", max_j)
        ref += [Fraction(0)] * (max_j + 1 - len(ref))
        want = [c - Fraction((-1) ** j, math.factorial(2 * j))
                for j, c in enumerate(ref)]
        got = maclaurin_error_profile(depth, max_j)
        assert [(e.numerator, e.denominator) for e in got] == \
            [(e.numerator, e.denominator) for e in want]
        assert all(type(e) is Fraction for e in got)
        assert all(e.denominator > 0 and math.gcd(e.numerator, e.denominator)
                   == 1 for e in got)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_error_profile_builds_only_the_coefficients_it_compares():
    # The profile pulls max_j + 1 coefficients from the expansion's
    # generator; draining it would hold all 4097 of depth 12, about 30 MB
    # on CPython 3.11.
    full = _peak_bytes(expand_nested_cos, EXPANSION_DEPTH_CAP)
    assert _peak_bytes(maclaurin_error_profile, EXPANSION_DEPTH_CAP, 3) < full / 20


def test_error_profile_reads_the_shared_expansion(monkeypatch):
    # Depths 1..9 read the poly expand_nested_cos shares and run no step
    # of the recurrence; depths 10..12 pull max_j + 1 coefficients from it.
    def unused(depth, variant):
        raise AssertionError("the recurrence ran")

    shared = {d: expand_nested_cos(d) for d in range(1, 10)}
    real = nestrad.expand._coefficients
    monkeypatch.setattr(nestrad.expand, "_coefficients", unused)
    for depth in range(1, 10):
        for max_j in (1, 5, 12, 2 ** depth + 3):
            assert maclaurin_error_profile(depth, max_j) == [
                shared[depth].coefficient(j)
                - Fraction((-1) ** j, math.factorial(2 * j))
                for j in range(max_j + 1)]
    pulled = []

    def counting(depth, variant):
        for c in real(depth, variant):
            pulled.append(c)
            yield c

    monkeypatch.setattr(nestrad.expand, "_coefficients", counting)
    for depth in range(10, EXPANSION_DEPTH_CAP + 1):
        for max_j in (1, 5, 12):
            pulled.clear()
            maclaurin_error_profile(depth, max_j)
            assert len(pulled) == max_j + 1


def test_error_profile_validation():
    for max_j in (0, 2.5, True):
        with pytest.raises(ValueError, match="max_j"):
            maclaurin_error_profile(2, max_j)


@pytest.mark.parametrize("depth", range(1, 7))
def test_evaluate_matches_floating_chain(depth):
    # Same polynomial, two evaluation routes: exact coefficients summed in
    # floating point versus the iterated chain.
    poly = expand_nested_cos(depth).evaluate(math.pi / 3)
    chain = nested_cos(math.pi / 3, EvalConfig(depth, 2))
    assert abs(poly - chain) <= 1e-12


def test_evaluate_states_where_it_loses_digits():
    # evaluate's docstring and the README: at depth 10 the circular float
    # Horner cancels, 1.6e-14, 1.9e-4 and 9.8e30 off at x = 10, 30 and 100
    # relative to max(|P|, 1); the hyperbolic one does not (its 1.4e-12 at
    # x = 100 is coefficients that round to subnormal or zero floats); and
    # the seed-order-2 chains evaluate both polynomials within 6e-14.
    # Each is measured against the exact Horner sum, in integers over the
    # last coefficient's denominator 2**t, the largest: a Fraction Horner's
    # value, 100 times faster.
    stated = {"circular": ["1.6e-14", "1.9e-04", "9.8e+30"], "hyperbolic": [None] * 3}
    for variant, chain in [("circular", nested_cos), ("hyperbolic", nested_cosh)]:
        poly = expand_nested_cos(10, variant)
        t = poly.coeffs[-1].denominator.bit_length() - 1
        for x, want in zip((10.0, 30.0, 100.0), stated[variant]):
            acc = 0
            for c in reversed(poly.coeffs):
                shift = t + 1 - c.denominator.bit_length()
                acc = acc * int(x) ** 2 + (c.numerator << shift)
            exact = Fraction(acc, 1 << t)
            scale = max(abs(exact), 1)
            off = float(abs(Fraction(poly.evaluate(x)) - exact) / scale)
            assert f"{off:.1e}" == want if want else off < 1e-11, (variant, x, off)
            off = float(abs(Fraction(chain(x, EvalConfig(10, 2))) - exact) / scale)
            assert off < 6e-14, (variant, x, off)


@pytest.mark.parametrize("variant", ["circular", "hyperbolic"])
@pytest.mark.parametrize("depth", range(1, 9))
def test_expansion_equals_exact_chain(depth, variant):
    # Reference shares no code with the expansion: run y <- -1 + 2y**2 in
    # Fraction arithmetic from the seed and compare exact values.
    sign = -1 if variant == "circular" else 1
    coeffs = expand_nested_cos(depth, variant).coeffs
    for x in (Fraction(1, 3), Fraction(-7, 5), Fraction(22, 7)):
        u = x * x
        horner = Fraction(0)
        for c in reversed(coeffs):
            horner = horner * u + c
        y = 1 + sign * u / 2 ** (2 * depth + 1)
        for _ in range(depth):
            y = -1 + 2 * y * y
        assert horner == y


def test_evaluate_at_zero():
    assert expand_nested_cos(3).evaluate(0.0) == 1.0


def test_depth_validation():
    for depth in (0, True, 2.5, 2.0):
        with pytest.raises(ValueError, match="1\\.\\."):
            expand_nested_cos(depth)
    with pytest.raises(ValueError):
        expand_nested_cos(EXPANSION_DEPTH_CAP + 1)
    with pytest.raises(ValueError, match="variant"):
        expand_nested_cos(2, "parabolic")


def test_poly_construction_rules():
    with pytest.raises(ValueError, match="at least one"):
        RationalPoly(())
    with pytest.raises(ValueError, match="trailing"):
        RationalPoly((Fraction(1), Fraction(0)))
    p = RationalPoly((Fraction(1), Fraction(-1, 2)))
    assert len(p) == 2
    assert p.coefficient(7) == Fraction(0)
    for j in (-1, True, 2.0, 2.5):
        with pytest.raises(ValueError, match=">= 0"):
            p.coefficient(j)


def test_poly_from_list_is_a_tuple_poly():
    coeffs = [Fraction(1), Fraction(-1, 2), Fraction(1, 32)]
    p = RationalPoly(coeffs)
    q = RationalPoly(tuple(coeffs))
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    before = p.evaluate(0.5)
    coeffs[1] = Fraction(7)
    assert p.evaluate(0.5) == before == q.evaluate(0.5)


def _evaluate_reference(coeffs, x):
    # Reference: converts every coefficient again on every call.
    u = x * x
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + float(c)
    return acc


# Complex points with Re(u) < 0 (1+2j, -0.5-3j) give 0*u a -0.0 real part.
EVAL_XS = (0.0, -0.0, 1e-300, 1e-3, 0.5, 1.0, -2.5, 40.0, 1e154, 1e200,
           math.inf, -math.inf, math.nan, 1 + 1j, 1 + 2j, -0.5 - 3j)


@pytest.mark.parametrize("variant", ["circular", "hyperbolic"])
@pytest.mark.parametrize("depth", range(1, 11))
def test_evaluate_matches_per_call_conversion(depth, variant):
    # repr-equal also pins the sign of zero and the nan that the 0.0 start
    # times an infinite u gives (x = 1e200 overflows u too), which a loop
    # starting from the first nonzero coefficient would turn into +-inf.
    # From depth 7 on the top coefficients underflow to 0.0 and are not
    # summed, so these rows also check that dropping them changes nothing.
    poly = expand_nested_cos(depth, variant)
    for _ in range(2):
        for x in EVAL_XS:
            assert repr(poly.evaluate(x)) == repr(
                _evaluate_reference(poly.coeffs, x)), x


@pytest.mark.parametrize("coeffs", [
    (Fraction(1), Fraction(0), Fraction(1, 3)),
    (Fraction(1), Fraction(-1, 2), Fraction(1, 2 ** 1100)),
    (Fraction(1), Fraction(-1, 2), Fraction(-1, 2 ** 1100)),
    (Fraction(1, 2 ** 1100),),
    (Fraction(1, 2 ** 1100), Fraction(-1, 2 ** 1100)),
    (Fraction(1), Fraction(3, 2 ** 1076)),
    (Fraction(1), Fraction(-1, 2 ** 1075)),
], ids=["interior-zero", "top-underflow", "top-underflow-negated",
        "all-underflow", "all-underflow-two", "top-least-subnormal", "top-half-tie"])
def test_evaluate_drops_only_top_float_zeros(coeffs):
    # An interior zero is summed; a top coefficient that is 0.0 as a float
    # is not; a polynomial whose coefficients are all 0.0 keeps them all.
    # 3/2**1076 rounds up to the least subnormal, which 1e154 lifts to an
    # ulp of 1, and -1/2**1075 is a tie that rounds to -0.0.
    poly = RationalPoly(coeffs)
    for x in EVAL_XS:
        assert repr(poly.evaluate(x)) == repr(
            _evaluate_reference(coeffs, x)), x


INF, NAN = math.inf, math.nan
# Coefficients: exact Fractions, Fractions below half the least subnormal
# (float() gives +-0.0) and raw floats, non-finite ones and -0.0 included.
SPECIAL = (0.0, -0.0, INF, -INF, NAN, 1e200)
COEFFS = st.one_of(
    st.builds(Fraction, st.integers(-2 ** 60, 2 ** 60), st.integers(1, 2 ** 60)),
    st.builds(lambda n, e: Fraction(n, 2 ** e), st.integers(-2 ** 20, 2 ** 20),
              st.integers(1100, 1200)),
    st.sampled_from(SPECIAL), st.floats())
PARTS = st.one_of(st.sampled_from(SPECIAL), st.floats())
XS = st.one_of(PARTS, st.builds(complex, PARTS, PARTS))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(COEFFS, min_size=1, max_size=300), st.lists(XS, min_size=1, max_size=8))
@example([1.0] * 5000, [0.0, -0.0, 0.5, 1.0, 1e200, INF, NAN, 1 + 2j, -0.5 - 3j])
@example([-0.0], [1j, 1 + 2j, -0.5 - 3j])
def test_evaluate_is_bitwise_the_per_call_loop(coeffs, xs):
    # Each table length gets its own straight-line evaluator, 32 terms to
    # a statement; each is bitwise the loop over every float coefficient.
    # [-0.0] at Re(u) < 0 pins a -0.0 real part: 0.0 * u has one there,
    # and -0.0 + -0.0 is -0.0, so any extra + 0.0 would show.
    if len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs[-1] = 1.0
    poly = RationalPoly(coeffs)
    for x in xs:
        assert repr(poly.evaluate(x)) == repr(_evaluate_reference(coeffs, x)), x


def test_evaluated_polys_pickle_and_copy():
    # The evaluator a poly caches on first use cannot be pickled; pickling
    # and copying take the coefficients, and the copy builds its own.
    for poly in (expand_nested_cos(5), expand_nested_cos(10)):
        poly.evaluate(0.5)
        for twin in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly),
                     copy.copy(poly)):
            assert twin == poly and twin is not poly
            assert "evaluate" not in vars(twin)
            for x in EVAL_XS:
                assert repr(twin.evaluate(x)) == repr(poly.evaluate(x)), x


def test_horner_sums_only_float_nonzero_coefficients():
    # 88 of the 129 coefficients at depth 7 and 89 from depth 8 on are
    # nonzero as floats; the rest underflow.
    for variant in ("circular", "hyperbolic"):
        assert [len(expand_nested_cos(d, variant)._horner)
                for d in range(5, 11)] == [33, 65, 88, 89, 89, 89]


@pytest.mark.parametrize("variant", ["circular", "hyperbolic"])
@pytest.mark.parametrize("depth", range(1, 10))
def test_expansion_is_shared_up_to_depth_9(depth, variant):
    # One poly per (depth, variant), float table included, for the process.
    p = expand_nested_cos(depth, variant)
    p.evaluate(0.5)
    q = expand_nested_cos(depth, variant)
    assert q is p and q._horner is p._horner


def test_depth_12_expansion_is_fresh_and_released():
    # Depth 12 holds about 30 MB per poly: it is built on every call, and
    # nothing of it stays allocated once the caller drops it.
    p, q = expand_nested_cos(12), expand_nested_cos(12)
    assert p == q and p is not q and p.coeffs is not q.coeffs
    del p, q
    tracemalloc.start()
    try:
        expand_nested_cos(12)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < peak / 100


def test_rejected_arguments_never_reach_the_shared_expansions():
    # True == 1 and 2.0 == 2 hash alike, so a cached key would answer them;
    # the checks run first and raise, and the cache gains no entry.
    expand_nested_cos(1), expand_nested_cos(2)
    size = _build.cache_info().currsize
    for depth in (True, 2.0, 0, 13, [3], "3"):
        with pytest.raises(ValueError, match="depth must be in 1\\.\\.12"):
            expand_nested_cos(depth)
    for variant in ("parabolic", ["circular"]):
        with pytest.raises(ValueError, match="variant must be"):
            expand_nested_cos(2, variant)
    assert _build.cache_info().currsize == size


def test_shared_expansions_fill_lazily():
    # Importing the package and the CLI and building the parser do not
    # load expand at all; imported explicitly, it has expanded nothing:
    # the first expand_nested_cos call of a depth builds it.
    src = os.path.dirname(os.path.dirname(nestrad.__file__))
    code = ("import sys, nestrad, nestrad.cli\n"
            "nestrad.cli.build_parser()\n"
            "print('nestrad.expand' in sys.modules)\n"
            "import nestrad.expand\n"
            "print(nestrad.expand._build.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout == "False\n0\n"


def test_error_profile_builds_one_shared_expansion():
    # A profile at depth 9 builds the circular poly expand_nested_cos(9)
    # returns, once, and nothing else.
    src = os.path.dirname(os.path.dirname(nestrad.__file__))
    code = ("import nestrad\n"
            "nestrad.maclaurin_error_profile(9, 5)\n"
            "print(nestrad.expand._build.cache_info().currsize)\n"
            "nestrad.expand_nested_cos(9)\n"
            "print(nestrad.expand._build.cache_info())\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout == ("1\nCacheInfo(hits=1, misses=1, maxsize=None, "
                          "currsize=1)\n")
