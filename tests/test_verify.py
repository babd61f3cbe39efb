"""Reference oracles, error reports, convergence tables, and reproductions."""

import cmath
import copy
import dataclasses
import itertools
import math
import pickle
import re
import tracemalloc

import pytest

from nestrad import (
    DEFAULT_CONFIG,
    FUNCTIONS,
    EvalConfig,
    EvalReport,
    FunctionSpec,
    converge,
    eval_report,
    exp_limit,
    extract_branch,
    make_report,
    nested_acos_branch,
    nested_cos,
    ref_acos,
    ref_acosh,
    reproduce_table1,
    reproduce_table2,
    sweep_branches,
    verify,
)

from bitwise import assert_bitwise_equal


def test_ref_acos_principal_values():
    assert abs(ref_acos(1.0)) <= 1e-15
    assert ref_acos(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert ref_acos(-1.0) == pytest.approx(math.pi + 0j, rel=1e-15)
    assert ref_acos(2 + 3j) == pytest.approx(
        1.000143542473797 - 1.983387029916535j, rel=1e-14)


def test_ref_acos_stays_on_upper_sheet_past_one():
    # For real y > 1 the literal formula keeps a positive imaginary part,
    # equal to 1j times the principal inverse hyperbolic cosine.
    v = ref_acos(2.0)
    assert v.imag > 0
    assert v == pytest.approx(1j * math.acosh(2.0), rel=1e-14)


def test_ref_acos_matches_library_off_the_cut():
    for z in (0.3, -0.7, 0.5 + 0.5j, -1 - 2j):
        assert abs(ref_acos(z) - cmath.acos(z)) <= 1e-14


def test_ref_acosh_matches_library():
    # The factored radical keeps the left half-plane on the principal
    # sheet, matching the library convention everywhere tried.
    for z in (2.0, 0.5, -0.5, -2 + 3j, -2 - 3j, 1.5 + 0.5j):
        assert abs(ref_acosh(z) - cmath.acosh(z)) <= 1e-14


def test_inverse_cosine_oracles_match_mpmath_on_the_real_line():
    # The log formulas cancel below -1 (5e-7 relative at -1e6), raise from
    # about -1e8 down and overflow from about 1.3e154 up; the oracles must
    # stay within two ulps at every magnitude, on every branch.
    mpmath = pytest.importorskip("mpmath")

    def branch(a, k):
        if k < 0:
            return -branch(a, -k - 1)
        return k * mpmath.pi + a if k % 2 == 0 else (k + 1) * mpmath.pi - a

    def rel(got, want):
        return abs(mpmath.mpc(got) - want) / max(abs(want), 1)

    with mpmath.workdps(40):
        for e in range(309):
            for x in (10.0 ** e, -10.0 ** e):
                a, h = mpmath.acos(x), mpmath.acosh(x)
                assert rel(FUNCTIONS["acosh"].oracle(x, 0), h) <= 2 ** -51, x
                assert rel(FUNCTIONS["acosh"].oracle(x, -1), -h) <= 2 ** -51, x
                for k in (0, 1, 2, -1, -2, 7):
                    b = branch(a, k)
                    assert rel(FUNCTIONS["acos"].oracle(x, k), b) <= 2 ** -51, (x, k)
                    # On every branch acosh is +-1j times acos.
                    got = FUNCTIONS["acosh"].oracle(x, k)
                    err = min(rel(got, 1j * b), rel(got, -1j * b))
                    assert err <= 2 ** -51, (x, k)


@pytest.mark.parametrize("z", [1e3 + 1j, 1e6 + 1j, -1e6 + 1j, 1e10 + 1j,
                               1e200 + 1j])
def test_inverse_cosine_oracles_match_mpmath_off_the_real_line(z):
    # ref_acos's log formula is 5e-7 relative off at +-1e6+1j, raises at
    # 1e10+1j and returns nan at 1e200+1j; the oracles must stay within
    # two ulps on every branch, acosh's off-principal ones included.
    mpmath = pytest.importorskip("mpmath")

    def branch(a, k):
        if k < 0:
            return -branch(a, -k - 1)
        return k * mpmath.pi + a if k % 2 == 0 else (k + 1) * mpmath.pi - a

    def rel(got, want):
        return abs(mpmath.mpc(got) - want) / max(abs(want), 1)

    with mpmath.workdps(40):
        a = mpmath.acos(z)
        for k in (0, 1, 2, -1, -2, 7):
            b = branch(a, k)
            assert rel(FUNCTIONS["acos"].oracle(z, k), b) <= 2 ** -51, k
            got = FUNCTIONS["acosh"].oracle(z, k)
            assert min(rel(got, 1j * b), rel(got, -1j * b)) <= 2 ** -51, k


@pytest.mark.parametrize("x", [0.5, -0.3, 1e-3, -0.999, 1.0, -1.0])
def test_acosh_oracle_is_imaginary_on_the_interval(x):
    # On [-1, 1] branch 0 of acosh is exactly i*acos(x), with zero parts
    # of +0.0 as cmath.acosh gives.
    v = FUNCTIONS["acosh"].oracle(x, 0)
    assert repr(v) == repr(complex(0.0, math.acos(x))) == repr(cmath.acosh(x))


@pytest.mark.parametrize("name", ["acos", "acosh"])
@pytest.mark.parametrize("k", [0, 3, -2])
def test_inverse_cosine_oracles_of_nan_are_nan(name, k):
    v = FUNCTIONS[name].oracle(math.nan, k)
    assert math.isnan(v.real) and math.isnan(v.imag)


def test_oracle_inverts_cosine():
    for i in range(31):
        x = 0.05 + (math.pi - 0.1) * i / 30
        assert abs(ref_acos(math.cos(x)) - x) <= 1e-12


def test_report_arithmetic():
    r = make_report(0.0, 0.4, 0.5, 4, 2)
    assert r.abs_error == pytest.approx(0.1, rel=1e-12)
    # Oracle magnitude below 1 scales relative error by 1, not by itself.
    assert r.rel_error == r.abs_error
    r2 = make_report(0.0, 1.5, 2.0, 4, 2)
    assert r2.rel_error == pytest.approx(0.25, rel=1e-12)
    assert r2.depth == 4 and r2.seed_order == 2 and r2.branch == 0
    # Immutable, hashable, and printed in field=value form.
    with pytest.raises(AttributeError):
        r.depth = 5
    assert repr(r) == (
        "EvalReport(input=0.0, value=0.4, oracle_value=0.5, "
        "abs_error=0.09999999999999998, rel_error=0.09999999999999998, "
        "depth=4, seed_order=2, branch=0)")
    assert hash(r) == hash(make_report(0.0, 0.4, 0.5, 4, 2))


@pytest.mark.parametrize("args", [
    (0.0, 0.4, 0.5, 4, 2, 0),
    (-0.0, -3.25, -3.0, 30, 1, 0),
    (2 + 3j, 1.5 - 2j, 1.5 - 2.0000001j, 25, 4, -3),
    (0.5, 0.25 + 0j, 0.25, 10, 3, 7),
])
def test_make_report_matches_the_dataclass_init(args):
    # make_report skips the generated __init__; the report it builds must
    # be the one EvalReport(...) builds from the same fields.
    z, value, oracle, depth, order, branch = args
    abs_error = abs(value - oracle)
    want = EvalReport(z, value, oracle, abs_error,
                      abs_error / max(abs(oracle), 1.0), depth, order, branch)
    r = make_report(*args)
    assert type(r) is EvalReport and dataclasses.is_dataclass(r)
    assert r == want and hash(r) == hash(want) and repr(r) == repr(want)
    assert dataclasses.asdict(r) == dataclasses.asdict(want)
    assert list(vars(r)) == [f.name for f in dataclasses.fields(EvalReport)]
    assert dataclasses.replace(r, depth=7) == dataclasses.replace(want, depth=7)
    assert dataclasses.replace(r) == r
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.value = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.depth


def test_eval_report_forward_defaults():
    r = eval_report("cos", math.pi / 3)
    assert r.depth == 10 and r.seed_order == 2 and r.branch == 0
    assert r.value == pytest.approx(0.499999960463562, rel=1e-10)
    assert r.oracle_value == math.cos(math.pi / 3)
    assert r.abs_error == abs(r.value - r.oracle_value)


def test_eval_report_unknown_function():
    with pytest.raises(ValueError, match="unknown function"):
        eval_report("nope", 1.0)


def test_eval_report_branch_only_for_inverse_cosines():
    with pytest.raises(ValueError, match="branch selection"):
        eval_report("sin", 1.0, branch=2)


def test_eval_report_branch_of_acos():
    r = eval_report("acos", 0.0, branch=3)
    assert r.value == pytest.approx(10.995521462263701, rel=1e-12)
    assert r.oracle_value == pytest.approx(10.995574287564276, rel=1e-12)
    assert r.branch == 3


def test_eval_report_negative_branch_of_acosh():
    r = eval_report("acosh", 0.5, branch=-1)
    assert r.oracle_value == pytest.approx(-1j * math.acos(0.5), rel=1e-12)
    assert r.abs_error <= 1e-6


@pytest.mark.parametrize("name", ["acos", "asin", "log", "exp-limit"])
@pytest.mark.parametrize("order", [0, 5, 2.0, True])
def test_eval_report_checks_seed_order_without_a_seed(name, order):
    # The inverse and limit routes take no seed, but accept the same orders.
    with pytest.raises(ValueError, match="seed_order must be in 1..4"):
        eval_report(name, 0.5, seed_order=order)


def _outcome(call):
    # A call's value by repr, or the type and message of what it raised.
    try:
        return "value", repr(call())
    except Exception as exc:
        return type(exc), str(exc)


def test_config_cache_validates_like_evalconfig(monkeypatch):
    # Every function validates through the cached configs, which must
    # raise and return exactly as a fresh EvalConfig per call does, cold
    # and warm.
    # Warming with depths 1 and 10 and orders 1 and 2 puts the keys that
    # True, 10.0 and [2] would hit, were the cache not typed or hashed.
    grid = list(itertools.product(
        [10, 0, 31, 1024, True, 10.0, "10", [10]], [2, 0, 5, True, [2]]))

    def outcomes(name):
        return [_outcome(lambda: eval_report(name, 0.5, depth=d,
                                             seed_order=o).value)
                for d, o in grid]

    for name in FUNCTIONS:
        with monkeypatch.context() as m:
            m.setattr(verify, "_config", EvalConfig)
            uncached = outcomes(name)
        verify._config.cache_clear()
        cold = outcomes(name)
        for depth, order in itertools.product([1, 10], [1, 2]):
            eval_report(name, 0.5, depth=depth, seed_order=order)
        warm = outcomes(name)
        assert cold == uncached and warm == uncached, name
        for (d, o), got in zip(grid, uncached):
            want = _outcome(lambda: EvalConfig(d, o))
            if want[0] == "value":
                assert got[0] == "value", (name, d, o)
            else:
                assert got == want, (name, d, o)
    assert uncached[grid.index((31, 2))][0] == "value"
    assert uncached[grid.index((1024, 2))] == (
        ValueError, "depth 1024 exceeds 1023; 2**depth must stay a float")


def test_config_cache_is_used_and_bounded():
    verify._config.cache_clear()
    for _ in range(5):
        eval_report("cos", 0.7342, depth=17, seed_order=3)
    eval_report("sin", 0.7342, depth=17, seed_order=3)
    info = verify._config.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 1, 1)
    # Every depth past 30, up to the bound of 1023.
    for depth in range(31, 1024):
        eval_report("cos", 0.5, depth=depth)
    info = verify._config.cache_info()
    assert info.maxsize == 256 and info.currsize == info.maxsize


@pytest.mark.parametrize("name", FUNCTIONS)
def test_depth_bound_stops_where_2_to_the_depth_leaves_the_floats(name):
    # At 1024, 2.0**depth overflows and the limit index 2**depth no longer
    # converts to a float, so every function rejects the depth up front.
    eval_report(name, 0.5, depth=1023)
    with pytest.raises(ValueError, match=re.escape(
            "depth 1024 exceeds 1023; 2**depth must stay a float")):
        eval_report(name, 0.5, depth=1024)


def test_std_oracle_complex_and_out_of_domain_input():
    assert FUNCTIONS["cos"].oracle(1 + 1j, 0) == cmath.cos(1 + 1j)
    assert FUNCTIONS["asin"].oracle(2.0, 0) == cmath.asin(complex(2.0, 0.0))
    assert FUNCTIONS["log"].oracle(-1.0, 0) == cmath.log(complex(-1.0, 0.0))


@pytest.mark.parametrize("name, z, reference", [
    ("exp-limit", 800 + 1j, "exp"), ("exp-limit", 1e300 + 1e300j, "exp"),
    ("exp-limit", 800.0, "exp"), ("exp", 1e300 + 1j, "exp"),
    ("cosh", 1e300, "cosh"), ("sin", 1e300j, "sin"),
])
def test_std_oracle_overflow_names_the_reference_and_z(name, z, reference):
    # Where cmath overflows, the error says which reference and where, in
    # place of the bare "math range error".
    message = re.escape(f"the reference {reference} overflows at z = {z!r}; ")
    with pytest.raises(OverflowError, match=message):
        FUNCTIONS[name].oracle(z, 0)
    if name == "exp-limit":
        with pytest.raises(OverflowError, match=message):
            eval_report(name, z)


def test_eval_report_limit_and_shift_routes():
    assert eval_report("exp-limit", 1.0, depth=20).value == \
        exp_limit(1.0, 2 ** 20)
    assert eval_report("sin-shift", 1.0).value == \
        nested_cos(1.0 - math.pi / 2, DEFAULT_CONFIG)


def test_registered_function_names():
    # The 17 names eval offers; a name is a key, not a FunctionSpec field.
    assert sorted(FUNCTIONS) == [
        "acos", "acosh", "asin", "asinh", "atan", "atanh", "cos", "cosh",
        "exp", "exp-limit", "log", "log-limit", "sin", "sin-shift", "sinh",
        "tan", "tanh",
    ]
    assert FunctionSpec._fields == ("evaluate", "oracle")


# Each plain record, a fixed row of it, its fields in order and the repr
# the row printed when the record was a frozen dataclass.
RECORDS = {
    "ConvergenceRow": (
        lambda: converge("cos", 0.5, [4, 5])[1],
        ("depth", "value", "abs_error", "error_ratio"),
        "ConvergenceRow(depth=5, value=0.8775801233276549, "
        "abs_error=2.4385627178658e-06, error_ratio=4.000385514426668)"),
    "FunctionSpec": (
        lambda: FunctionSpec(math.cos, math.sin), ("evaluate", "oracle"),
        "FunctionSpec(evaluate=<built-in function cos>, "
        "oracle=<built-in function sin>)"),
    "Table1Row": (
        lambda: reproduce_table1(10)[1], ("k", "pattern", "value", "converging"),
        "Table1Row(k=1, pattern='+++-', value=4.7123848221200495, "
        "converging=4.71238898038469)"),
    "Table2Row": (
        lambda: reproduce_table2(10)[2], ("k", "at_plus_one", "at_minus_one"),
        "Table2Row(k=2, at_plus_one=1.999996862538733, "
        "at_minus_one=2.9999894110744534)"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    make, fields, text = RECORDS[name]
    row = make()
    assert type(row) is getattr(verify, name) and type(row)._fields == fields
    assert repr(row) == text
    twin = make()
    assert twin is not row and twin == row and hash(twin) == hash(row)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(row, field, 0)
        with pytest.raises(AttributeError):
            delattr(row, field)
    for other in (pickle.loads(pickle.dumps(row)), copy.copy(row), copy.deepcopy(row)):
        assert type(other) is type(row) and other == row


def test_converge_known_rows():
    rows = converge("cos", math.pi / 3, list(range(4, 11)))
    assert [r.depth for r in rows] == list(range(4, 11))
    assert rows[0].abs_error == pytest.approx(1.6195639287097663e-04, rel=1e-12)
    assert rows[0].error_ratio == 0.0
    assert rows[-1].abs_error == pytest.approx(3.951894922415988e-08, rel=1e-12)
    assert rows[-1].error_ratio == pytest.approx(4.00000155637629, rel=1e-12)


def test_converge_zero_error_rows():
    # Exact values give zero error and the ratio stays defined as zero.
    rows = converge("cos", 0.0, [4, 7, 9])
    assert [r.abs_error for r in rows] == [0.0, 0.0, 0.0]
    assert [r.error_ratio for r in rows] == [0.0, 0.0, 0.0]


def test_converge_inverse_function():
    rows = converge("acos", 0.0, [10])
    assert rows[0].abs_error == pytest.approx(1.5400983777169586e-07, rel=1e-12)


def test_converge_validation():
    with pytest.raises(ValueError, match="nonempty"):
        converge("cos", 1.0, [])
    with pytest.raises(ValueError, match="strictly increasing"):
        converge("cos", 1.0, [5, 5])
    with pytest.raises(ValueError, match="strictly increasing"):
        converge("cos", 1.0, [6, 4])


def test_sweep_known_rows():
    rows = list(sweep_branches(3))
    assert [k for k, _, _ in rows] == [0, 1, 2, 3]
    expected = [
        (-4.902285394292605e-08, 4.902285394292605e-08),
        (0.9999986763832556, 1.3236167444308222e-06),
        (1.9999938721475856, 6.127852414383739e-06),
        (2.999983185184844, 1.681481515580785e-05),
    ]
    for (_, ex, dev), (pe, pd) in zip(rows, expected):
        assert ex == pytest.approx(pe, abs=1e-15)
        assert dev == pytest.approx(pd, abs=1e-15)


def test_sweep_deep_endpoint():
    k, extracted, dev = list(sweep_branches(100, 100, 25))[-1]
    assert k == 100
    assert extracted == pytest.approx(99.99999999962927, rel=1e-12)
    assert dev == pytest.approx(3.7073277781018987e-10, rel=1e-9)


def test_sweep_is_deterministic():
    assert list(sweep_branches(20, 3, 12)) == list(sweep_branches(20, 3, 12))


@pytest.mark.parametrize("k_max, step, depth",
                         [(9000, 1, 25), (9000, 3, 20), (13000, 3, 20)])
def test_sweep_matches_per_branch_towers(k_max, step, depth):
    # Sweeps run in chunks of 4096 branches; (9000, 1) and (13000, 3)
    # cross chunk boundaries.  Rows must be the per-branch values.
    want = []
    for k in range(0, k_max + 1, step):
        extracted = extract_branch(nested_acos_branch(0.0, k, depth))
        want.append((k, extracted, abs(extracted - k)))
    assert_bitwise_equal(list(sweep_branches(k_max, step, depth)), want)


def test_sweep_memory_stays_bounded():
    # The sweep is lazy and chunked: its first row costs one chunk of
    # lanes, not a list over all 2**20 branches (over 100 MB).
    tracemalloc.start()
    try:
        next(sweep_branches(2 ** 20 - 1, 1, 21))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("depth", [10, 25, 30])
def test_tables_match_per_branch_towers(depth):
    t1 = reproduce_table1(depth)
    assert_bitwise_equal([r.value for r in t1],
                         [nested_acos_branch(0.0, k, depth) for k in range(8)])
    t2 = reproduce_table2(depth)
    assert_bitwise_equal(
        [(r.at_plus_one, r.at_minus_one) for r in t2],
        [(nested_acos_branch(1.0, k, depth) / math.pi,
          nested_acos_branch(-1.0, k, depth) / math.pi) for k in range(11)])


def test_sweep_validation():
    with pytest.raises(ValueError, match="k_max"):
        list(sweep_branches(0))
    with pytest.raises(ValueError, match="k_max"):
        list(sweep_branches(512, 1, 10))
    with pytest.raises(ValueError, match="step"):
        list(sweep_branches(3, 0))
    for k_max in (True, 2.5, 3.0):
        with pytest.raises(ValueError, match="k_max"):
            sweep_branches(k_max)
    for step in (True, 1.5):
        with pytest.raises(ValueError, match="step"):
            sweep_branches(3, step)

TABLE1_VALUES = [
    1.5707961727850588, 4.7123848221200495, 7.853962382758355,
    10.995521462264511, 14.13705466824654, 17.278554608373348,
    20.420013890392124, 23.56142512214572,
]
TABLE1_PATTERNS = ["++++", "+++-", "++--", "++-+", "+--+", "+---",
                   "+-+-", "+-++"]


def test_table1_reproduction():
    rows = reproduce_table1(10)
    assert [r.k for r in rows] == list(range(8))
    assert [r.pattern for r in rows] == TABLE1_PATTERNS
    for depth in (31, 1023):
        assert [r.pattern for r in reproduce_table1(depth)] == TABLE1_PATTERNS
    for row, expected in zip(rows, TABLE1_VALUES):
        assert row.value == pytest.approx(expected, rel=1e-12)
        assert row.converging == pytest.approx(
            (2 * row.k + 1) * math.pi / 2, rel=1e-15)


TABLE2_PLUS = [
    0.0, 1.999996862538733, 1.999996862538733,
    3.999974900345302, 3.999974900345302, 5.999915288864727,
    5.999915288864727, 7.999799203896401, 7.999799203896401,
    9.999607821771264, 9.999607821771264,
]
TABLE2_MINUS = [
    0.9999996078172032, 0.9999996078172032, 2.9999894110744534,
    2.9999894110744534, 4.999950977288829, 4.999950977288829,
    6.999865482060384, 6.999865482060384, 8.99971410143214,
    8.99971410143214, 10.999478012067256,
]


def test_table2_reproduction_depth_10():
    rows = reproduce_table2(10)
    assert len(rows) == 11
    assert rows[0].at_plus_one == 0.0
    for row, pp, pm in zip(rows, TABLE2_PLUS, TABLE2_MINUS):
        if pp:
            assert row.at_plus_one == pytest.approx(pp, rel=1e-12)
        assert row.at_minus_one == pytest.approx(pm, rel=1e-12)


def test_table2_degenerate_pairs_bitwise():
    rows = reproduce_table2(10)
    for j in range(1, 6):
        assert rows[2 * j - 1].at_plus_one == rows[2 * j].at_plus_one
    for j in range(0, 5):
        assert rows[2 * j].at_minus_one == rows[2 * j + 1].at_minus_one


@pytest.mark.parametrize("fn, args", [
    (sweep_branches, (3, 1)),
    (reproduce_table1, ()),
    (reproduce_table2, ()),
])
def test_cap_message_offers_no_option_the_caller_lacks(fn, args):
    # The sweep and the tables take the depths every entry point takes,
    # and reject the first past the bound with the one message.
    assert list(fn(*args, 31))
    with pytest.raises(ValueError) as info:
        fn(*args, 1024)
    assert str(info.value) == (
        "depth 1024 exceeds 1023; 2**depth must stay a float")


@pytest.mark.parametrize("fn", [reproduce_table1, reproduce_table2])
def test_tables_reject_shallow_depth(fn):
    with pytest.raises(ValueError, match="depth >= 10"):
        fn(9)
