"""Acceptance suite: ten criteria, one pass or fail line each.

Every criterion runs as a single test that aggregates its sub-checks and
reports all violations together, so a verbose run prints exactly one
line per criterion.  Pinned digits and tolerances sit next to the checks
they guard.  Criteria the implementation cannot honestly meet fail
loudly here instead of being weakened; README.md catalogs those known
failures and their causes.  Two further tests, outside the criteria,
run when mpmath is installed: one recomputes the pins of criteria 1 and
4, and criterion 2's last cosine-chain entries, from the nested formula
at 60 digits, the other checks the acosh branch oracle against the
same formula.
"""

import contextlib
import io
import math
import sys

from fractions import Fraction

import pytest

from nestrad import (
    DEFAULT_CONFIG,
    EvalConfig,
    branch_oracle_acos,
    double_angle_step,
    eval_report,
    exp_limit,
    expand_nested_cos,
    extract_branch,
    gray_adjacent_distance,
    gray_signs,
    half_angle_step,
    log_limit,
    nested_acos,
    nested_acos_branch,
    nested_acos_sequence,
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
    ref_acos,
    reproduce_table2,
)
from nestrad.cli import main as cli_main

from same_depth import mp_chain, mp_tower

EPS = sys.float_info.epsilon


def _rel(value, pin):
    return abs(value - pin) / max(abs(pin), 1e-300)


def _assert_clean(failures):
    assert not failures, "\n" + "\n".join(failures)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


# The depth-10 nested formula evaluated to 60 digits (mpmath) and rounded
# to double; test_pins_are_same_depth_formula_values recomputes them.
# acosh(-2+3i) is on the principal sheet, imaginary part positive.
ACOS_2_D10 = 1.3169579876869149j
ACOS_2_3I_D10 = 1.0001439717359633 - 1.9833871034458528j
ACOSH_M2_3I_D10 = 1.9833862556927317 + 2.1414497251226665j


def test_criterion_01_golden_scalar_reproductions():
    checks = [
        ("nested_cos(pi/3, depth 4, order 2)",
         nested_cos(math.pi / 3, EvalConfig(4, 2)), 0.499838043607131, 1e-10),
        ("nested_cos(pi/3, depth 10, order 2)",
         nested_cos(math.pi / 3, EvalConfig(10, 2)), 0.499999960463562, 1e-10),
        ("nested_cos(pi/3, depth 4, order 4)",
         nested_cos(math.pi / 3, EvalConfig(4, 4)), 0.499999999998225, 1e-10),
        ("nested_acos(0, 4)", nested_acos(0.0, 4), 1.570165578477370, 1e-10),
        ("nested_acos(0.5, 4)", nested_acos(0.5, 4), 1.047010650296843, 1e-10),
        ("nested_acos(0, 10)", nested_acos(0.0, 10), 1.570796172805538, 1e-10),
        ("nested_acos(0.5, 10)", nested_acos(0.5, 10), 1.047197505529385, 1e-10),
        ("nested_acos(2, 10)", nested_acos(2.0, 10),
         ACOS_2_D10, 1e-10),
        ("nested_acos(2+3i, 10)", nested_acos(2 + 3j, 10),
         ACOS_2_3I_D10, 1e-10),
        ("nested_acosh(2, 10)", nested_acosh(2.0, 10),
         1.31695798760619, 1e-9),
        ("nested_acosh(-2+3i, 10)", nested_acosh(-2 + 3j, 10),
         ACOSH_M2_3I_D10, 1e-9),
        ("nested_log(2, 10)", nested_log(2.0, 10), 0.693147193652913, 1e-9),
        ("nested_log(-1, 10)", nested_log(-1.0, 10),
         3.14159142150464j, 1e-9),
        ("nested_log(1e100, 10)", nested_log(1e100, 10),
         230.743921174299, 1e-9),
    ]
    failures = []
    for label, value, pin, tol in checks:
        r = _rel(value, pin)
        if not r <= tol:
            failures.append(f"{label}: got {value!r}, pinned {pin!r}, "
                            f"rel dev {r:.3e} > {tol:g}")
    _assert_clean(failures)


SEQUENCES = [
    ("cos chain, pi/3, depth 4, order 2",
     lambda: nested_cos_sequence(math.pi / 3, EvalConfig(4, 2)),
     [0.997858158767125, 0.991441810036233, 0.965913725375842,
      0.865978649738875, 0.499838043607131]),
    ("cos chain, pi/3, depth 10, order 2",
     lambda: nested_cos_sequence(math.pi / 3, EvalConfig(10, 2)),
     [0.999999477089543, 0.999997908358718, 0.999991633443621,
      0.999966533914483, 0.999866137897891, 0.999464587429687,
      0.997858923051989, 0.991444860628951, 0.965925823336425,
      0.866025392376301, 0.499999960481051]),
    ("cos chain, pi/3, depth 4, order 4",
     lambda: nested_cos_sequence(math.pi / 3, EvalConfig(4, 4)),
     [0.997858923238595, 0.991444861373777, 0.965925826288936,
      0.866025403783926, 0.499999999998225]),
    ("acos tower, 0, depth 4",
     lambda: nested_acos_sequence(0.0, 4),
     [0.707106781186548, 0.923879532511287, 0.980785280403230,
      0.995184726672197, 1.570165578477370]),
    ("acos tower, 0.5, depth 4",
     lambda: nested_acos_sequence(0.5, 4),
     [0.866025403784439, 0.965925826289068, 0.991444861373810,
      0.997858923238603, 1.047010650296843]),
]


def test_criterion_02_intermediate_sequences():
    failures = []
    for label, build, pins in SEQUENCES:
        seq = build()
        if len(seq) != len(pins):
            failures.append(f"{label}: {len(seq)} entries, expected {len(pins)}")
            continue
        for i, (got, pin) in enumerate(zip(seq, pins)):
            r = _rel(got, pin)
            if not r <= 1e-12:
                failures.append(f"{label}: entry {i} rel dev {r:.3e} > 1e-12")
    _assert_clean(failures)


TABLE1_PINS = [
    1.570796172805538, 4.712384822113464, 7.853962382754363,
    10.995521462263701, 14.137054668250807, 17.278554608371589,
    20.420013890390901, 23.561425122147117,
]


def test_criterion_03_table1_branches():
    failures = []
    for k, pin in enumerate(TABLE1_PINS):
        value = nested_acos_branch(0.0, k, 10)
        r = _rel(value, pin)
        if not r <= 1e-10:
            failures.append(f"branch {k}: value rel dev {r:.3e} > 1e-10")
        # The depth-10 value is 2**11*sin(theta/2**11), so the gap to its
        # limit theta is the cubic truncation term theta**3/(24*4**10) up
        # to a fifth-order term of at most 7e-6 relative.
        theta = (2 * k + 1) * math.pi / 2
        cubic = theta ** 3 / (24 * 4 ** 10)
        gap = theta - value
        if not abs(gap - cubic) <= 1e-3 * cubic:
            failures.append(f"branch {k}: gap to (2k+1)*pi/2 is {gap:.3e}, "
                            f"not within 1e-3 relative of the cubic "
                            f"truncation term {cubic:.3e}")
    _assert_clean(failures)


# Branches of acos(+-1) at depth 25, divided by pi: the nested formula
# evaluated to 60 digits (mpmath) and rounded to double.  They sit within
# 5e-14 relative of the integers the branches converge to;
# test_pins_are_same_depth_formula_values recomputes them.
TABLE2_PLUS = [
    0.0, 1.9999999999999971, 1.9999999999999971, 3.9999999999999765,
    3.9999999999999765, 5.999999999999921, 5.999999999999921,
    7.999999999999813, 7.999999999999813, 9.999999999999634,
    9.999999999999634,
]
TABLE2_MINUS = [
    0.9999999999999997, 0.9999999999999997, 2.9999999999999902,
    2.9999999999999902, 4.999999999999955, 4.999999999999955,
    6.999999999999875, 6.999999999999875, 8.999999999999734,
    8.999999999999734, 10.999999999999513,
]


def test_criterion_04_table2_at_depth_25():
    failures = []
    rows = reproduce_table2(25)
    for row, pp, pm in zip(rows, TABLE2_PLUS, TABLE2_MINUS):
        dev_p = abs(row.at_plus_one - pp) if pp == 0.0 else _rel(row.at_plus_one, pp)
        if not dev_p <= 1e-9:
            failures.append(f"k={row.k} at +1: dev {dev_p:.3e} > 1e-9 "
                            f"(got {row.at_plus_one!r})")
        dev_m = _rel(row.at_minus_one, pm)
        if not dev_m <= 1e-9:
            failures.append(f"k={row.k} at -1: dev {dev_m:.3e} > 1e-9 "
                            f"(got {row.at_minus_one!r})")
    for j in range(1, 6):
        a = nested_acos_branch(1.0, 2 * j - 1, 25)
        b = nested_acos_branch(1.0, 2 * j, 25)
        if a != b:
            failures.append(f"branches {2 * j - 1} and {2 * j} at +1 differ")
    for j in range(0, 5):
        a = nested_acos_branch(-1.0, 2 * j, 25)
        b = nested_acos_branch(-1.0, 2 * j + 1, 25)
        if a != b:
            failures.append(f"branches {2 * j} and {2 * j + 1} at -1 differ")
    _assert_clean(failures)


# Branch 100 of acos(0) at depth 25, extracted: the nested formula's value
# at that depth; test_pins_are_same_depth_formula_values recomputes it.
CRIT5_K100_D25 = 99.99999999962924


def test_criterion_05_branch_extraction():
    checks = [
        ("k=100, depth 25",
         extract_branch(nested_acos_branch(0.0, 100, 25)), CRIT5_K100_D25),
        ("k=10^6, depth 25",
         extract_branch(nested_acos_branch(0.0, 10 ** 6, 25)),
         999634.790737135),
        ("k=10^6, depth 30",
         extract_branch(nested_acos_branch(0.0, 10 ** 6, 30)),
         999999.643311845),
        ("complex argument, k=10^6, depth 30",
         nested_acos_branch(2 + 3j, 10 ** 6, 30).real / math.pi,
         999999.961666679),
    ]
    failures = []
    for label, value, pin in checks:
        r = _rel(value, pin)
        if not r <= 1e-9:
            failures.append(f"{label}: got {value!r}, rel dev {r:.3e} > 1e-9")
    _assert_clean(failures)


def test_criterion_06_gray_sequences():
    failures = []
    if tuple(reversed(gray_signs(100, 25))) != \
            tuple([1] * 18 + [-1, 1, -1, 1, -1, -1, 1]):
        failures.append("sign sequence for branch 100 at width 25 is wrong")
    if tuple(reversed(gray_signs(10 ** 6, 25))) != \
            (1, 1, 1, 1, 1, -1, 1, 1, 1, -1, -1, -1, 1,
             1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1):
        failures.append("sign sequence for branch 10^6 at width 25 is wrong")
    bad = [k for k in range(2 ** 14) if gray_adjacent_distance(k, 16) != 1]
    if bad:
        failures.append(f"adjacency at width 16: {len(bad)} branch indices "
                        f"differ in more than one slot (first: {bad[0]})")
    _assert_clean(failures)


def test_criterion_07_exact_expansion():
    failures = []
    if expand_nested_cos(1).coeffs != (
            Fraction(1), Fraction(-1, 2), Fraction(1, 32)):
        failures.append("depth-1 coefficients wrong")
    if expand_nested_cos(2).coeffs != (
            Fraction(1), Fraction(-1, 2), Fraction(5, 128),
            Fraction(-1, 1024), Fraction(1, 131072)):
        failures.append("depth-2 coefficients wrong")
    p3 = expand_nested_cos(3)
    if (p3.coefficient(2), p3.coefficient(3), p3.coefficient(4)) != (
            Fraction(21, 512), Fraction(-21, 16384), Fraction(165, 8388608)):
        failures.append("depth-3 low-order coefficients wrong")
    for n in range(1, 9):
        if len(expand_nested_cos(n)) != 2 ** n + 1:
            failures.append(f"depth-{n} coefficient count is not 2**n + 1")
    _assert_clean(failures)


def _rate_window_failures():
    failures = []
    for x in (math.pi / 3, 1.0):
        oracle = math.cos(x)
        for order, lo, hi in ((2, 3.0, 5.0), (4, 48.0, 80.0)):
            errs = {n: abs(nested_cos(x, EvalConfig(n, order)) - oracle)
                    for n in range(3, 12)}
            for n in range(3, 11):
                if order == 4 and errs[n] <= 100 * EPS:
                    continue  # below the stated noise floor
                if errs[n + 1] == 0.0:
                    continue
                ratio = errs[n] / errs[n + 1]
                if not lo <= ratio <= hi:
                    failures.append(
                        f"x={x:.6g}, seed order {order}: e({n})/e({n + 1}) = "
                        f"{ratio:.2f} outside [{lo:g}, {hi:g}] "
                        f"(e({n}) = {errs[n]:.2e})")
    return failures


def test_criterion_08_convergence_rate_windows():
    _assert_clean(_rate_window_failures())


def _core_invariant_failures():
    failures = []
    grid = [0.1 + 0.1 * i for i in range(30)] + [math.pi / 3, 2.5]
    if not all(nested_cos(-x, DEFAULT_CONFIG) == nested_cos(x, DEFAULT_CONFIG)
               for x in grid):
        failures.append("parity: nested_cos is not bitwise even on real input")
    if not all(nested_cos(-z, DEFAULT_CONFIG) == nested_cos(z, DEFAULT_CONFIG)
               for z in (1 + 2j, -0.3 + 0.7j, 2 - 3j)):
        failures.append("parity: nested_cos is not bitwise even on complex input")
    for cfg in (EvalConfig(1, 1), EvalConfig(10, 2), EvalConfig(30, 4)):
        if any(v != 1.0 for v in nested_cos_sequence(0.0, cfg)):
            failures.append(f"fixed point: iterates at x=0 leave 1.0 "
                            f"(depth {cfg.depth}, order {cfg.seed_order})")
    failures += _rate_window_failures()
    worst = max(abs(math.cos(nested_acos(-0.9 + 0.05 * i, 10))
                    - (-0.9 + 0.05 * i)) for i in range(37))
    if worst > 1e-6:
        failures.append(f"round trip cos(acos(y)): worst {worst:.3e} > 1e-6")
    worst = max(abs(nested_acos(nested_cos(0.1 + 0.1 * i, EvalConfig(10, 4)),
                                10) - (0.1 + 0.1 * i)) for i in range(30))
    if worst > 1e-5:
        failures.append(f"round trip acos(cos(x)): worst {worst:.3e} > 1e-5")
    worst = max(abs(half_angle_step(double_angle_step(0.05 * i)) - 0.05 * i)
                for i in range(21))
    if worst > 4 * EPS:
        failures.append(f"step inverse: worst {worst:.3e} beyond 4 eps")
    for i in range(61):
        x = 0.05 * i
        v = nested_cos(complex(0.0, x), DEFAULT_CONFIG)
        if abs(nested_cosh(x, DEFAULT_CONFIG) - v.real) > 4 * EPS \
                or abs(v.imag) > 4 * EPS:
            failures.append(f"hyperbolic identity: componentwise gap beyond "
                            f"4 eps at x = {x:.2f}")
            break
    bad = []
    for x in (1e-3, 7e-4, 5e-4, 2e-4, 1e-4):
        diff = abs(nested_cos(x, DEFAULT_CONFIG) - (1.0 - x * x / 2.0))
        if diff > x ** 4:
            bad.append(f"x={x:g}: {diff:.2e} > {x ** 4:.2e}")
    if bad:
        failures.append(
            "maclaurin dominance: chain rounding noise (about 1e-11 at "
            "depth 10) exceeds the x**4 tail bound for small x: "
            + "; ".join(bad))
    return failures


def _branch_invariant_failures():
    failures = []
    if any(gray_adjacent_distance(k, 16) != 1 for k in range(2 ** 15 - 1)):
        failures.append("gray adjacency: a pair differs in more than one slot")
    ygrid = (-0.9, -0.5, 0.0, 0.5, 0.9)
    rt_bad, oa_bad = [], []
    for k in range(32):
        for y in ygrid:
            v = nested_acos_branch(y, k, 25)
            dev = abs(math.cos(v) - y)
            if dev > 1e-3:
                rt_bad.append((dev, y, k))
            gap = abs(v - branch_oracle_acos(y, k))
            if gap > 1e-3 * (1 + k):
                oa_bad.append((gap, y, k))
    if rt_bad:
        dev, y, k = max(rt_bad)
        failures.append(
            f"branch round trip at depth 25: {len(rt_bad)}/160 grid points "
            f"exceed 1e-3 (worst dev {dev:.3e} at y={y}, k={k}); the 2**25 "
            "prefactor amplifies iterate quantization for small k")
    if oa_bad:
        gap, y, k = max(oa_bad)
        failures.append(
            f"branch oracle agreement at depth 25: {len(oa_bad)}/160 grid "
            f"points exceed 1e-3*(1+k) (worst gap {gap:.3e} at y={y}, k={k})")
    ints = [(k, extract_branch(nested_acos_branch(0.0, k, 25)))
            for k in (0, 10, 100, 1000, 10000)]
    if any(round(e) != k for k, e in ints):
        failures.append(f"extraction integrality at depth 25 broken: {ints}")
    if not all(nested_acos_branch(y, 0, 10) == nested_acos(y, 10)
               for y in (-0.7, 0.2, 0.9, 2.0, 2 + 1j)):
        failures.append("principal consistency: branch 0 differs from "
                        "nested_acos")
    for j in range(1, 6):
        if nested_acos_branch(1.0, 2 * j - 1, 25) != \
                nested_acos_branch(1.0, 2 * j, 25):
            failures.append(f"double branch at +1: pair ({2 * j - 1}, {2 * j}) "
                            "not exactly equal")
    for j in range(0, 5):
        if nested_acos_branch(-1.0, 2 * j, 25) != \
                nested_acos_branch(-1.0, 2 * j + 1, 25):
            failures.append(f"double branch at -1: pair ({2 * j}, {2 * j + 1}) "
                            "not exactly equal")
    if not all(nested_acos_branch(0.3, -k - 1, 10) ==
               -nested_acos_branch(0.3, k, 10) for k in range(5)):
        failures.append("negative branch symmetry broken")
    return failures


def _derived_invariant_failures():
    failures = []
    grid = [0.1 + 1.3 * i / 26 for i in range(27)]
    worst = max(abs(nested_sin(x, DEFAULT_CONFIG) ** 2
                    + nested_cos(x, DEFAULT_CONFIG) ** 2 - 1.0) for x in grid)
    if worst > 8 * EPS:
        failures.append(f"pythagorean residual: worst {worst:.3e} beyond 8 eps")
    worst = max(abs(nested_tan(x, DEFAULT_CONFIG)
                    - nested_sin(x, DEFAULT_CONFIG)
                    / nested_cos(x, DEFAULT_CONFIG)) for x in grid)
    if worst > 1e-10:
        failures.append(f"quotient consistency: worst {worst:.3e} > 1e-10")
    cfg = EvalConfig(12, 4)
    worst = max(abs(nested_exp(nested_log(y, 12), cfg) - y) / y
                for y in (0.5, 2.0, 10.0, 1000.0))
    if worst > 1e-4:
        failures.append(f"log/exp round trip: worst rel {worst:.3e} > 1e-4")
    for y in (2.0, 4.0, 8.0, 0.5, 0.25, 3.0, 10.0, 1.5, 7.0):
        r = 1.0 / y
        if nested_acosh((y + 1.0 / y) / 2.0, 10) != \
                nested_acosh((r + 1.0 / r) / 2.0, 10):
            failures.append(f"reciprocal symmetry: acosh means differ for y={y}")
        if nested_log(r, 10) != -nested_log(y, 10):
            failures.append(f"reciprocal symmetry: log(1/y) != -log(y) for y={y}")

    def lin(a, b, n=32):
        return [a + (b - a) * i / (n - 1) for i in range(n)]

    cases = [
        ("sin", lambda x, d: nested_sin(x, EvalConfig(d, 2)), math.sin,
         lin(0.1, 1.4)),
        ("tan", lambda x, d: nested_tan(x, EvalConfig(d, 2)), math.tan,
         lin(0.1, 1.4)),
        ("sinh", lambda x, d: nested_sinh(x, EvalConfig(d, 2)), math.sinh,
         lin(-3.0, 3.0)),
        ("tanh", lambda x, d: nested_tanh(x, EvalConfig(d, 2)), math.tanh,
         lin(-3.0, 3.0)),
        ("exp", lambda x, d: nested_exp(x, EvalConfig(d, 2)), math.exp,
         lin(-2.0, 2.0)),
        ("asin", lambda x, d: nested_asin(x, d), math.asin, lin(0.0, 0.95)),
        ("atan", lambda x, d: nested_atan(x, d), math.atan, lin(-3.0, 3.0)),
        ("asinh", lambda x, d: nested_asinh(x, d), math.asinh,
         lin(-3.0, 3.0)),
        ("atanh", lambda x, d: nested_atanh(x, d), math.atanh,
         lin(-0.95, 0.95)),
        ("log", lambda x, d: nested_log(x, d), math.log, lin(0.1, 10.0)),
        ("exp_limit", lambda x, d: exp_limit(x, 2 ** d), math.exp,
         lin(-2.0, 2.0)),
        ("log_limit", lambda x, d: log_limit(x, 2 ** d), math.log,
         lin(0.1, 10.0)),
    ]
    for name, fn, oracle, g in cases:
        e6, e8, e10 = (max(abs(fn(x, d) - oracle(x)) for x in g)
                       for d in (6, 8, 10))
        if not e6 > e8 > e10:
            failures.append(f"oracle convergence for {name}: "
                            f"{e6:.2e}, {e8:.2e}, {e10:.2e} not decreasing")
    return failures


def _expander_invariant_failures():
    failures = []
    for n in range(1, 9):
        if len(expand_nested_cos(n)) != 2 ** n + 1:
            failures.append(f"coefficient count wrong at depth {n}")
    target = Fraction(1, 24)
    gaps = [abs(expand_nested_cos(n).coefficient(2) - target)
            for n in range(1, 7)]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        failures.append("quartic coefficient convergence not monotone")
    for n in range(1, 7):
        gap = abs(expand_nested_cos(n).evaluate(math.pi / 3)
                  - nested_cos(math.pi / 3, EvalConfig(n, 2)))
        if gap > 1e-12:
            failures.append(f"evaluation consistency at depth {n}: {gap:.3e}")
        for j, c in enumerate(expand_nested_cos(n).coeffs):
            if c == 0 or (c > 0) != (j % 2 == 0):
                failures.append(f"circular sign pattern broken at depth {n}, "
                                f"coefficient {j}")
                break
        if not all(c > 0 for c in expand_nested_cos(n, "hyperbolic").coeffs):
            failures.append(f"hyperbolic positivity broken at depth {n}")
    return failures


def _verify_invariant_failures():
    failures = []
    worst = max(abs(ref_acos(math.cos(0.05 + (math.pi - 0.1) * i / 30))
                    - (0.05 + (math.pi - 0.1) * i / 30)) for i in range(31))
    if worst > 1e-12:
        failures.append(f"oracle self-consistency: worst {worst:.3e} > 1e-12")
    for name, z, kw in (("cos", 1.2, {}), ("acos", 0.3, {"branch": 2}),
                        ("log", 3.0, {"depth": 8})):
        r = eval_report(name, z, **kw)
        if r.abs_error != abs(r.value - r.oracle_value) or \
                r.rel_error != r.abs_error / max(abs(r.oracle_value), 1.0):
            failures.append(f"report arithmetic violated for {name}")
    if _run_cli(["table1"]) != _run_cli(["table1"]) or \
            _run_cli(["sweep", "--kmax", "5"]) != \
            _run_cli(["sweep", "--kmax", "5"]):
        failures.append("identical CLI invocations differ")
    code, out = _run_cli(["converge", "cos", "1", "--depths", "4..8"])
    lines = out.splitlines()
    if code != 0 or lines[0] != "depth,value,abs_error,error_ratio" \
            or len(lines) != 6 or any(line.count(",") != 3 for line in lines):
        failures.append("convergence CSV shape is wrong")
    code, out = _run_cli(["sweep", "--kmax", "5"])
    lines = out.splitlines()
    if code != 0 or lines[0] != "k,extracted,abs_dev" or len(lines) != 7 \
            or any(line.count(",") != 2 for line in lines):
        failures.append("sweep CSV shape is wrong")
    return failures


def test_criterion_09_module_invariants():
    failures = (_core_invariant_failures()
                + _branch_invariant_failures()
                + _derived_invariant_failures()
                + _expander_invariant_failures()
                + _verify_invariant_failures())
    _assert_clean(failures)


def test_criterion_10_accuracy_statements():
    failures = []
    gap = abs(nested_acos(0.0, 10) - math.pi / 2)
    if not gap < 5e-7:
        failures.append(f"acos(0) at depth 10: gap {gap:.3e} not < 5e-7")
    gap = abs(nested_log(2.0, 10) - math.log(2.0))
    if not gap < 5e-7:
        failures.append(f"log(2) at depth 10: gap {gap:.3e} not < 5e-7")
    gap = abs(nested_log(-1.0, 10) - math.pi * 1j)
    if not gap < 5e-6:
        failures.append(f"log(-1) at depth 10: gap {gap:.3e} not < 5e-6")
    _assert_clean(failures)


def test_pins_are_same_depth_formula_values():
    # Not a criterion: it checks that the pins of criteria 1 and 4, the
    # k = 100 pin of criterion 5, and the last three chain entries of
    # criterion 2, are the values of the nested formula at the depth each
    # criterion evaluates.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        cases = [
            ("acos(2) at depth 10", ACOS_2_D10, mp_tower(2, 0, 10, False)),
            ("acos(2+3i) at depth 10", ACOS_2_3I_D10,
             mp_tower(mpmath.mpc(2, 3), 0, 10, False)),
            ("acosh(-2+3i) at depth 10", ACOSH_M2_3I_D10,
             mp_tower(mpmath.mpc(-2, 3), 0, 10, True)),
        ]
        cases.append(("branch 100 of acos(0) at depth 25, extracted",
                      CRIT5_K100_D25,
                      mp_tower(0, 100, 25, False) / mpmath.pi - mpmath.mpf(0.5)))
        for k in range(11):
            cases.append((f"table 2, k={k} at +1", TABLE2_PLUS[k],
                          mp_tower(1, k, 25, False) / mpmath.pi))
            cases.append((f"table 2, k={k} at -1", TABLE2_MINUS[k],
                          mp_tower(-1, k, 25, False) / mpmath.pi))
        label, _, pins = SEQUENCES[1]
        chain = mp_chain(math.pi / 3, 10, 2)
        for i in (8, 9, 10):
            cases.append((f"{label}, entry {i}", pins[i], chain[i]))
        failures = []
        for label, pin, exact in cases:
            dev = abs(pin - exact) if exact == 0 else abs(pin - exact) / abs(exact)
            if not dev <= 1e-15:
                failures.append(f"{label}: pinned {pin!r}, formula gives "
                                f"{mpmath.nstr(exact, 20)}, rel dev "
                                f"{mpmath.nstr(dev, 3)} > 1e-15")
    _assert_clean(failures)


def test_acosh_branch_oracle_is_the_formulas_branch():
    # Not a criterion: the acosh oracle must name the branch the signed
    # tower converges to, for every k and on and off the real axis.  At
    # depth 25 the formula is within 1e-15 of its limit here, so a wrong
    # sheet (an error of order 1) cannot hide under the tolerance.
    mpmath = pytest.importorskip("mpmath")
    zs = [2.0, -3.0, 5.0, -1.5, 1.0000001, 2 + 3j, 2 - 3j, 0.5 + 0.2j,
          -0.5 - 2j, 1.5j, 3 - 0.1j, 0.5, -0.9]
    failures = []
    with mpmath.workdps(40):
        for z in zs:
            for k in range(-4, 9):
                oracle = eval_report("acosh", z, branch=k).oracle_value
                exact = complex(mp_tower(z, k, 25, True))
                dev = abs(oracle - exact) / max(abs(exact), 1.0)
                if not dev <= 1e-12:
                    failures.append(f"acosh({z}) branch {k}: oracle {oracle!r}, "
                                    f"formula {exact!r}, rel dev {dev:.3e}")
    _assert_clean(failures)
