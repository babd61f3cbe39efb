"""A fixed grid of library calls, one line per outcome, for diffing two trees.

    PYTHONPATH=src python tests/diffgrid.py [--dump]

Each line names a call and gives the repr of what it returned, or the type
and message of what it raised.  With no flag the script prints the sha256
of the lines (each ending in a newline) and their count; with --dump it
prints the lines themselves.  A change that should move no value runs it on
the parent tree and on the change and compares the digests; a change that
moves values diffs the two dumps.

The sections:
  eval      eval_report for all 17 functions at 12 arguments, depths 1..30
            and seed orders 1..4, with converge for each function and
            argument over depths 1..30;
  tables    both tables and a sweep across all branches (257 to 512 rows)
            at depths 10, 20 and 30;
  calls     every public function called directly, bad depths, seed
            orders, branch indices, widths and limit indices included,
            and the sequences and log_limit at the towers' odd inputs;
  expand    str of every coefficient at depths 1..9 in both variants,
            evaluate at 11 points (signed zero, inf, nan, 1e200 and complex
            ones) at depths 1..10, maclaurin_error_profile at depths 1..12
            for max_j 1..12 (and 2**d - 1, 2**d and 2**d + 3 up to depth 8),
            and bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
from collections.abc import Iterator
from fractions import Fraction

import nestrad
from nestrad import (
    FUNCTIONS,
    EvalConfig,
    RationalPoly,
    expand_nested_cos,
    maclaurin_error_profile,
)

ARGS = [0.0, 1e-8, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, 10.0,
        0.3 - 0.1j, 2 + 3j, -1e6 + 1j]
DEPTHS = range(1, 31)
SEED_ORDERS = range(1, 5)
EDGE_DEPTHS = [0, -1, 2.5, True, "3", 1023, 1024]  # at and past the bounds
BAD_INTS = [0, -1, 2.5, True, None]
# Signed zero, nan, overflow of u = x*x and complex u with Re(u) < 0 too.
EVAL_XS = [0.0, -0.0, 0.5, -1.0, 3.0, 100.0, 1e200, float("inf"), float("nan"),
           1 + 2j, -0.5 - 3j]
# Ints, a bool, a Fraction, zero imaginary parts of both signs, inf, nan and
# two non-numbers: inputs off the kernels' float paths.
ODD_ARGS = [0, 3, -2, True, Fraction(1, 3), complex(0.5, 0.0), complex(0.5, -0.0),
            complex(-2.0, -0.0), float("inf"), float("-inf"), float("nan"),
            "0.5", None]


def outcome(fn, *args, **kwargs) -> str:
    """One line: the call, then -> and the repr of its value, or !! and the
    type and message of what it raised.  An iterator is listed first."""
    call = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
    try:
        value = fn(*args, **kwargs)
        if isinstance(value, Iterator):
            value = list(value)
    except Exception as exc:  # every raise is an outcome of the grid
        return f"{fn.__name__}({call}) !! {type(exc).__name__}: {exc}"
    return f"{fn.__name__}({call}) -> {value!r}"


def _eval() -> Iterator[str]:
    for name in FUNCTIONS:
        for z in ARGS:
            for depth in DEPTHS:
                for order in SEED_ORDERS:
                    yield outcome(nestrad.eval_report, name, z, depth=depth,
                                  seed_order=order)
            yield outcome(nestrad.converge, name, z, list(DEPTHS))


def _tables() -> Iterator[str]:
    for depth in (10, 20, 30):
        yield outcome(nestrad.reproduce_table1, depth)
        yield outcome(nestrad.reproduce_table2, depth)
        top = 2 ** (depth - 1) - 1
        yield outcome(nestrad.sweep_branches, top, max(1, top // 256), depth)


def _calls() -> Iterator[str]:
    scalar = [nestrad.principal_sqrt, nestrad.double_angle_step,
              nestrad.half_angle_step, nestrad.acos_outer, nestrad.acosh_outer,
              nestrad.ref_acos, nestrad.ref_acosh, nestrad.extract_branch]
    configured = [nestrad.cos_seed, nestrad.cosh_seed, nestrad.nested_cos,
                  nestrad.nested_cosh, nestrad.nested_cos_sequence,
                  nestrad.nested_cosh_sequence, nestrad.nested_sin,
                  nestrad.nested_tan, nestrad.nested_sinh, nestrad.nested_tanh,
                  nestrad.nested_exp]
    inverse = [nestrad.nested_acos, nestrad.nested_acosh,
               nestrad.nested_acos_sequence, nestrad.nested_acosh_sequence,
               nestrad.nested_asin, nestrad.nested_atan, nestrad.nested_asinh,
               nestrad.nested_atanh, nestrad.nested_log]
    branched = [nestrad.nested_acos_branch, nestrad.nested_acosh_branch]
    limits = [nestrad.exp_limit, nestrad.log_limit]
    configs = [EvalConfig(d, o) for d in (1, 10, 30, 100) for o in SEED_ORDERS]
    for depth in (1, 10, 30, *EDGE_DEPTHS):
        yield outcome(nestrad.check_depth, depth)
        yield outcome(EvalConfig, depth)
    for order in (*SEED_ORDERS, *BAD_INTS, 5):
        yield outcome(EvalConfig, 10, order)
    yield outcome(nestrad.make_report, 0.5, 1.0, 1.0 + 1e-9, 10, 2)
    yield outcome(nestrad.make_report, 2 + 3j, 1j, 0.0, 30, 4, branch=-3)
    for z in ARGS:
        for fn in scalar:
            yield outcome(fn, z)
        for fn in configured:
            yield outcome(fn, z)
            for cfg in configs:
                yield outcome(fn, z, cfg)
        for fn in inverse:
            yield outcome(fn, z)
            for depth in (1, 10, 25, 30, *EDGE_DEPTHS):
                yield outcome(fn, z, depth)
        for fn in branched:
            for k in (0, 1, 2, 3, 7, -1, -4, 2 ** 28, -(2 ** 29), 2 ** 29,
                      *BAD_INTS[2:]):
                for depth in (10, 25, 30, 0):
                    yield outcome(fn, z, k, depth)
        for fn in limits:
            for n in (1, 2, 3, 1024, 2 ** 30, 2 ** 1023, *BAD_INTS):
                yield outcome(fn, z, n)
        for k in (0, 1, 2, 5, -1, 2.5):
            yield outcome(nestrad.branch_oracle_acos, z, k)
    for z in ODD_ARGS:
        for fn in (nestrad.nested_cos_sequence, nestrad.nested_cosh_sequence):
            for cfg in configs:
                yield outcome(fn, z, cfg)
        for fn in (nestrad.nested_acos_sequence, nestrad.nested_acosh_sequence):
            for depth in (1, 10, 25, 30):
                yield outcome(fn, z, depth)
        for n in (1, 2, 1024, 2 ** 30):
            yield outcome(nestrad.log_limit, z, n)
    for width in (1, 4, 10, 1023, *BAD_INTS, 1024):
        for k in (0, 1, 2, 5, 9, 255, 256, *BAD_INTS[1:]):
            yield outcome(nestrad.gray_signs, k, width)
            yield outcome(nestrad.gray_adjacent_distance, k, width)
    for name in (*FUNCTIONS, "sec"):
        yield outcome(nestrad.eval_report, name, 0.5, branch=1)
        yield outcome(nestrad.eval_report, name, 0.5, depth=0)
        yield outcome(nestrad.eval_report, name, 0.5, seed_order=5)
    for depths in ([], [3, 2], [0, 1], [1, 1024], [10, 2.5]):
        yield outcome(nestrad.converge, "cos", 0.5, depths)
    yield outcome(nestrad.converge, "cos", 0.5, [10], 5)
    for k_max, step, depth in ((0, 1, 10), (511, 3, 10), (512, 1, 10),
                               (10, 0, 10), (10, 2.5, 10), (2.5, 1, 10),
                               (1, 1, 1), (1, 1, 2), (3, 1, 0)):
        yield outcome(nestrad.sweep_branches, k_max, step, depth)
    for depth in (9, 0, 2.5):
        yield outcome(nestrad.reproduce_table1, depth)
        yield outcome(nestrad.reproduce_table2, depth)


def _expand() -> Iterator[str]:
    for variant in ("circular", "hyperbolic"):
        for depth in range(1, 11):
            poly = expand_nested_cos(depth, variant)
            call = f"expand_nested_cos({depth}, {variant!r})"
            if depth <= 9:  # depth 10's coefficients pass the int-to-str limit
                yield f"len({call}) -> {len(poly)}"
                for j, c in enumerate(poly.coeffs):
                    yield f"str({call}.coeffs[{j}]) -> {c}"
                for j in (len(poly), -1, 2.5, True):
                    yield f"{call}.{outcome(poly.coefficient, j)}"
            for x in EVAL_XS:
                yield f"{call}.{outcome(poly.evaluate, x)}"
    for depth in range(1, 13):
        n = 2 ** depth
        rows = [*range(1, 13), *((n - 1, n, n + 3) if depth <= 8 else ())]
        for max_j in sorted(set(rows)):
            yield outcome(maclaurin_error_profile, depth, max_j)
    for depth in (*EDGE_DEPTHS, 13):
        yield outcome(expand_nested_cos, depth)
        yield outcome(maclaurin_error_profile, depth, 3)
    for variant in ("parabolic", ["circular"], None):
        yield outcome(expand_nested_cos, 2, variant)
    for max_j in BAD_INTS:
        yield outcome(maclaurin_error_profile, 2, max_j)
    for coeffs in ((), (1, 0), (1, 2, 0), [1, 2]):
        yield outcome(RationalPoly, coeffs)


SECTIONS = {"eval": _eval, "tables": _tables, "calls": _calls,
            "expand": _expand}


def lines() -> Iterator[str]:
    """Every line of the grid, section by section."""
    for section in SECTIONS.values():
        yield from section()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", action="store_true",
                        help="print the lines instead of their digest")
    dump = parser.parse_args(argv).dump
    digest, count = hashlib.sha256(), 0
    for line in lines():
        if dump:
            print(line)
        digest.update(f"{line}\n".encode())
        count += 1
    if not dump:
        print(f"sha256 {digest.hexdigest()}  {count} lines")


if __name__ == "__main__":
    main()
