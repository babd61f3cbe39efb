"""Command-line interface for the nested evaluators and their diagnostics.

Output is deterministic: 15 significant digits (repr for the largest
floats), complex values as a+bi / a-bi with no spaces, zeros normalized
to "0".  Exit codes: 0 success, 1 stdout closed early (as by | head), 2
argument or validation error, 3 numeric error (overflow, pole, or no
finite eval error).

A call in canonical form (the command first, each option spelled out
once with its value next) is read against plans built at import from one
table of every command's arguments, with no parser built and argparse not
loaded.  Help, errors and every other form go to the full argparse tree,
built afresh from that table, so every message reads as it did.  Each
command but sweep prints once; a sweep prints each chunk of 4096 rows as
it computes it.  Importing the CLI loads core and verify, not expand:
expand loads it, and its exact context, on its first call.
"""

from __future__ import annotations

import cmath
import os
import re
import sys
from functools import cache
from itertools import chain, islice
from types import SimpleNamespace

from .core import DEPTH_MAX, Scalar, gray_signs
from .verify import (
    FUNCTIONS,
    converge,
    eval_report,
    reproduce_table1,
    reproduce_table2,
    sweep_branches,
)

__all__ = ["main", "parse_scalar", "fmt_scalar"]

_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL = re.compile(rf"[+-]?{_UNSIGNED}")
_IMAGINARY = re.compile(rf"[+-]?(?:{_UNSIGNED}[+-])?(?:{_UNSIGNED})?i")
_CHUNK_ROWS = 4096  # sweep rows per chunk, core._BATCH: one batch on one Gray tree


def parse_scalar(text: str) -> Scalar:
    """Parse 'a', 'ai', 'a+bi', 'a-bi' (decimal or scientific) to a scalar.

    A part too large for a float is an error; one that underflows is 0.
    """
    s = text.strip()
    # Every imaginary form is Python's complex notation once its "i" reads
    # "j", and complex() converts each part as float() does, signed zeros
    # included: "-i", "-0i" and "0-0i" keep their signs.  Only imaginary
    # text ends in "i", so real text skips that pattern.
    if s.endswith("i") and _IMAGINARY.fullmatch(s):
        return _finite(text, complex(s[:-1] + "j"))
    if _REAL.fullmatch(s):
        return _finite(text, float(s))
    raise ValueError(
        f"could not parse number {text!r}; expected forms like "
        "2, -0.5, 1e-3, 2i, -i, 2+3i")


def _finite(text: str, z: Scalar) -> Scalar:
    # The grammar admits only digits, so an infinite part is an overflow.
    if cmath.isinf(z):
        raise ValueError(f"number {text!r} is too large for a float")
    return z


def fmt_real(x: float) -> str:
    if x == 0.0:
        return "0"
    # 15 digits would round the largest floats past the float range.
    if -1.797693134862315e308 <= x <= 1.797693134862315e308:
        return f"{x:.15g}"
    return repr(x)


def fmt_scalar(v: Scalar) -> str:
    """15-significant-digit text; complex as a+bi/a-bi, zero parts dropped."""
    if isinstance(v, complex):
        if v.imag == 0.0:
            return fmt_real(v.real)
        imag = fmt_real(abs(v.imag)) + "i"
        if v.real == 0.0:
            return "-" + imag if v.imag < 0.0 else imag
        sign = "-" if v.imag < 0.0 else "+"
        return f"{fmt_real(v.real)}{sign}{imag}"
    return fmt_real(v)


def _parse_depths(text: str) -> list[int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise ValueError(f"could not parse depth range {text!r}; use forms like 4..10")
    lo, hi = int(m[1]), int(m[2] or m[1])
    if hi < lo:
        raise ValueError(f"empty depth range {text!r}")
    # converge rejects every depth past DEPTH_MAX; the range stops at the first.
    return list(range(lo, min(hi, max(lo, DEPTH_MAX + 1)) + 1))


def _cmd_eval(args: SimpleNamespace) -> None:
    z = parse_scalar(args.arg)
    r = eval_report(args.fn, z, depth=args.depth, seed_order=args.seed_order,
                    branch=args.branch)
    if not cmath.isfinite(r.abs_error):  # NaN and Infinity are not JSON
        raise OverflowError(f"value {fmt_scalar(r.value)} has no finite error")
    if args.as_json:
        import json
        print(json.dumps({
            "input": fmt_scalar(r.input),
            "value": fmt_scalar(r.value),
            "oracle": fmt_scalar(r.oracle_value),
            "abs_error": float(f"{r.abs_error:.15g}"),
            "rel_error": float(f"{r.rel_error:.15g}"),
            "depth": r.depth,
            "seed_order": r.seed_order,
            "branch": r.branch,
        }))
        return
    print(f"value {fmt_scalar(r.value)}\noracle {fmt_scalar(r.oracle_value)}\n"
          f"abs_error {fmt_real(r.abs_error)}\nrel_error {fmt_real(r.rel_error)}")


def _cmd_converge(args: SimpleNamespace) -> None:
    z = parse_scalar(args.arg)
    rows = converge(args.fn, z, _parse_depths(args.depths), args.seed_order)
    print("\n".join(["depth,value,abs_error,error_ratio"] + [
        f"{row.depth},{fmt_scalar(row.value)},{fmt_real(row.abs_error)},"
        f"{fmt_real(row.error_ratio)}" for row in rows]))


def _cmd_sweep(args: SimpleNamespace) -> None:
    rows = sweep_branches(args.kmax, args.step, args.depth)  # checks the arguments
    print("k,extracted,abs_dev")
    # Each chunk of rows is formatted at once.  "%.15g" is fmt_real here:
    # it differs only on -0.0 and next to the float maximum, which neither
    # column can hold, since abs() never returns -0.0, x - 0.5 is never
    # -0.0 under round-to-nearest, and both stay below 4.5e307: with the
    # top Gray bit clear a closing value is at most 2**DEPTH_MAX * sqrt(2),
    # so extracted < 4.1e307, and k < 2**(DEPTH_MAX - 1).
    while fields := tuple(chain.from_iterable(islice(rows, _CHUNK_ROWS))):
        print(("%d,%.15g,%.15g\n" * (len(fields) // 3)) % fields, end="")


def _cmd_table1(args: SimpleNamespace) -> None:
    print("\n".join([f"{'signs':<8}{'value':<20}limit"] + [
        f"{row.pattern:<8}{fmt_real(row.value):<20}{2 * row.k + 1 if row.k else ''}pi/2"
        for row in reproduce_table1(args.depth)]))


def _cmd_table2(args: SimpleNamespace) -> None:
    print("\n".join([f"{'k':<4}{'acos(1)/pi':<20}acos(-1)/pi"] + [
        f"{row.k:<4}{fmt_real(row.at_plus_one):<20}{fmt_real(row.at_minus_one)}"
        for row in reproduce_table2(args.depth)]))


@cache
def _exact():  # expand's imports and exact context, made on its first call
    from decimal import MAX_EMAX, MAX_PREC, Context, Inexact
    from .expand import expand_nested_cos
    return expand_nested_cos, Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


def _cmd_expand(args: SimpleNamespace) -> None:
    expand_nested_cos, exact = _exact()
    variant = "hyperbolic" if args.hyperbolic else "circular"
    coeffs = expand_nested_cos(args.depth, variant).coeffs
    # Denominators 2**t rise with j; as exact Decimals their text has no digit limit.
    lines, den, s = ["j,coefficient", "0,1"], 1, 0
    for j, c in enumerate(coeffs[1:], 1):
        t = c.denominator.bit_length() - 1
        den, s = exact.multiply(den, 1 << t - s), t
        lines.append(f"{j},{c.numerator}/{den!s}")
    print("\n".join(lines))


def _cmd_signs(args: SimpleNamespace) -> None:
    signs = gray_signs(args.branch, args.width)
    print("".join("+" if s > 0 else "-"
                  for s in (signs if args.inner_first else reversed(signs))))


# Each command's help, handler, positionals and options.  A positional is
# (dest, choices, help).  Where there are positionals, a minus before a
# digit, "." or "i" (-2+3i, -i, -1e-3) starts one, not an option: all are
# --long.  An option is flag: (dest, kind, default, help), where kind int
# or str takes the next token, bool is a flag, and default None requires it.
_NEGATIVE = re.compile(r"^-[\d.i]")
_FN = ("fn", sorted(FUNCTIONS), None)
_DEPTH = {"--depth": ("depth", int, 10, "recursion depth n (default 10)")}
_COMMANDS = {
    "eval": ("evaluate one function against its oracle", _cmd_eval,
             (_FN, ("arg", None, "argument: a, ai, a+bi, a-bi")),
             {**_DEPTH, "--seed-order": ("seed_order", int, 2,
                                         "series terms in the seed, 1..4 (default 2)"),
              "--branch": ("branch", int, 0, "branch index for acos/acosh (default 0)"),
              "--json": ("as_json", bool, False, "emit a single-line JSON report")}),
    "converge": ("error table over a depth range", _cmd_converge,
                 (_FN, ("arg", None, None)),
                 {"--depths": ("depths", str, None, "range A..B or single depth"),
                  "--seed-order": ("seed_order", int, 2, None)}),
    "sweep": ("branch sweep of the inverse cosine of 0", _cmd_sweep, (),
              {"--kmax": ("kmax", int, None, None), "--step": ("step", int, 1, None),
               **_DEPTH}),
    "table1": ("branches of the inverse cosine of 0", _cmd_table1, (), _DEPTH),
    "table2": ("branches at +-1 divided by pi", _cmd_table2, (), _DEPTH),
    "expand": ("exact rational Maclaurin coefficients", _cmd_expand, (),
               {"--depth": ("depth", int, None, None),
                "--hyperbolic": ("hyperbolic", bool, False, None)}),
    "signs": ("Gray-code sign pattern of a branch", _cmd_signs, (),
              {"--branch": ("branch", int, None, None),
               "--width": ("width", int, None, None),
               "--inner-first": ("inner_first", bool, False,
                                 "print innermost radical first (default outermost)")}),
}
# 640 digits at most: the least integer string limit Python can be set to.
_INT = re.compile(r"-?[0-9]{1,640}")
# Each command's scanner plan: namespace defaults with command and handler,
# required flags, positionals, options, and the match of an option (_NEGATIVE).
_PLANS = {name: ({**{dest: default for dest, _, default, _ in options.values()},
                  "command": name, "handler": handler},
                 {flag for flag, option in options.items() if option[2] is None},
                 positionals, options,
                 re.compile(r"-(?![\d.i])" if positionals else "-").match)
          for name, (_, handler, positionals, options) in _COMMANDS.items()}


def _scan(argv: list[str]) -> SimpleNamespace | None:
    # argparse's namespace for a valid call in canonical form, else None:
    # each option in full at most once with its value next, ints in ASCII
    # digits, a minus only on a scalar.  Help, errors and the rest are argparse's.
    if not argv or (plan := _PLANS.get(argv[0])) is None:
        return None
    defaults, required, positionals, options, option_like = plan
    args, seen, values, tokens = defaults.copy(), set(), [], iter(argv[1:])
    for token in tokens:
        if (option := options.get(token)) is None:
            values.append(token)
            continue
        dest, kind = option[0], option[1]
        if token in seen or kind is not bool and (value := next(tokens, None)) is None:
            return None
        seen.add(token)
        if kind is bool:
            args[dest] = True
        elif _INT.fullmatch(value) if kind is int else not option_like(value):
            args[dest] = kind(value)
        else:
            return None
    if len(values) != len(positionals) or not required <= seen:
        return None
    for (dest, choices, _), value in zip(positionals, values):
        if option_like(value) or choices and value not in choices:
            return None
        args[dest] = value
    return SimpleNamespace(**args)


def build_parser():
    """The full nestrad argparse parser: the root and every command's."""
    # The one place argparse loads: a canonical call needs no parser.
    import argparse

    class _Parser(argparse.ArgumentParser):
        # Newer argparse releases (3.13.13 among them) print the choices of
        # an invalid-choice error unquoted; this is the quoted wording of
        # earlier ones, so the error reads the same on every Python.
        def _check_value(self, action: argparse.Action, value: object) -> None:
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                raise argparse.ArgumentError(
                    action, f"invalid choice: {value!r} (choose from {choices})")

    parser = _Parser(
        prog="nestrad",
        description="Nested square-root and doubled-angle evaluation of "
                    "elementary functions, with oracle comparison.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, positionals, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        if positionals:
            # If argparse stops reading this private attribute, "--" still works.
            command._negative_number_matcher = _NEGATIVE
        for dest, choices, help_text in positionals:
            command.add_argument(dest, choices=choices, help=help_text)
        for flag, (dest, kind, default, help_text) in options.items():
            command.add_argument(flag, dest=dest, default=default,
                                 required=default is None, help=help_text,
                                 **({"action": "store_true"} if kind is bool
                                    else {"type": kind}))
        command.set_defaults(handler=handler)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace:
    # A canonical call needs no parser; any other goes to the full tree.
    return _scan(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        args.handler(args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout (| head).  As Python's signal docs
        # advise, stdout then goes to devnull, so exit flushes quietly.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1
    return 0
