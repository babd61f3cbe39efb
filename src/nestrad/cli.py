"""Command-line interface for the nested evaluators and their diagnostics.

Output is deterministic: 15 significant digits (repr for the largest
floats), complex values as a+bi / a-bi with no spaces, zeros normalized
to "0".  Exit codes: 0 success, 1 output cut short (stdout closed, as by
| head, or a failed sweep worker), 2 argument or validation error, 3
numeric error (overflow or pole).  A sweep of more than 4096 rows runs
on every CPU the process may use, in forked workers, byte for byte.

A call that starts with a command name is parsed by that command's
parser alone, which a process builds on its first call and reuses;
top-level help, unknown or abbreviated commands and leftover arguments
go through the full tree, built afresh, so every message reads as it
did.  Importing the CLI loads core and verify, not expand: only the
expand command needs exact arithmetic (fractions), and it loads that
module on its first call.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import os
import re
import sys
import threading
from itertools import chain

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


def _cmd_eval(args: argparse.Namespace) -> None:
    z = parse_scalar(args.arg)
    r = eval_report(args.fn, z, depth=args.depth, seed_order=args.seed_order,
                    branch=args.branch)
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
    print(f"value {fmt_scalar(r.value)}")
    print(f"oracle {fmt_scalar(r.oracle_value)}")
    print(f"abs_error {fmt_real(r.abs_error)}")
    print(f"rel_error {fmt_real(r.rel_error)}")


def _cmd_converge(args: argparse.Namespace) -> None:
    z = parse_scalar(args.arg)
    rows = converge(args.fn, z, _parse_depths(args.depths), args.seed_order)
    print("depth,value,abs_error,error_ratio")
    for row in rows:
        print(f"{row.depth},{fmt_scalar(row.value)},"
              f"{fmt_real(row.abs_error)},{fmt_real(row.error_ratio)}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    sweep_branches(args.kmax, args.step, args.depth)  # checks the arguments
    print("k,extracted,abs_dev")
    # On W CPUs chunk j of 4096 rows is worker j % W's, and the parent,
    # worker 0, prints the chunks in order.  A child sends each of its own
    # down a pipe as its length in 8 bytes and its text; the pipe's
    # back-pressure keeps one chunk of text per process.
    starts = range(0, args.kmax + 1, 4096 * args.step)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # A fork beside other threads could copy a lock one of them holds.
    workers = (min(cpus, len(starts)) if hasattr(os, "fork")
               and threading.active_count() == 1 else 1)
    readers, pids, status = [], [], 0
    try:
        for w in range(1, workers):
            r, fd = os.pipe()
            if not (pid := os.fork()):  # a child: it never touches sys.stdout
                try:
                    os.close(r)
                    with open(fd, "wb") as pipe:
                        for k in starts[w::workers]:
                            text = _chunk(args, k)
                            pipe.write(len(text).to_bytes(8, "big") + text.encode())
                    os._exit(0)
                finally:  # reached only if the child failed
                    os._exit(1)
            pids.append(pid)
            os.close(fd)
            readers.append(open(r, "rb"))
        for j, k in enumerate(starts):
            if j % workers:
                f = readers[j % workers - 1]
                size = int.from_bytes(f.read(8), "big")
                text = f.read(size).decode()
                if not text or len(text) < size:
                    raise ChildProcessError("a sweep worker stopped before its rows")
            else:
                text = _chunk(args, k)
            print(text, end="")
    finally:
        for f in readers:
            f.close()
        for pid in pids:
            # ECHILD: the host ignores SIGCHLD, so the child reaped itself
            # and its status is lost; every frame was checked above.
            with contextlib.suppress(ChildProcessError):
                status = max(status, os.waitpid(pid, 0)[1])
    if status:
        raise ChildProcessError("a sweep worker exited with status "
                                f"{os.waitstatus_to_exitcode(status)}")


def _chunk(args: argparse.Namespace, k: int) -> str:
    # The chunk of rows from branch k on, formatted at once.  A row's bits
    # depend only on its k, so no split of the sweep moves a byte.
    # "%.15g" is fmt_real here: it differs only on -0.0 and next to the
    # float maximum, which neither column can hold, since abs() never
    # returns -0.0, x - 0.5 is never -0.0 under round-to-nearest, and both
    # stay below 4.5e307: with the top Gray bit clear a closing value is at
    # most 2**DEPTH_MAX * sqrt(2), so extracted < 4.1e307, and
    # k < 2**(DEPTH_MAX - 1).
    last = min(args.kmax, k + 4095 * args.step)
    fields = tuple(chain.from_iterable(
        sweep_branches(last, args.step, args.depth, k_min=k)))
    return ("%d,%.15g,%.15g\n" * (len(fields) // 3)) % fields


def _cmd_table1(args: argparse.Namespace) -> None:
    rows = reproduce_table1(args.depth)
    print(f"{'signs':<8}{'value':<20}limit")
    for row in rows:
        limit = f"{2 * row.k + 1}pi/2" if row.k else "pi/2"
        print(f"{row.pattern:<8}{fmt_real(row.value):<20}{limit}")


def _cmd_table2(args: argparse.Namespace) -> None:
    rows = reproduce_table2(args.depth)
    print(f"{'k':<4}{'acos(1)/pi':<20}acos(-1)/pi")
    for row in rows:
        print(f"{row.k:<4}{fmt_real(row.at_plus_one):<20}"
              f"{fmt_real(row.at_minus_one)}")


def _cmd_expand(args: argparse.Namespace) -> None:
    from .expand import expand_nested_cos
    variant = "hyperbolic" if args.hyperbolic else "circular"
    coeffs = expand_nested_cos(args.depth, variant).coeffs
    try:
        lines = [f"{j},{c}" for j, c in enumerate(coeffs)]
    except ValueError as exc:
        # Python's int-to-str digit limit; the coefficients themselves exist.
        raise ValueError(
            f"depth {args.depth} coefficients have more digits than Python's "
            "integer string conversion limit; set PYTHONINTMAXSTRDIGITS=0 "
            "to lift it") from exc
    print("\n".join(["j,coefficient", *lines]))


def _cmd_signs(args: argparse.Namespace) -> None:
    signs = gray_signs(args.branch, args.width)
    if not args.inner_first:
        signs = tuple(reversed(signs))
    print("".join("+" if s > 0 else "-" for s in signs))


class _Parser(argparse.ArgumentParser):
    # Newer argparse releases (3.13.13 among them) print the choices of an
    # invalid-choice error unquoted; this is the quoted wording of earlier
    # ones, so the error reads the same on every Python.
    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


def _accept_negative_scalars(parser: argparse.ArgumentParser) -> None:
    # Let values with a leading minus (-2+3i, -i, -1e-3) parse as
    # positionals; every option here is --long so this is unambiguous.
    # If argparse stops reading this private attribute, "--" still works.
    parser._negative_number_matcher = re.compile(r"^-[\d.i]")


def _add_depth(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=int, default=10,
                        help="recursion depth n (default 10)")


def _args_eval(p: argparse.ArgumentParser) -> None:
    _accept_negative_scalars(p)
    p.add_argument("fn", choices=sorted(FUNCTIONS))
    p.add_argument("arg", help="argument: a, ai, a+bi, a-bi")
    _add_depth(p)
    p.add_argument("--seed-order", type=int, default=2, dest="seed_order",
                   help="series terms in the seed, 1..4 (default 2)")
    p.add_argument("--branch", type=int, default=0,
                   help="branch index for acos/acosh (default 0)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit a single-line JSON report")


def _args_converge(p: argparse.ArgumentParser) -> None:
    _accept_negative_scalars(p)
    p.add_argument("fn", choices=sorted(FUNCTIONS))
    p.add_argument("arg")
    p.add_argument("--depths", required=True, help="range A..B or single depth")
    p.add_argument("--seed-order", type=int, default=2, dest="seed_order")


def _args_sweep(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    _add_depth(p)


def _args_expand(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--hyperbolic", action="store_true")


def _args_signs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--branch", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--inner-first", action="store_true", dest="inner_first",
                   help="print innermost radical first (default outermost)")


_COMMANDS = {
    "eval": ("evaluate one function against its oracle", _args_eval, _cmd_eval),
    "converge": ("error table over a depth range", _args_converge, _cmd_converge),
    "sweep": ("branch sweep of the inverse cosine of 0", _args_sweep, _cmd_sweep),
    "table1": ("branches of the inverse cosine of 0", _add_depth, _cmd_table1),
    "table2": ("branches at +-1 divided by pi", _add_depth, _cmd_table2),
    "expand": ("exact rational Maclaurin coefficients", _args_expand, _cmd_expand),
    "signs": ("Gray-code sign pattern of a branch", _args_signs, _cmd_signs),
}


def build_parser() -> argparse.ArgumentParser:
    """The full nestrad parser: the root and every command's subparser."""
    parser = _Parser(
        prog="nestrad",
        description="Nested square-root and doubled-angle evaluation of "
                    "elementary functions, with oracle comparison.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(handler=handler)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    # The parser the full tree builds for the command (same class, prog and
    # arguments), so its help and errors print the same.  Reuse is safe: each
    # parse makes a new Namespace; COLUMNS and the streams are read on print.
    _, add_args, handler = _COMMANDS[name]
    parser = _Parser(prog=f"nestrad {name}")
    add_args(parser)
    parser.set_defaults(command=name, handler=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    # Anything but a command name with no leftovers goes through the full tree.
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
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
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
