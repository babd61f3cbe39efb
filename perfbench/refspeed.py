"""How fast the machine runs Python right now.

On a shared host the speed of the same code drifts by a factor of two
over seconds, with CPU time tracking wall time (so the process is not
descheduled, it runs slower).  The benchmark therefore times a fixed
kernel between the requests it measures and scales every request time
by ``NOMINAL_S[kind] / kernel time``.  Each workload uses the kernel
whose work is most like its own, written with the standard library
only, so that a change to nestrad moves the scaled times while a change
in machine speed largely cancels out: times are reported in
microseconds of a machine on which one kernel call takes NOMINAL_S.
"""

from __future__ import annotations

import argparse
import statistics
from fractions import Fraction
from time import perf_counter

#: Kernel times at the reference speed (close to the medians on the
#: Xeon host the benchmark was written on).
NOMINAL_S = {"float": 100e-6, "argparse": 300e-6, "fraction": 250e-6,
             "bigint": 150e-6}
REPS = {"float": 11, "argparse": 5, "fraction": 5, "bigint": 5}


def float_kernel() -> int:
    """Float recurrence, ``%.15g`` formatting, small allocations."""
    y = 0.3
    s = 0
    acc = []
    for i in range(100):
        y = -1.0 + 2.0 * y * y
        s += len(f"{y:.15g}")
        acc.append((y, i, {"k": s}))
    return s


def argparse_kernel() -> str:
    """Build a small sub-command parser, parse a line, format a row."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("eval", help="one command")
    p.add_argument("value")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--flag", action="store_true")
    args = parser.parse_args(["eval", "1.5", "--depth", "12", "--flag"])
    return f"{args.depth},{float(args.value) / 3:.15g}"


def fraction_kernel() -> list[Fraction]:
    """Three squarings of -1 + 2p**2 on a two-term rational seed."""
    p = [Fraction(1), Fraction(-1, 2 ** 9)]
    for _ in range(3):
        sq = [Fraction(0)] * (2 * len(p) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(p):
                sq[i + j] += a * b
        p = [2 * c for c in sq]
        p[0] -= 1
    return p


_A = Fraction(3 ** 1500 + 1, 2 ** 2300 + 7)
_B = Fraction(5 ** 900 - 3, 7 ** 700 + 11)


def bigint_kernel() -> Fraction:
    """Rational arithmetic on 2000- to 4000-bit integers, as in a depth-8
    expansion, where the time goes to big-integer products and gcds."""
    return _A * _B + _A


KERNELS = {"float": float_kernel, "argparse": argparse_kernel,
           "fraction": fraction_kernel, "bigint": bigint_kernel}


def measure(kind: str = "float") -> float:
    """Median seconds of REPS kernel calls: robust to one call interrupted."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(REPS[kind]):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
