"""Everything else comes from the chains: sin, tan, exp, log and kin."""

import math

from nestrad import (
    DEFAULT_CONFIG,
    exp_limit,
    log_limit,
    nested_atan,
    nested_exp,
    nested_log,
    nested_sin,
    nested_tan,
)


def table(rows):
    for label, got, exact in rows:
        print(f"  {label:<22} {got:+.12f}   exact {exact:+.12f}")
    print()


if __name__ == "__main__":
    cfg = DEFAULT_CONFIG
    print("sin is doubled beside the cosine chain c by Viete's sin 2t = 2 sin t cos t;")
    print("tan is sin/c; atan is acos of 1/sqrt(1 + y**2)")
    table([
        ("nested_sin(1)", nested_sin(1.0, cfg), math.sin(1.0)),
        ("nested_tan(1)", nested_tan(1.0, cfg), math.tan(1.0)),
        ("nested_atan(2)", nested_atan(2.0, 10), math.atan(2.0)),
    ])

    print("log rides on acosh: y maps to the mean of y and 1/y")
    table([
        ("nested_log(2)", nested_log(2.0, 10), math.log(2.0)),
        ("nested_log(10)", nested_log(10.0, 10), math.log(10.0)),
        ("nested_log(1000)", nested_log(1000.0, 10), math.log(1000.0)),
    ])
    z = nested_log(-1.0, 10)
    print(f"  nested_log(-1) = {z.imag:.12f}i, pi = {math.pi:.12f}")
    print()

    print("exp is cosh + sinh, one doubling pair on the cosh chain")
    table([
        ("nested_exp(1)", nested_exp(1.0, cfg), math.e),
        ("nested_exp(-2)", nested_exp(-2.0, cfg), math.exp(-2.0)),
    ])

    # the classic compound-interest limits, done with repeated squaring
    print("limit forms (1 + x/n)**n and n * (y**(1/n) - 1)")
    for n in (4, 64, 1024, 65536):
        e_gap = abs(exp_limit(1.0, n) - math.e)
        l_gap = abs(log_limit(2.0, n) - math.log(2.0))
        print(f"  n = {n:5d}: exp gap {e_gap:.3e}, log gap {l_gap:.3e}")
