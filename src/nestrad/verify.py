"""Reference oracles, error reports, convergence tables, and reproductions.

The nested evaluators are checked against closed-form references from
the standard library.  Branch k of the inverse cosine reflects its
principal value, and branch k of the inverse hyperbolic cosine is +-1j
times that, with the sign the tower's closing radical picks.  The same
machinery backs the command-line interface.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .core import (
    EvalConfig,
    Scalar,
    _is_int,
    _is_real,
    _real,
    _towers,
    check_depth,
    exp_limit,
    gray_signs,
    log_limit,
    nested_acos_branch,
    nested_acosh_branch,
    nested_asin,
    nested_asinh,
    nested_atan,
    nested_atanh,
    nested_cos,
    nested_cosh,
    nested_exp,
    nested_log,
    nested_sin,
    nested_sinh,
    nested_tan,
    nested_tanh,
)

__all__ = [
    "ref_acos",
    "ref_acosh",
    "extract_branch",
    "branch_oracle_acos",
    "EvalReport",
    "make_report",
    "ConvergenceRow",
    "FunctionSpec",
    "FUNCTIONS",
    "eval_report",
    "converge",
    "sweep_branches",
    "Table1Row",
    "Table2Row",
    "reproduce_table1",
    "reproduce_table2",
]


def ref_acos(z: Scalar) -> complex:
    """Closed-form principal inverse cosine pi/2 + i*log(iz + sqrt(1 - z**2)).

    Evaluated literally with principal log and square root.  Kept public
    as the literal log form; eval_report does not call it, since the log
    cancels for large |z|.
    """
    w = complex(z)
    return math.pi / 2 + 1j * cmath.log(1j * w + cmath.sqrt(1.0 - w * w))


def ref_acosh(z: Scalar) -> complex:
    """Closed-form principal inverse hyperbolic cosine log(z + sqrt(z**2 - 1)).

    The square root is taken factored, sqrt(z - 1)*sqrt(z + 1), which keeps
    the whole left half-plane on the sheet with nonnegative real part; the
    unfactored product would drop to the opposite sheet for re(z) < 0.
    Kept public as the literal log form; eval_report does not call it.
    """
    w = complex(z)
    return cmath.log(w + cmath.sqrt(w - 1.0) * cmath.sqrt(w + 1.0))


@dataclass(frozen=True)
class EvalReport:
    """One evaluation compared against its oracle."""

    input: Scalar
    value: Scalar
    oracle_value: Scalar
    abs_error: float
    rel_error: float
    depth: int
    seed_order: int
    branch: int


def make_report(input: Scalar, value: Scalar, oracle_value: Scalar,
                depth: int, seed_order: int, branch: int = 0) -> EvalReport:
    """Build an EvalReport; rel_error uses max(|oracle|, 1) as the scale."""
    abs_error = abs(value - oracle_value)
    rel_error = abs_error / max(abs(oracle_value), 1.0)
    # EvalReport's frozen __init__ makes one object.__setattr__ per field;
    # fill the same __dict__, in dataclasses.fields order, without it.
    r = object.__new__(EvalReport)
    d = r.__dict__
    d["input"] = input
    d["value"] = value
    d["oracle_value"] = oracle_value
    d["abs_error"] = abs_error
    d["rel_error"] = rel_error
    d["depth"] = depth
    d["seed_order"] = seed_order
    d["branch"] = branch
    return r


ConvergenceRow = namedtuple("ConvergenceRow", "depth value abs_error error_ratio")
ConvergenceRow.__doc__ = (
    "Error at one depth; error_ratio is previous/current (0 when undefined).")


def extract_branch(x: Scalar) -> float:
    """Recover the continuous branch coordinate re(x)/pi - 1/2.

    Branch k of the inverse cosine of a real argument lands in
    (k*pi, (k+1)*pi), so rounding the returned value gives k back.
    """
    return _real(x) / math.pi - 0.5


def branch_oracle_acos(y: float, k: int) -> float:
    """Closed-form branch k of acos on [-1, 1] for checking the tower.

    Even k adds k*pi to the principal value; odd k reflects it off the
    next multiple of pi.
    """
    if not -1.0 <= y <= 1.0:
        raise ValueError(f"oracle needs y in [-1, 1], got {y}")
    if not _is_int(k) or k < 0:
        raise ValueError(f"oracle branch index must be >= 0, got {k}")
    return _reflect(math.acos(y), k)


def _reflect(x0: Scalar, k: int) -> Scalar:
    # Branch k from the principal value x0: even k adds k*pi, odd k
    # reflects off (k+1)*pi, and negative k is minus branch -k-1.
    if k < 0:
        return -_reflect(x0, -k - 1)
    if k % 2 == 0:
        return k * math.pi + x0
    return (k + 1) * math.pi - x0


def _acos_oracle(z: Scalar, branch: int = 0) -> complex:
    # Branch k of the inverse cosine on the principal sheet of ref_acos,
    # but not through its log formula, which cancels for large |z| (5e-7
    # relative off at -1e6 and at 1e6+1j), raises from about |z| = 1e8 and
    # overflows or returns nan from about 1.3e154 up.  Real input in range
    # has an exactly real value, real input off [-1, 1] goes through
    # math.acosh, and everything else, NaN included, through cmath.acos.
    if _is_real(z):
        x = _real(z)
        if -1.0 <= x <= 1.0:
            return complex(_reflect(math.acos(x), branch), 0.0)
        if abs(x) > 1.0:
            t = math.acosh(abs(x))
            a = complex(0.0, t) if x > 0.0 else complex(math.pi, -t)
            return _reflect(a, branch)
    return _reflect(cmath.acos(z), branch)


def _acosh_oracle(z: Scalar, branch: int = 0) -> complex:
    # Branch k is +-1j times branch k of acos, a, and branch -k-1 is minus
    # branch k.  The closing radical takes the principal root of
    # y_depth - 1, about -a**2 / 2**(2*depth + 1), so the rotation it
    # picks has a positive real part, or a zero one with a nonnegative
    # imaginary part.  Both quarter turns are written out: 1j*a makes
    # inf*0 = nan at infinite a, and 0.0 - t gives a zero part +0.0, as
    # cmath.acosh does on the real line.
    if branch < 0:
        return -_acosh_oracle(z, -branch - 1)
    a = _acos_oracle(z, branch)
    h = complex(0.0 - a.imag, a.real)
    if h.real > 0.0 or (h.real == 0.0 and h.imag >= 0.0):
        return h
    return complex(a.imag, 0.0 - a.real)


def _std_oracle(real_fn: Callable[[float], float],
                complex_fn: Callable[[complex], complex]) -> Callable[..., Scalar]:
    # Real input falls back to cmath off math's domain or range.  Where
    # cmath overflows too, the error names the reference and z, as the
    # evaluators' numeric errors do.
    def oracle(z: Scalar, branch: int = 0) -> Scalar:
        try:
            if not _is_real(z):
                return complex_fn(z)
            x = _real(z)
            try:
                return real_fn(x)
            except (ValueError, OverflowError):
                return complex_fn(complex(x, 0.0))
        except OverflowError:
            raise OverflowError(
                f"the reference {complex_fn.__name__} overflows at z = {z!r}; "
                "there is no finite value to compare against") from None
    return oracle


FunctionSpec = namedtuple("FunctionSpec", "evaluate oracle")
FunctionSpec.__doc__ = """A nested evaluator paired with its reference oracle.

evaluate takes (z, depth, seed_order, branch) and oracle (z, branch).
"""


def _sin_shift(x: Scalar, cfg: EvalConfig) -> Scalar:
    # Alternative sine route: evaluate the cosine chain at x - pi/2.
    return nested_cos(x - math.pi / 2, cfg)


# Validated configs for every request.  typed=True keeps depth=True and
# depth=10.0 off the cached 1 and 10, so they still reach EvalConfig and
# raise; lru_cache never caches an exception, so a miss raises as before.
_config = lru_cache(maxsize=256, typed=True)(EvalConfig)


def _spec(fn: Callable[..., Scalar], takes: str,
          oracle: Callable[..., Scalar]) -> FunctionSpec:
    """Pair fn with its oracle behind the one evaluate adapter.

    takes says what fn accepts after z: "config" an EvalConfig, "depth" a
    depth, "branch" a branch index and a depth (acos and acosh, principal
    at branch 0), "limit" the limit index n = 2**depth, so that the limit
    index scales like the chains.  EvalConfig checks every kind, depth first.
    """
    takes_branch = takes == "branch"

    def evaluate(z, depth, seed_order, branch):
        if branch != 0 and not takes_branch:
            raise ValueError("branch selection only applies to acos and acosh")
        try:
            cfg = _config(depth, seed_order)
        except TypeError:
            # An unhashable argument: EvalConfig validates it uncached.
            cfg = EvalConfig(depth, seed_order)
        if takes == "config":
            return fn(z, cfg)
        if takes == "limit":
            return fn(z, 2 ** depth)
        if takes_branch:
            return fn(z, branch, depth)
        return fn(z, depth)

    return FunctionSpec(evaluate, oracle)


FUNCTIONS: dict[str, FunctionSpec] = {
    "cos": _spec(nested_cos, "config", _std_oracle(math.cos, cmath.cos)),
    "sin": _spec(nested_sin, "config", _std_oracle(math.sin, cmath.sin)),
    "tan": _spec(nested_tan, "config", _std_oracle(math.tan, cmath.tan)),
    "cosh": _spec(nested_cosh, "config", _std_oracle(math.cosh, cmath.cosh)),
    "sinh": _spec(nested_sinh, "config", _std_oracle(math.sinh, cmath.sinh)),
    "tanh": _spec(nested_tanh, "config", _std_oracle(math.tanh, cmath.tanh)),
    "exp": _spec(nested_exp, "config", _std_oracle(math.exp, cmath.exp)),
    "acos": _spec(nested_acos_branch, "branch", _acos_oracle),
    "acosh": _spec(nested_acosh_branch, "branch", _acosh_oracle),
    "asin": _spec(nested_asin, "depth", _std_oracle(math.asin, cmath.asin)),
    "atan": _spec(nested_atan, "depth", _std_oracle(math.atan, cmath.atan)),
    "asinh": _spec(nested_asinh, "depth", _std_oracle(math.asinh, cmath.asinh)),
    "atanh": _spec(nested_atanh, "depth", _std_oracle(math.atanh, cmath.atanh)),
    "log": _spec(nested_log, "depth", _std_oracle(math.log, cmath.log)),
    "exp-limit": _spec(exp_limit, "limit", _std_oracle(math.exp, cmath.exp)),
    "log-limit": _spec(log_limit, "limit", _std_oracle(math.log, cmath.log)),
    "sin-shift": _spec(_sin_shift, "config", _std_oracle(math.sin, cmath.sin)),
}


def _lookup(name: str) -> FunctionSpec:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown function {name!r}; choose from "
            f"{', '.join(sorted(FUNCTIONS))}") from None


def eval_report(name: str, z: Scalar, *, depth: int = 10, seed_order: int = 2,
                branch: int = 0) -> EvalReport:
    """Evaluate one function and compare it against its oracle."""
    evaluate, oracle = _lookup(name)
    value = evaluate(z, depth, seed_order, branch)
    oracle_value = oracle(z, branch)
    return make_report(z, value, oracle_value, depth, seed_order, branch)


def converge(name: str, z: Scalar, depths: list[int],
             seed_order: int = 2) -> list[ConvergenceRow]:
    """Error against the oracle at each depth, with step-to-step ratios."""
    evaluate, oracle = _lookup(name)
    if not depths:
        raise ValueError("depth range must be nonempty")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("depths must be strictly increasing")
    # Every depth is checked before any is evaluated, so a bad depth is
    # named before a bad seed order, as EvalConfig names it.
    for d in depths:
        check_depth(d)
    values = [evaluate(z, d, seed_order, 0) for d in depths]
    oracle_value = oracle(z, 0)
    errors = [abs(v - oracle_value) for v in values]
    ratios = [0.0] + [p / e if e else 0.0 for p, e in zip(errors, errors[1:])]
    return list(map(ConvergenceRow, depths, values, errors, ratios))


def sweep_branches(k_max: int, step: int = 1,
                   depth: int = 10) -> Iterator[tuple[int, float, float]]:
    """Yield (k, extracted, abs_dev) for branches of the inverse cosine of 0.

    extracted is extract_branch of branch k; abs_dev its distance from k.
    Rows come out in ascending k over range(0, k_max + 1, step), each
    bitwise what nested_acos_branch(0.0, k, depth) gives, whatever k_max is.
    Arguments are checked here, before the first row is produced.
    """
    check_depth(depth)
    if not _is_int(step) or step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if not _is_int(k_max) or not 0 < k_max < 2 ** (depth - 1):
        raise ValueError(
            f"k_max must satisfy 0 < k_max < 2**(depth-1), got {k_max} "
            f"at depth {depth}")
    return chain.from_iterable(
        zip(*cols) for cols in _sweep_columns(range(0, k_max + 1, step), depth))


def _sweep_columns(ks: range, depth: int
                   ) -> Iterator[tuple[range, list[float], list[float]]]:
    # extract_branch is written out: on a float it is v / pi - 0.5.
    pi = math.pi
    for chunk, values in _towers(0.0, depth, ks):
        extracted = [v / pi - 0.5 for v in values]
        yield chunk, extracted, [abs(e - k) for e, k in zip(extracted, chunk)]


Table1Row = namedtuple("Table1Row", "k pattern value converging")
Table1Row.__doc__ = (
    "Branch k of the inverse cosine of 0 with its sign pattern and limit.")

Table2Row = namedtuple("Table2Row", "k at_plus_one at_minus_one")
Table2Row.__doc__ = (
    "Branch k of the inverse cosines of +1 and -1, both divided by pi.")


def reproduce_table1(depth: int = 10) -> list[Table1Row]:
    """Branches k = 0..7 of the inverse cosine of 0 at the given depth.

    pattern shows the innermost four sign slots, outermost of the four
    first; for k < 8 every remaining outer slot is +.  converging is the
    closed-form limit (2k+1)*pi/2.
    """
    [values] = _table_towers(depth, 8, 0.0)
    rows = []
    for k, value in enumerate(values):
        signs = gray_signs(k, 4)
        pattern = "".join("+" if s > 0 else "-" for s in reversed(signs))
        rows.append(Table1Row(k, pattern, value, branch_oracle_acos(0.0, k)))
    return rows


def reproduce_table2(depth: int = 10) -> list[Table2Row]:
    """Branches k = 0..10 of the inverse cosines of +-1, divided by pi."""
    plus, minus = _table_towers(depth, 11, 1.0, -1.0)
    return [Table2Row(k, plus[k] / math.pi, minus[k] / math.pi)
            for k in range(11)]


def _table_towers(depth: int, count: int, *ys: float) -> list[list[float]]:
    check_depth(depth)
    if depth < 10:
        raise ValueError(f"table needs depth >= 10, got {depth}")
    return [values for y in ys for _, values in _towers(y, depth, range(count))]
