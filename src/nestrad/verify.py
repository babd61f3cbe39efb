"""Reference oracles, error reports, convergence tables, and reproductions.

The nested evaluators are checked against closed-form references: the
standard library for single-valued cases, and the logarithmic forms of
the complex inverse cosines where branch conventions matter.  The same
machinery backs the command-line interface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .branches import (
    branch_oracle_acos,
    extract_branch,
    gray_signs,
    nested_acos_branch,
    nested_acosh_branch,
)
from .core import (
    EvalConfig,
    Scalar,
    check_depth,
    nested_cos,
    nested_cosh,
)
from .derived import (
    exp_limit,
    log_limit,
    nested_asin,
    nested_asinh,
    nested_atan,
    nested_atanh,
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

    Evaluated literally with principal log and square root; serves as the
    branch-convention reference for the nested inverse.
    """
    w = complex(z)
    return math.pi / 2 + 1j * cmath.log(1j * w + cmath.sqrt(1.0 - w * w))


def ref_acosh(z: Scalar) -> complex:
    """Closed-form principal inverse hyperbolic cosine log(z + sqrt(z**2 - 1)).

    The square root is taken factored, sqrt(z - 1)*sqrt(z + 1), which keeps
    the whole left half-plane on the sheet with nonnegative real part; the
    unfactored product would drop to the opposite sheet for re(z) < 0.
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
    return EvalReport(input, value, oracle_value, abs_error, rel_error,
                      depth, seed_order, branch)


@dataclass(frozen=True)
class ConvergenceRow:
    """Error at one depth; error_ratio is previous/current (0 when undefined)."""

    depth: int
    value: Scalar
    abs_error: float
    error_ratio: float


def _branch_value_acos(z: Scalar, k: int) -> complex:
    # Closed-form branch k: even k shifts by k*pi, odd k reflects off the
    # next multiple of pi; negative k mirrors branch -k-1 through zero.
    if k < 0:
        return -_branch_value_acos(z, -k - 1)
    x0 = ref_acos(z)
    if k % 2 == 0:
        return k * math.pi + x0
    return (k + 1) * math.pi - x0


def _is_real_interval(z: Scalar, lo: float, hi: float) -> bool:
    if isinstance(z, complex):
        if z.imag != 0.0:
            return False
        z = z.real
    return lo <= z <= hi


def _acos_oracle(z: Scalar, branch: int = 0) -> complex:
    if _is_real_interval(z, -1.0, 1.0):
        # Real arguments in range have exactly real branch values; the
        # closed form keeps the oracle free of log-formula roundoff.
        y = z.real if isinstance(z, complex) else float(z)
        if branch >= 0:
            return complex(branch_oracle_acos(y, branch), 0.0)
        return complex(-branch_oracle_acos(y, -branch - 1), 0.0)
    return _branch_value_acos(z, branch)


def _acosh_oracle(z: Scalar, branch: int = 0) -> complex:
    if branch == 0:
        return ref_acosh(z)
    if _is_real_interval(z, -1.0, 1.0):
        # On [-1, 1] the signed tower closes on a nonpositive real, so
        # every hyperbolic branch is exactly 1j times the circular one.
        y = z.real if isinstance(z, complex) else float(z)
        if branch >= 0:
            return complex(0.0, branch_oracle_acos(y, branch))
        return complex(0.0, -branch_oracle_acos(y, -branch - 1))
    # No closed form is implemented for other arguments; measure against
    # the principal value and let the report show the distance.
    return ref_acosh(z)


def _std_oracle(real_fn: Callable[[float], float],
                complex_fn: Callable[[complex], complex]) -> Callable[..., Scalar]:
    def oracle(z: Scalar, branch: int = 0) -> Scalar:
        if isinstance(z, complex) and z.imag != 0.0:
            return complex_fn(z)
        x = z.real if isinstance(z, complex) else float(z)
        try:
            return real_fn(x)
        except (ValueError, OverflowError):
            return complex_fn(complex(x, 0.0))
    return oracle


@dataclass(frozen=True)
class FunctionSpec:
    """A nested evaluator paired with its reference oracle."""

    name: str
    evaluate: Callable[..., Scalar]  # (z, depth, seed_order, branch, allow_deep)
    oracle: Callable[..., Scalar]    # (z, branch)
    takes_branch: bool = False


def _sin_shift(x: Scalar, cfg: EvalConfig) -> Scalar:
    # Alternative sine route: evaluate the cosine chain at x - pi/2.
    return nested_cos(x - math.pi / 2, cfg)


def _spec(name: str, fn: Callable[..., Scalar], takes: str,
          oracle: Callable[..., Scalar]) -> FunctionSpec:
    """Pair fn with its oracle behind the one evaluate adapter.

    takes says what fn accepts after z: "config" an EvalConfig, "depth" a
    depth, "branch" a branch index and a depth (acos and acosh, principal
    at branch 0), "limit" the limit index n = 2**depth, so that the limit
    index scales like the chains.
    """
    takes_branch = takes == "branch"

    def evaluate(z, depth, seed_order, branch, allow_deep):
        if branch != 0 and not takes_branch:
            raise ValueError("branch selection only applies to acos and acosh")
        if takes == "config":
            return fn(z, EvalConfig(depth, seed_order, allow_deep))
        if takes == "limit":
            check_depth(depth, allow_deep=allow_deep)
            return fn(z, 2 ** depth)
        if takes_branch:
            return fn(z, branch, depth, allow_deep=allow_deep)
        return fn(z, depth, allow_deep=allow_deep)

    return FunctionSpec(name, evaluate, oracle, takes_branch)


FUNCTIONS: dict[str, FunctionSpec] = {
    spec.name: spec for spec in [
        _spec("cos", nested_cos, "config", _std_oracle(math.cos, cmath.cos)),
        _spec("sin", nested_sin, "config", _std_oracle(math.sin, cmath.sin)),
        _spec("tan", nested_tan, "config", _std_oracle(math.tan, cmath.tan)),
        _spec("cosh", nested_cosh, "config", _std_oracle(math.cosh, cmath.cosh)),
        _spec("sinh", nested_sinh, "config", _std_oracle(math.sinh, cmath.sinh)),
        _spec("tanh", nested_tanh, "config", _std_oracle(math.tanh, cmath.tanh)),
        _spec("exp", nested_exp, "config", _std_oracle(math.exp, cmath.exp)),
        _spec("acos", nested_acos_branch, "branch", _acos_oracle),
        _spec("acosh", nested_acosh_branch, "branch", _acosh_oracle),
        _spec("asin", nested_asin, "depth", _std_oracle(math.asin, cmath.asin)),
        _spec("atan", nested_atan, "depth", _std_oracle(math.atan, cmath.atan)),
        _spec("asinh", nested_asinh, "depth", _std_oracle(math.asinh, cmath.asinh)),
        _spec("atanh", nested_atanh, "depth", _std_oracle(math.atanh, cmath.atanh)),
        _spec("log", nested_log, "depth", _std_oracle(math.log, cmath.log)),
        _spec("exp-limit", exp_limit, "limit", _std_oracle(math.exp, cmath.exp)),
        _spec("log-limit", log_limit, "limit", _std_oracle(math.log, cmath.log)),
        _spec("sin-shift", _sin_shift, "config", _std_oracle(math.sin, cmath.sin)),
    ]
}


def _lookup(name: str) -> FunctionSpec:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown function {name!r}; choose from "
            f"{', '.join(sorted(FUNCTIONS))}") from None


def eval_report(name: str, z: Scalar, *, depth: int = 10, seed_order: int = 2,
                branch: int = 0, allow_deep: bool = False) -> EvalReport:
    """Evaluate one function and compare it against its oracle."""
    spec = _lookup(name)
    value = spec.evaluate(z, depth, seed_order, branch, allow_deep)
    oracle_value = spec.oracle(z, branch)
    return make_report(z, value, oracle_value, depth, seed_order, branch)


def converge(name: str, z: Scalar, depths: list[int], seed_order: int = 2,
             *, allow_deep: bool = False) -> list[ConvergenceRow]:
    """Error against the oracle at each depth, with step-to-step ratios."""
    spec = _lookup(name)
    if not depths:
        raise ValueError("depth range must be nonempty")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("depths must be strictly increasing")
    oracle_value = spec.oracle(z, 0)
    rows: list[ConvergenceRow] = []
    prev = 0.0
    for i, depth in enumerate(depths):
        value = spec.evaluate(z, depth, seed_order, 0, allow_deep)
        abs_error = abs(value - oracle_value)
        ratio = 0.0 if i == 0 or abs_error == 0.0 else prev / abs_error
        rows.append(ConvergenceRow(depth, value, abs_error, ratio))
        prev = abs_error
    return rows


def sweep_branches(k_max: int, step: int = 1,
                   depth: int = 10) -> Iterator[tuple[int, float, float]]:
    """Yield (k, extracted, abs_dev) for branches of the inverse cosine of 0.

    extracted is extract_branch of branch k; abs_dev its distance from k.
    Rows come out in ascending k, from 0 to k_max inclusive by step.
    Arguments are checked here, before the first row is produced.
    """
    check_depth(depth)
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if not 0 < k_max < 2 ** (depth - 1):
        raise ValueError(
            f"k_max must satisfy 0 < k_max < 2**(depth-1), got {k_max} "
            f"at depth {depth}")
    return _sweep_rows(k_max, step, depth)


def _sweep_rows(k_max: int, step: int,
                depth: int) -> Iterator[tuple[int, float, float]]:
    for k in range(0, k_max + 1, step):
        extracted = extract_branch(nested_acos_branch(0.0, k, depth))
        yield k, extracted, abs(extracted - k)


@dataclass(frozen=True)
class Table1Row:
    """Branch k of the inverse cosine of 0 with its sign pattern and limit."""

    k: int
    pattern: str
    value: float
    converging: float


@dataclass(frozen=True)
class Table2Row:
    """Branch k of the inverse cosines of +1 and -1, both divided by pi."""

    k: int
    at_plus_one: float
    at_minus_one: float


def reproduce_table1(depth: int = 10) -> list[Table1Row]:
    """Branches k = 0..7 of the inverse cosine of 0 at the given depth.

    pattern shows the innermost four sign slots, outermost of the four
    first; for k < 8 every remaining outer slot is +.  converging is the
    closed-form limit (2k+1)*pi/2.
    """
    check_depth(depth)
    if depth < 10:
        raise ValueError(f"table needs depth >= 10, got {depth}")
    rows = []
    for k in range(8):
        signs = gray_signs(k, depth)
        pattern = "".join("+" if s > 0 else "-" for s in reversed(signs[:4]))
        rows.append(Table1Row(k, pattern, nested_acos_branch(0.0, k, depth),
                              branch_oracle_acos(0.0, k)))
    return rows


def reproduce_table2(depth: int = 10) -> list[Table2Row]:
    """Branches k = 0..10 of the inverse cosines of +-1, divided by pi."""
    check_depth(depth)
    if depth < 10:
        raise ValueError(f"table needs depth >= 10, got {depth}")
    return [
        Table2Row(k,
                  nested_acos_branch(1.0, k, depth) / math.pi,
                  nested_acos_branch(-1.0, k, depth) / math.pi)
        for k in range(11)
    ]
