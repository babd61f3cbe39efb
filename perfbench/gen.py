"""Seeded request generators for the three workloads.

Requests come in blocks.  Block ``i`` of a run with seed ``s`` is drawn
from its own ``random.Random`` seeded with ``(workload, s, i)``, so the
same seed gives the same requests however many blocks a run gets
through.  Each block has a fixed mix, with only the continuous
parameters drawn at random; that keeps run-to-run spread low.
Nothing here imports nestrad: the library only sees the generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from checks import FORWARD, INVERSE, complex_arg_valid

FUNCTION_NAMES = ("acos", "acosh", "asin", "asinh", "atan", "atanh", "cos",
                  "cosh", "exp", "exp-limit", "log", "log-limit", "sin",
                  "sin-shift", "sinh", "tan", "tanh")

#: Real arguments: where each function's nested form agrees with its
#: standard value.  asin returns the magnitude branch, so only y >= 0.
_REAL_DOMAIN = {
    "cos": (-10.0, 10.0), "sin": (-10.0, 10.0), "tan": (-10.0, 10.0),
    "sin-shift": (-10.0, 10.0), "cosh": (-6.0, 6.0), "sinh": (-6.0, 6.0),
    "tanh": (-6.0, 6.0), "exp": (-6.0, 6.0), "exp-limit": (-6.0, 6.0),
    "acos": (-1.0, 1.0), "acosh": (1.0, 10.0), "asin": (0.0, 1.0),
    "atan": (-10.0, 10.0), "asinh": (-10.0, 10.0), "atanh": (-0.99, 0.99),
}
_LOG_DOMAIN = ("log", "log-limit")  # log-uniform on [1e-3, 1e3]

COMPLEX_SHARE = 0.3
BRANCH_SHARE = 0.5
DEPTHS = (4, 30)
ORDERS = (1, 4)


def block_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def scalar_text(z: complex | float) -> str:
    """Text parse_scalar reads back exactly: repr of each component."""
    if isinstance(z, float):
        return repr(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


@dataclass(frozen=True)
class ScalarRequest:
    name: str
    text: str
    z: complex | float
    depth: int
    order: int
    branch: int


def _real_arg(name: str, u: float) -> float:
    """The argument at position u in [0, 1) of the function's real domain."""
    if name in _LOG_DOMAIN:
        return 10.0 ** (-3.0 + 6.0 * u)
    lo, hi = _REAL_DOMAIN[name]
    return lo + (hi - lo) * u


def _complex_arg(rng: random.Random, name: str) -> complex:
    while True:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(z.imag) >= 0.05 and complex_arg_valid(name, z):
            return z


def branch_index(rng: random.Random, depth: int) -> int:
    """Nonzero k with |k| < 2**(depth-1), log-uniform in magnitude."""
    k = max(1, int(2.0 ** rng.uniform(0.0, depth - 1)) - 1)
    return k if rng.random() < 0.5 else -k


def scalar_request(rng: random.Random, name: str, depth: int,
                   order: int | None = None, branch: bool | None = None,
                   complex_arg: bool | None = None,
                   u: float | None = None) -> ScalarRequest:
    """One eval request; unset choices are drawn with the default shares."""
    if order is None:
        order = rng.randint(*ORDERS)
    if branch is None:
        branch = rng.random() < BRANCH_SHARE
    if complex_arg is None:
        complex_arg = rng.random() < COMPLEX_SHARE
    if u is None:
        u = rng.random()
    k = 0
    if name in ("acos", "acosh") and branch:
        # Branch oracles exist for real y in [-1, 1] (and any complex y
        # for acos); acosh branches stay on the real interval.
        k = branch_index(rng, depth)
        z = rng.uniform(-1.0, 1.0)
    elif complex_arg:
        z = _complex_arg(rng, name)
    else:
        z = _real_arg(name, u)
    return ScalarRequest(name, scalar_text(z), z, depth, order, k)


def scalar_block(seed: int, index: int, per_function: int = 12) -> list[ScalarRequest]:
    """Every function ``per_function`` times, stratified over its choices.

    Depths and real arguments fall one to each of ``per_function``
    strata of their ranges; each seed order, the complex share and (for
    acos/acosh) the branch share are met exactly, in a seeded rotation.
    """
    rng = block_rng("scalar-mix", seed, index)
    lo, hi = DEPTHS
    span = hi - lo + 1
    n_complex = round(COMPLEX_SHARE * per_function)
    out = []
    for name in FUNCTION_NAMES:
        rot = [rng.randrange(per_function) for _ in range(3)]
        slots = list(range(per_function))
        rng.shuffle(slots)
        for j in range(per_function):
            depth = lo + int((j + rng.random()) * span / per_function)
            out.append(scalar_request(
                rng, name, depth,
                order=ORDERS[0] + (j + rot[0]) % (ORDERS[1] - ORDERS[0] + 1),
                branch=(j + rot[1]) % 2 == 0,
                complex_arg=(j + rot[2]) % per_function < n_complex,
                u=(slots[j] + rng.random()) / per_function))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ cli-session

@dataclass(frozen=True)
class CliRequest:
    argv: tuple[str, ...]
    kind: str
    scalar: ScalarRequest | None = None


#: Requests per block by command; sweeps are 6 of 40 (15 %).
CLI_MIX = (("sweep", 6), ("eval", 14), ("signs", 5), ("converge", 5),
           ("table1", 3), ("table2", 3), ("expand", 4))
SWEEP_KMAX = (1000, 4000, 2 ** 14 - 1)  # < 2**14 <= 2**(depth-1): every k in range
SWEEP_DEEPEST = 25


def sweep_min_depth(kmax: int) -> int:
    """Smallest depth whose truncation keeps branch kmax within 1/8 of k.

    The closing map's truncation error is theta**3 / (24 * 4**depth) for
    a branch value theta < (kmax + 1) * pi; below this depth rounding the
    extracted coordinate cannot recover k (at the seed, depth 15 loses
    k = 1093), so such a sweep is not a valid request.
    """
    theta = (kmax + 1) * math.pi
    depth = 1
    while theta ** 3 / (24 * 4.0 ** depth) > math.pi / 8:
        depth += 1
    return depth


def sweep_grid() -> list[tuple[int, int]]:
    """(kmax, depth) of the sweeps in every block.

    Three sizes spread over 10**3..2**14-1, each at the shallowest depth
    that resolves it and at depth 25.  The grid is the same for every
    seed, so sweep results and the accuracy figures drawn from them are
    comparable between runs; the seed only places them in the block.
    """
    out = []
    for kmax in SWEEP_KMAX:
        out += [(kmax, sweep_min_depth(kmax)), (kmax, SWEEP_DEEPEST)]
    return out


def _cli_request(rng: random.Random, kind: str) -> CliRequest:
    if kind == "eval":
        req = scalar_request(rng, rng.choice(FUNCTION_NAMES), rng.randint(*DEPTHS))
        argv = ["eval", req.name, req.text, "--depth", str(req.depth),
                "--seed-order", str(req.order)]
        if req.branch:
            argv += ["--branch", str(req.branch)]
        if rng.random() < 0.3:
            argv.append("--json")
        return CliRequest(tuple(argv), kind, req)
    if kind == "signs":
        width = rng.randint(2, 40)
        k = rng.randrange(2 ** (width - 1))
        argv = ["signs", "--branch", str(k), "--width", str(width)]
        if rng.random() < 0.5:
            argv.append("--inner-first")
        return CliRequest(tuple(argv), kind)
    if kind == "converge":
        name = rng.choice(FUNCTION_NAMES)
        lo = rng.randint(4, 20)
        hi = rng.randint(lo + 1, min(lo + 8, 30))
        req = scalar_request(rng, name, hi)
        # Converge evaluates the principal value only.
        req = ScalarRequest(req.name, req.text, req.z, lo, req.order, 0)
        argv = ("converge", name, req.text, "--depths", f"{lo}..{hi}",
                "--seed-order", str(req.order))
        return CliRequest(argv, kind, req)
    if kind in ("table1", "table2"):
        return CliRequest((kind, "--depth", str(rng.randint(10, 30))), kind)
    if kind == "expand":
        argv = ["expand", "--depth", str(rng.randint(1, 6))]
        if rng.random() < 0.5:
            argv.append("--hyperbolic")
        return CliRequest(tuple(argv), kind)
    raise ValueError(kind)


def cli_block(seed: int, index: int) -> list[CliRequest]:
    rng = block_rng("cli-session", seed, index)
    out: list[CliRequest] = []
    for kind, count in CLI_MIX:
        if kind == "sweep":
            out += [CliRequest(("sweep", "--kmax", str(kmax), "--depth", str(depth)),
                               "sweep") for kmax, depth in sweep_grid()]
        else:
            out += [_cli_request(rng, kind) for _ in range(count)]
    rng.shuffle(out)
    return out


# ----------------------------------------------------------- exact-expand

@dataclass(frozen=True)
class ExpandRequest:
    depth: int
    variant: str
    max_j: int
    xs: tuple[float, ...]


#: Depth 9 would take ~9 s of a block (2.3 s per expansion, twice per
#: request with the profile's own), leaving two blocks per run and a p50
#: that moved by 0.18 between seeds; depth 8 shows the same O(4**d)
#: convolution at 0.3 s per expansion.
EXPAND_DEPTHS = range(1, 9)
EXPAND_POINTS = 64


def expand_block(seed: int, index: int) -> list[ExpandRequest]:
    """Every (depth, variant) for depth 1..8 once, in seeded order.

    Each request evaluates at EXPAND_POINTS arguments, one in each
    1/EXPAND_POINTS of (0, 1], so accuracy figures do not hinge on one draw.
    """
    rng = block_rng("exact-expand", seed, index)
    out = []
    for depth in EXPAND_DEPTHS:
        for variant in ("circular", "hyperbolic"):
            xs = tuple((j + rng.random()) / EXPAND_POINTS for j in range(EXPAND_POINTS))
            out.append(ExpandRequest(depth, variant, rng.randint(1, 12), xs))
    rng.shuffle(out)
    return out


def chain_of(name: str) -> str | None:
    """Core chain a function rests on: 'cos', 'cosh', 'acos', 'acosh' or None."""
    return FORWARD.get(name) or INVERSE.get(name)

