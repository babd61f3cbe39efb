"""The three workloads: how each request runs, is traced and is checked.

Every workload has the same shape.  ``block(seed, i)`` gives the i-th
block of requests; ``run`` executes one request on the timed path and
returns what a user would get; ``run_traced`` makes the same calls with
a span around each; ``probe`` replays the layers underneath with spans
(outside the request's time, since nothing in the library is patched);
``check`` verifies the output against the references in ``checks`` and,
for accuracy blocks, adds error samples to ``acc``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import checks
import gen
import nestrad
from nestrad import cli, verify

_DERIVED = {
    "sin": nestrad.nested_sin, "tan": nestrad.nested_tan,
    "sinh": nestrad.nested_sinh, "tanh": nestrad.nested_tanh,
    "exp": nestrad.nested_exp,
}
_DERIVED_INVERSE = {
    "asin": nestrad.nested_asin, "atan": nestrad.nested_atan,
    "asinh": nestrad.nested_asinh, "atanh": nestrad.nested_atanh,
    "log": nestrad.nested_log,
}


class Accuracy:
    """Error samples of the accuracy blocks and the largest sweep deviation."""

    def __init__(self) -> None:
        self.rel_error: list[float] = []
        self.roundoff: list[float] = []
        self.branch_dev_max = 0.0
        # Same-depth references are costly: only the first roundoff_blocks
        # of the accuracy blocks take roundoff samples.
        self.roundoff_on = True


def parse_out(s: str) -> complex:
    """Read a value printed by fmt_scalar: a, bi, a+bi or a-bi."""
    if not s.endswith("i"):
        return complex(float(s))
    body = s[:-1]
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            return complex(float(body[:i]), float(body[i:]))
    return complex(0.0, float(body))


class Repeats:
    """Share of work units whose input was already computed in the run.

    A cache that lives across calls can only gain on these.
    """

    def __init__(self) -> None:
        self.seen: set = set()
        self.units = 0
        self.repeats = 0

    def note(self, key) -> None:
        self.units += 1
        self.repeats += key in self.seen
        self.seen.add(key)

    def repeat_share(self) -> float:
        return self.repeats / self.units if self.units else 0.0


def _scalar_ok(req: gen.ScalarRequest, value: complex, depth: int,
               acc: Accuracy | None, slack: float = 0.0) -> bool:
    """Value within the error model of its reference; records rel error."""
    z = complex(req.z)
    ref = checks.reference(req.name, z, req.branch)
    tol = checks.tolerance(req.name, z, depth, req.order, req.branch, ref)
    tol += slack * abs(value)
    if not checks.close(value, ref, tol):
        return False
    if acc is not None:
        acc.rel_error.append(checks.scaled_error(value, ref))
    return True


def _probe_chain(tr, name: str, z, depth: int, order: int, branch: int) -> None:
    """Replay the core chain (and branch tower) a scalar request rests on."""
    chain = gen.chain_of(name)
    if name in _DERIVED:
        with tr.span("derived.eval"):
            _DERIVED[name](z, nestrad.EvalConfig(depth, order))
    elif name in _DERIVED_INVERSE:
        with tr.span("derived.eval"):
            _DERIVED_INVERSE[name](z, depth)
    elif name == "exp-limit":
        with tr.span("derived.eval"):
            nestrad.exp_limit(z, 2 ** depth)
    elif name == "log-limit":
        with tr.span("derived.eval"):
            nestrad.log_limit(z, 2 ** depth)
    if chain is None:
        return
    if chain in ("cos", "cosh"):
        x = z - math.pi / 2 if name == "sin-shift" else z
        hyper = chain == "cosh"
        with tr.span("core.config"):
            cfg = nestrad.EvalConfig(depth, order)
        with tr.span("core.chain"):
            (nestrad.nested_cosh if hyper else nestrad.nested_cos)(x, cfg)
        with tr.span("core.replay"):
            with tr.span("core.seed"):
                y = (nestrad.cosh_seed if hyper else nestrad.cos_seed)(x, cfg)
            with tr.span("core.double_step", depth):
                for _ in range(depth):
                    y = nestrad.double_angle_step(y)
        tr.count("core.double_steps", depth)
        return
    hyper = chain == "acosh"
    outer = nestrad.acosh_outer if hyper else nestrad.acos_outer
    with tr.span("core.chain"):
        (nestrad.nested_acosh if hyper else nestrad.nested_acos)(z, depth)
    with tr.span("core.replay"):
        y = z
        with tr.span("core.half_step", depth):
            for _ in range(depth):
                y = nestrad.half_angle_step(y)
        with tr.span("core.outer"):
            outer(y)
    tr.count("core.half_steps", depth)
    if branch:
        _probe_branch(tr, z, branch, depth, hyper)


def _probe_branch(tr, z, branch: int, depth: int, hyper: bool) -> None:
    k = branch if branch >= 0 else -branch - 1
    with tr.span("branches.gray_signs"):
        signs = nestrad.gray_signs(k, depth)
    with tr.span("branches.branch_eval"):
        (nestrad.nested_acosh_branch if hyper else nestrad.nested_acos_branch)(
            z, branch, depth)
    y = z
    with tr.span("core.half_step", depth):
        for s in signs:
            y = nestrad.half_angle_step(y)
            if s < 0:
                y = -y
    with tr.span("core.outer"):
        (nestrad.acosh_outer if hyper else nestrad.acos_outer)(y)
    tr.count("core.half_steps", depth)
    tr.count("branches.sign_flips", sum(1 for s in signs if s < 0))


def _probe_eval(tr, req: gen.ScalarRequest, z) -> None:
    spec = verify.FUNCTIONS[req.name]
    with tr.span("verify.evaluate"):
        value = spec.evaluate(z, req.depth, req.order, req.branch, False)
    with tr.span("verify.oracle"):
        oracle = spec.oracle(z, req.branch)
    with tr.span("verify.make_report"):
        verify.make_report(z, value, oracle, req.depth, req.order, req.branch)


# ------------------------------------------------------------ scalar-mix

class ScalarMix(Repeats):
    name = "scalar-mix"
    kernels = ("float",)  # refspeed kernels most like this work
    warm_blocks = 2
    acc_blocks = 600
    roundoff_blocks = 80

    block = staticmethod(gen.scalar_block)

    @staticmethod
    def kernel_for(req) -> str:
        return "float"

    @staticmethod
    def run(req: gen.ScalarRequest, pause=None):
        z = cli.parse_scalar(req.text)
        r = verify.eval_report(req.name, z, depth=req.depth, seed_order=req.order,
                               branch=req.branch)
        return z, r, cli.fmt_scalar(r.value), cli.fmt_scalar(r.oracle_value)

    @staticmethod
    def run_traced(req: gen.ScalarRequest, tr):
        with tr.span("cli.parse_scalar"):
            z = cli.parse_scalar(req.text)
        with tr.span("verify.eval_report"):
            r = verify.eval_report(req.name, z, depth=req.depth,
                                   seed_order=req.order, branch=req.branch)
        with tr.span("cli.fmt_scalar"):
            v = cli.fmt_scalar(r.value)
        with tr.span("cli.fmt_scalar"):
            o = cli.fmt_scalar(r.oracle_value)
        return z, r, v, o

    @staticmethod
    def probe(req: gen.ScalarRequest, out, tr) -> None:
        z = out[0]
        _probe_eval(tr, req, z)
        _probe_chain(tr, req.name, z, req.depth, req.order, req.branch)

    def check(self, req: gen.ScalarRequest, out, acc: Accuracy | None) -> bool:
        z, r, v_text, o_text = out
        if acc is not None:
            self.note(hash((req.name, req.text, req.depth, req.order, req.branch)))
        if complex(z) != complex(req.z):
            return False
        value = complex(r.value)
        ref = checks.reference(req.name, complex(req.z), req.branch)
        if abs(complex(r.oracle_value) - ref) > 1e-9 * checks.scale(ref):
            return False
        if not (checks.text_roundtrip_ok(parse_out(v_text), value)
                and checks.text_roundtrip_ok(parse_out(o_text), r.oracle_value)):
            return False
        if not _scalar_ok(req, value, req.depth, acc):
            return False
        if acc is not None and acc.roundoff_on and gen.chain_of(req.name) == req.name:
            acc.roundoff.append(checks.scaled_error(value, _same_depth(req)))
        return True


def _same_depth(req: gen.ScalarRequest) -> complex:
    if req.name in ("cos", "cosh"):
        return checks.mp_forward(req.z, req.depth, req.order, req.name == "cosh")
    return checks.mp_tower(req.z, req.depth, req.branch, req.name == "acosh")


# ----------------------------------------------------------- cli-session

class CliSession(Repeats):
    """In-process ``cli.main(argv)`` calls with stdout captured."""

    name = "cli-session"
    kernels = ("argparse", "float")
    warm_blocks = 1
    acc_blocks = 1  # every block has the same sweeps
    roundoff_blocks = 1

    def __init__(self) -> None:
        super().__init__()
        self.sweep_max_k: dict[int, int] = {}  # depth -> largest k computed

    block = staticmethod(gen.cli_block)

    @staticmethod
    def kernel_for(req: gen.CliRequest) -> str:
        # Sweeps are float towers and formatting; the rest is argparse.
        return "float" if req.kind == "sweep" else "argparse"

    @staticmethod
    def run(req: gen.CliRequest, pause=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def run_traced(req: gen.CliRequest, tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span("cli.main"):
                code = cli.main(list(req.argv))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def probe(req: gen.CliRequest, out, tr) -> None:
        with tr.span("cli.build_parser"):
            parser = cli.build_parser()
        with tr.span("cli.parse_args"):
            args = parser.parse_args(list(req.argv))
        kind = req.kind
        if kind == "sweep":
            _probe_sweep(tr, args.kmax, args.depth)
        elif kind in ("table1", "table2"):
            fn = verify.reproduce_table1 if kind == "table1" else verify.reproduce_table2
            with tr.span("verify.table"):
                fn(args.depth)
        elif kind == "converge":
            with tr.span("cli.parse_scalar"):
                z = cli.parse_scalar(args.arg)
            lo, hi = (int(p) for p in args.depths.split(".."))
            with tr.span("verify.converge"):
                verify.converge(args.fn, z, list(range(lo, hi + 1)), args.seed_order)
        elif kind == "eval":
            with tr.span("cli.parse_scalar"):
                z = cli.parse_scalar(args.arg)
            _probe_eval(tr, req.scalar, z)
            r = verify.eval_report(args.fn, z, depth=args.depth,
                                   seed_order=args.seed_order, branch=args.branch)
            with tr.span("cli.fmt_scalar"):
                cli.fmt_scalar(r.value)
            with tr.span("cli.fmt_scalar"):
                cli.fmt_scalar(r.oracle_value)
        elif kind == "signs":
            with tr.span("branches.gray_signs"):
                nestrad.gray_signs(args.branch, args.width)
        elif kind == "expand":
            with tr.span("expand.expand"):
                nestrad.expand_nested_cos(args.depth, "hyperbolic" if args.hyperbolic
                                          else "circular")

    def check(self, req: gen.CliRequest, out, acc: Accuracy | None) -> bool:
        code, text, err = out
        if code != 0 or err:
            return False
        lines = text.splitlines()
        argv = req.argv
        opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1)
               if argv[i].startswith("--") and not argv[i + 1].startswith("--")}
        kind = req.kind
        if kind != "sweep":
            self.note(argv)
        if kind == "sweep":
            return self._check_sweep(int(opt["--kmax"]), int(opt["--depth"]),
                                     lines, acc)
        if kind == "eval":
            return self._check_eval(req, lines)
        if kind == "signs":
            want = checks.signs_text(int(opt["--branch"]), int(opt["--width"]),
                                     "--inner-first" in argv)
            return lines == [want]
        if kind == "converge":
            return self._check_converge(req, lines)
        if kind == "table1":
            return self._check_table1(int(opt["--depth"]), lines)
        if kind == "table2":
            return self._check_table2(int(opt["--depth"]), lines)
        if kind == "expand":
            variant = "hyperbolic" if "--hyperbolic" in argv else "circular"
            return lines == expand_text(int(opt["--depth"]), variant).splitlines()
        return False

    def _check_sweep(self, kmax: int, depth: int, lines: list[str],
                     acc: Accuracy | None) -> bool:
        prior = self.sweep_max_k.get(depth, -1)
        self.units += kmax + 1
        self.repeats += min(prior, kmax) + 1
        self.sweep_max_k[depth] = max(prior, kmax)
        if lines[0] != "k,extracted,abs_dev" or len(lines) != kmax + 2:
            return False
        worst = 0.0
        rows = []
        for k, line in enumerate(lines[1:]):
            ks, es, ds = line.split(",")
            extracted, dev = float(es), float(ds)
            if int(ks) != k or round(extracted) != k:
                return False
            if abs(dev - abs(extracted - k)) > 1e-12 * max(1.0, k):
                return False
            worst = max(worst, dev)
            rows.append(extracted)
        if acc is not None:
            acc.branch_dev_max = max(acc.branch_dev_max, worst)
            # Branch value (2k+1)pi/2 against max(|value|, 1), as eval reports.
            acc.rel_error += [math.pi * abs(e - k) / max((2 * k + 1) * math.pi / 2, 1.0)
                              for k, e in enumerate(rows)]
        if acc is not None and acc.roundoff_on:
            rng = random.Random(f"sweep-sample:{kmax}:{depth}")
            for k in rng.sample(range(kmax + 1), 32):
                ref = checks.mp_tower(0.0, depth, k, False).real / math.pi - 0.5
                # rows[k] carries 15 significant digits: far below the
                # roundoff of a depth >= 16 tower.
                acc.roundoff.append(checks.scaled_error(rows[k], ref))
        return True

    @staticmethod
    def _check_eval(req: gen.CliRequest, lines: list[str]) -> bool:
        s = req.scalar
        if "--json" in req.argv:
            if len(lines) != 1:
                return False
            doc = json.loads(lines[0])
            value, oracle = parse_out(doc["value"]), parse_out(doc["oracle"])
            if (doc["depth"], doc["seed_order"], doc["branch"]) != (s.depth, s.order,
                                                                    s.branch):
                return False
        else:
            if len(lines) != 4 or not lines[0].startswith("value "):
                return False
            value = parse_out(lines[0].split(" ", 1)[1])
            oracle = parse_out(lines[1].split(" ", 1)[1])
        ref = checks.reference(s.name, complex(s.z), s.branch)
        if abs(oracle - ref) > 1e-9 * checks.scale(ref):
            return False
        return _scalar_ok(s, value, s.depth, None, slack=1e-14)

    @staticmethod
    def _check_converge(req: gen.CliRequest, lines: list[str]) -> bool:
        s = req.scalar
        lo, hi = (int(p) for p in req.argv[4].split(".."))
        if lines[0] != "depth,value,abs_error,error_ratio" or len(lines) != hi - lo + 2:
            return False
        for depth, line in zip(range(lo, hi + 1), lines[1:]):
            d, value, _err, _ratio = line.split(",")
            if int(d) != depth or not _scalar_ok(s, parse_out(value), depth, None,
                                                 slack=1e-14):
                return False
        return True

    @staticmethod
    def _branch_row_ok(value: float, y: float, k: int, depth: int,
                       unit: float) -> bool:
        ref = checks.branch_acos(y, k).real
        tol = checks.tolerance("acos", y, depth, 2, k or 1, ref) / unit
        return abs(value - ref / unit) <= tol + 1e-14 * abs(value)

    def _check_table1(self, depth: int, lines: list[str]) -> bool:
        if len(lines) != 9 or lines[0].split() != ["signs", "value", "limit"]:
            return False
        for k, line in enumerate(lines[1:]):
            pattern, value, limit = line.split()
            want = "".join("+" if s > 0 else "-"
                           for s in reversed(checks.gray_signs(k, depth)[:4]))
            if pattern != want or limit != (f"{2 * k + 1}pi/2" if k else "pi/2"):
                return False
            if not self._branch_row_ok(float(value), 0.0, k, depth, 1.0):
                return False
        return True

    def _check_table2(self, depth: int, lines: list[str]) -> bool:
        if len(lines) != 12 or lines[0].split() != ["k", "acos(1)/pi", "acos(-1)/pi"]:
            return False
        for k, line in enumerate(lines[1:]):
            ks, plus, minus = line.split()
            if int(ks) != k:
                return False
            for y, text in ((1.0, plus), (-1.0, minus)):
                if not self._branch_row_ok(float(text), y, k, depth, math.pi):
                    return False
        return True


def _probe_sweep(tr, kmax: int, depth: int) -> None:
    rows = []
    it = verify.sweep_branches(kmax, 1, depth)
    for _ in range(kmax + 1):
        with tr.span("verify.sweep_row"):
            rows.append(next(it))
    with tr.span("cli.format_rows", len(rows)):
        for k, extracted, dev in rows:
            f"{k},{cli.fmt_real(extracted)},{cli.fmt_real(dev)}"
    tr.count("cli.rows", len(rows))
    for k in range(0, kmax + 1, max(1, (kmax + 1) // 32)):
        _probe_branch(tr, 0.0, k, depth, False)


# ---------------------------------------------------------- exact-expand

_EXPAND_TEXT: dict[tuple[int, str], str] = {}


def expand_text(depth: int, variant: str) -> str:
    """What ``nestrad expand`` prints, built from the closed form."""
    key = (depth, variant)
    if key not in _EXPAND_TEXT:
        _EXPAND_TEXT[key] = format_coeffs(checks.closed_form_coeffs(depth, variant))
    return _EXPAND_TEXT[key]


def format_coeffs(coeffs) -> str:
    """The rows ``nestrad expand`` prints for these coefficients."""
    return "\n".join(["j,coefficient"] + [f"{j},{c}" for j, c in enumerate(coeffs)]) + "\n"


class ExactExpand(Repeats):
    name = "exact-expand"
    kernels = ("fraction", "bigint")
    warm_blocks = 0
    acc_blocks = 4
    roundoff_blocks = 4

    block = staticmethod(gen.expand_block)

    @staticmethod
    def kernel_for(req: gen.ExpandRequest) -> str:
        # From depth 7 the coefficients pass 1000 bits and big-integer
        # products and gcds take the time; below, Fraction's Python code.
        return "bigint" if req.depth >= 7 else "fraction"

    @staticmethod
    def run(req: gen.ExpandRequest, pause=lambda: None):
        # Requests take up to seconds: pause() between the calls lets the
        # loop time the reference kernel there (see refspeed).
        poly = nestrad.expand_nested_cos(req.depth, req.variant)
        text = format_coeffs(poly.coeffs)
        pause()
        profile = nestrad.maclaurin_error_profile(req.depth, req.max_j)
        pause()
        values = [poly.evaluate(x) for x in req.xs]
        return poly, text, profile, values

    @staticmethod
    def run_traced(req: gen.ExpandRequest, tr):
        with tr.span("expand.expand"):
            poly = nestrad.expand_nested_cos(req.depth, req.variant)
        text = format_coeffs(poly.coeffs)
        with tr.span("expand.profile"):
            profile = nestrad.maclaurin_error_profile(req.depth, req.max_j)
        with tr.span("expand.poly_eval", len(req.xs)):
            values = [poly.evaluate(x) for x in req.xs]
        tr.count("expand.coeffs", len(poly.coeffs))
        tr.count("expand.coeff_bits", sum(c.numerator.bit_length()
                                          + c.denominator.bit_length()
                                          for c in poly.coeffs))
        return poly, text, profile, values

    @staticmethod
    def probe(req, out, tr) -> None:
        pass

    def check(self, req: gen.ExpandRequest, out, acc: Accuracy | None) -> bool:
        poly, text, profile, values = out
        # The profile expands the circular chain again: two expansions.
        self.note((req.depth, req.variant))
        self.note((req.depth, "circular"))
        coeffs = checks.closed_form_coeffs(req.depth, req.variant)
        if tuple(poly.coeffs) != coeffs or text != expand_text(req.depth, req.variant):
            return False
        circular = checks.closed_form_coeffs(req.depth, "circular")
        if list(profile) != checks.profile_reference(circular, req.max_j):
            return False
        fn = math.cosh if req.variant == "hyperbolic" else math.cos
        for x, v in zip(req.xs, values):
            same = checks.mp_poly_value(x, req.depth, req.variant)
            if not (math.isfinite(v)
                    and abs(v - same) <= checks.horner_tolerance(coeffs, x)):
                return False
            if acc is not None:
                acc.rel_error.append(checks.scaled_error(v, fn(x)))
                acc.roundoff.append(checks.scaled_error(v, same))
        return True


WORKLOADS = {w.name: w for w in (ScalarMix, CliSession, ExactExpand)}
