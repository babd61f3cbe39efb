"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nestrad import FUNCTIONS  # noqa: E402
from nestrad.cli import parse_scalar  # noqa: E402


def _blocks(name: str, seed: int, n: int = 3) -> list:
    wl = workloads.WORKLOADS[name]
    return [wl.block(seed, i) for i in range(-1, n)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    assert _blocks(name, 7) == _blocks(name, 7)
    assert _blocks(name, 7) != _blocks(name, 8)


def test_generator_covers_every_function():
    assert set(gen.FUNCTION_NAMES) == set(FUNCTIONS)
    names = {r.name for r in gen.scalar_block(1, 0)}
    assert names == set(FUNCTIONS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scalar_requests_are_valid(seed):
    for block in _blocks("scalar-mix", seed, 20):
        for r in block:
            assert 4 <= r.depth <= 30 and 1 <= r.order <= 4
            assert complex(parse_scalar(r.text)) == complex(r.z)
            if r.branch:
                assert r.name in ("acos", "acosh")
                assert abs(r.branch) < 2 ** (r.depth - 1)
                assert -1.0 <= r.z <= 1.0
            elif isinstance(r.z, complex):
                assert abs(r.z.real) <= 3 and 0.05 <= abs(r.z.imag) <= 3
                assert checks.complex_arg_valid(r.name, r.z)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_requests_are_valid(seed):
    for block in _blocks("cli-session", seed, 5):
        assert sum(r.kind == "sweep" for r in block) / len(block) == 0.15
        for r in block:
            opt = dict(zip(r.argv[1::2], r.argv[2::2]))
            if r.kind == "sweep":
                kmax, depth = int(opt["--kmax"]), int(opt["--depth"])
                assert 1000 <= kmax < 2 ** 14 <= 2 ** (depth - 1)
                assert gen.sweep_min_depth(kmax) <= depth <= 25
            elif r.kind == "signs":
                assert 0 <= int(r.argv[2]) < 2 ** (int(r.argv[4]) - 1)
            elif r.kind == "expand":
                assert 1 <= int(r.argv[2]) <= 6
            elif r.kind in ("eval", "converge"):
                assert r.scalar is not None and r.argv[1] == r.scalar.name


def test_sweep_min_depth_is_where_extraction_holds():
    # At the seed, kmax 1857 at depth 15 rounds branch 1093 to 1092.
    assert gen.sweep_min_depth(1857) > 15
    assert gen.sweep_min_depth(16383) <= 25


def test_closed_form_matches_convolution():
    for depth in range(1, 6):
        for variant in ("circular", "hyperbolic"):
            s = Fraction(1 if variant == "hyperbolic" else -1, 2 ** (2 * depth + 1))
            p = [Fraction(1), s]
            for _ in range(depth):
                sq = [sum(p[i] * p[j - i] for i in range(len(p)) if 0 <= j - i < len(p))
                      for j in range(2 * len(p) - 1)]
                p = [2 * c for c in sq]
                p[0] -= 1
            assert tuple(p) == checks.closed_form_coeffs(depth, variant)


def test_gray_code_reference():
    assert checks.signs_text(0, 4, False) == "++++"
    assert checks.signs_text(1, 4, True) == "-+++"
    assert checks.signs_text(2, 4, True) == "--++"  # g(2) = 3
    for k in range(64):
        a, b = checks.gray_signs(k, 8), checks.gray_signs(k + 1, 8)
        assert sum(x != y for x, y in zip(a, b)) == 1


# -------------------------------------------------- checkers reject errors

def _scalar_case():
    req = gen.ScalarRequest("cos", "0.75", 0.75, 10, 2, 0)
    return req, workloads.ScalarMix.run(req)


def test_scalar_check_accepts_and_rejects():
    wl = workloads.ScalarMix()
    req, out = _scalar_case()
    assert wl.check(req, out, None)
    z, r, v, o = out
    bad = replace(r, value=r.value * (1 + 1e-4))
    assert not wl.check(req, (z, bad, v, o), None)
    assert not wl.check(req, (z, r, v[:-3] + "999", o), None)
    assert not wl.check(req, (z, replace(r, value=math.nan), v, o), None)
    assert not wl.check(req, (z, replace(r, oracle_value=r.oracle_value + 1e-6), v, o),
                        None)


def test_tolerance_rejects_wrong_branch():
    ref = checks.reference("acos", 0.3, 5)
    tol = checks.tolerance("acos", 0.3, 20, 2, 5, ref)
    assert tol < math.pi / 2
    assert abs(checks.branch_acos(0.3, 4) - ref) > tol


def _cli_case(argv, kind):
    req = gen.CliRequest(tuple(argv), kind)
    return req, workloads.CliSession.run(req)


def test_sweep_check_rejects_wrong_row():
    wl = workloads.CliSession()
    req, (code, text, err) = _cli_case(["sweep", "--kmax", "1000", "--depth", "16"],
                                       "sweep")
    assert wl.check(req, (code, text, err), workloads.Accuracy())
    lines = text.splitlines()
    lines[500] = "499,499.6,0.6"
    assert not wl.check(req, (code, "\n".join(lines), err), None)
    assert not wl.check(req, (1, text, err), None)


def test_signs_check_rejects_wrong_pattern():
    wl = workloads.CliSession()
    req, (code, text, err) = _cli_case(["signs", "--branch", "5", "--width", "6"],
                                       "signs")
    assert wl.check(req, (code, text, err), None)
    flipped = text.replace("+", "x", 1).replace("-", "+", 1).replace("x", "-")
    assert not wl.check(req, (code, flipped, err), None)


@pytest.mark.parametrize("argv,kind,sep,field", [
    (["table1", "--depth", "12"], "table1", None, 1),
    (["table2", "--depth", "12"], "table2", None, 2),
    (["expand", "--depth", "3", "--hyperbolic"], "expand", ",", 1),
])
def test_cli_checks_reject_perturbed_number(argv, kind, sep, field):
    wl = workloads.CliSession()
    req, (code, text, err) = _cli_case(argv, kind)
    assert wl.check(req, (code, text, err), None)
    lines = text.splitlines()
    parts = lines[3].split(sep)
    number = Fraction(parts[field])
    parts[field] = str(number + 1 if kind == "expand" else float(number) * (1 + 1e-3))
    lines[3] = (sep or "  ").join(parts)
    assert not wl.check(req, (code, "\n".join(lines), err), None)


def test_cli_eval_check_rejects_perturbed_value():
    s = gen.ScalarRequest("sinh", "-0.5", -0.5, 12, 3, 0)
    argv = ("eval", s.name, s.text, "--depth", "12", "--seed-order", "3")
    req = gen.CliRequest(argv, "eval", s)
    wl = workloads.CliSession()
    code, text, err = wl.run(req)
    assert wl.check(req, (code, text, err), None)
    value = text.splitlines()[0].split()[1]
    wrong = f"{float(value) * (1 + 1e-5):.15g}"
    assert not wl.check(req, (code, text.replace(value, wrong, 1), err), None)


def test_expand_check_rejects_wrong_coefficient_and_value():
    wl = workloads.ExactExpand()
    req = gen.ExpandRequest(4, "circular", 5, (0.3, 0.9))
    poly, text, profile, values = wl.run(req)
    assert wl.check(req, (poly, text, profile, values), workloads.Accuracy())
    coeffs = list(poly.coeffs)
    coeffs[3] += Fraction(1, 10 ** 30)
    bad = type(poly)(tuple(coeffs))
    assert not wl.check(req, (bad, text, profile, values), None)
    assert not wl.check(req, (poly, text, profile, [values[0] * (1 + 1e-12), values[1]]),
                        None)
    profile = list(profile)
    profile[-1] += 1
    assert not wl.check(req, (poly, text, profile, values), None)


# ------------------------------------------------------------- self time

def test_self_time_of_hand_built_tree():
    S = spans
    tree = [
        ["request", 0.0, 10.0, -1, 0, 1, False],
        ["a", 1.0, 4.0, 0, 0, 1, False],        # child of request
        ["a.1", 2.0, 3.0, 1, 0, 1, False],      # child of a
        ["b", 3.5, 6.0, 0, 0, 1, False],        # overlaps a by 0.5
        ["c", 9.0, 12.0, 0, 0, 1, False],       # runs past its parent
    ]
    got = S.self_times(tree)
    # request: 10 - union([1,4], [3.5,6], [9,10]) = 10 - (5 + 1) = 4
    assert got == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_span_cost_correction():
    tr = spans.Tracer(calibrate=False)
    tr.inside, tr.outside = 0.1, 0.2
    tr.begin_request()
    tr.spans = [
        ["core.chain", 0.0, 5.0, -1, 0, 1, False],
        ["core.replay", 5.0, 9.0, -1, 0, 1, False],
        ["core.seed", 5.5, 6.5, 1, 0, 1, False],
        ["core.double_step", 7.0, 8.0, 1, 0, 4, False],
    ]
    tr.end_request()
    assert tr.totals["core.chain"][0] == pytest.approx(4.9)
    # replay: 4 - 2 (children) - 0.1 (own) - 2 * 0.2 (children's outer cost)
    assert tr.totals["core.replay"][0] == pytest.approx(1.5)
    assert tr.per_call("core.double_step", 1.0) == pytest.approx(0.9 / 4)
    assert tr.durations["core.replay"] == pytest.approx(1.5 + 0.9 + 0.9)


def test_tracer_totals_per_call():
    tr = spans.Tracer(keep=4, calibrate=False)
    for _ in range(2):
        tr.begin_request()
        with tr.span("request"):
            with tr.span("core.double_step", 4):
                pass
            with pytest.raises(ValueError):
                with tr.span("verify.oracle"):
                    raise ValueError
        tr.end_request()
    assert tr.calls("core.double_step") == 8
    assert tr.errors("verify") == 2 and tr.errors("core") == 0
    assert len(tr.kept) == 3


def test_stopwatch_scales_by_median_of_nearby_references():
    w = run.Stopwatch.__new__(run.Stopwatch)
    nominal = run.refspeed.NOMINAL_S
    w.refs = [({"float": nominal["float"] * f, "argparse": nominal["argparse"]}, t)
              for f, t in ((1, 0.0), (2, 1.0), (4, 9.0), (3, 9.5))]
    w.requests = [("float", [(0.5, 0, 0.98)]),                # timings 0..3: median 2.5
                  ("float", [(0.2, 3, 9.6), (0.3, 3, 9.7)]),  # 1..3, none after: 3
                  ("argparse", [(0.5, 1, 1.5)])]              # its own kernel: 1
    w._reference = lambda force=False: None
    got = w.times()
    assert got[0] == pytest.approx((0.5, 0.5 / 2.5))
    assert got[1] == pytest.approx((0.5, 0.5 / 3))
    assert got[2] == pytest.approx((0.5, 0.5))


def test_tail_needs_ten_samples_beyond():
    xs = [float(i) for i in range(1000)]
    assert run.tail(xs) == (99.0, pytest.approx(989.0))  # mean of xs[987:992]
    assert run.tail(xs[:999])[0] == 98.0
    assert run.tail(xs[:200])[0] == 95.0
    assert run.tail(xs[:40])[0] == 75.0
    assert run.tail(xs[:36])[0] == 50.0
    assert run.percentile(xs, 50.0) == 499.0 and run.percentile(xs, 99.0) == 989.0
    assert run.middle(xs) == pytest.approx(499.5)
    assert run.middle([1.0, 2.0]) == 1.0 and run.middle([3.0]) == 3.0


# --------------------------------------------------- contract with the file

def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_emits():
    spec = _spec()
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    acc = workloads.Accuracy()
    acc.rel_error, acc.roundoff = [1e-6], [1e-9]
    lat = run.Latencies(0)
    lat.add(1e-3)
    e2e, _ = run.end_to_end(lat, acc, 0.03)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: u for k, (_, u) in e2e.items()}
    tr = spans.Tracer()
    layer = run.per_layer(tr, lat, lat, workloads.ScalarMix(), acc)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: u for k, (_, u) in layer.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "scalar-mix", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
