"""Command line: scalar parsing, formatting, frozen outputs, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import nestrad
from nestrad import extract_branch, nested_acos_branch, sweep_branches
from nestrad import cli
from nestrad.cli import _parse_depths, fmt_real, fmt_scalar, main, parse_scalar
from nestrad.core import _BATCH, _gray_tree

from bitwise import assert_bitwise_equal
from test_cli_golden import SWEEP_16K_SHA256


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse-level rejections
        code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text,expected", [
    ("2", 2.0),
    ("-0.5", -0.5),
    ("1e-3", 0.001),
    ("2i", 2j),
    ("-i", -1j),
    ("+i", 1j),
    ("i", 1j),
    ("2+3i", 2 + 3j),
    ("2-3i", 2 - 3j),
    ("-2+3i", -2 + 3j),
    ("1.5e2-2.5e-1i", 150 - 0.25j),
    ("3.i", 3j),
])
def test_parse_scalar_forms(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text,expected", [
    ("-i", "-1j"), ("1+i", "(1+1j)"), ("-2-i", "(-2-1j)"), ("-0i", "-0j"),
    ("0-0i", "-0j"), ("-0-0i", "(-0-0j)"), ("-0+.5i", "(-0+0.5j)"),
])
def test_parse_scalar_keeps_signed_zeros_and_unit_parts(text, expected):
    # A bare sign is a unit imaginary part, and each part keeps the sign of
    # its text, zeros included.
    assert repr(parse_scalar(text)) == expected


@pytest.mark.parametrize("text", [
    "", "abc", "1+1", "2 + 3i", "i2", "2j", "--3", "1e", "nan", "inf",
    # float() takes the first three; the grammar takes none of them.
    "1_000", "Infinity", "+nan", "1_0i",
])
def test_parse_scalar_rejects(text):
    with pytest.raises(ValueError, match="could not parse"):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["1e400", "-1e999", "1e400i", "2+1e400i",
                                  "1e400-2i", "-1e309i"])
def test_parse_scalar_rejects_overflowing_literals(text):
    # float() rounds these to inf; no evaluator takes inf as input.
    with pytest.raises(ValueError, match=f"number '{re.escape(text)}' is too large"):
        parse_scalar(text)


@pytest.mark.parametrize("text,expected", [
    ("1e-400", 0.0), ("-1e-400", -0.0), ("1e-400i", 0j), ("2+1e-400i", 2 + 0j),
])
def test_parse_scalar_accepts_underflow_to_zero(text, expected):
    assert repr(parse_scalar(text)) == repr(expected)


def test_format_real():
    assert fmt_real(0.0) == "0"
    assert fmt_real(-0.0) == "0"
    assert fmt_real(2.5) == "2.5"
    assert fmt_real(1.5707961728055384) == "1.57079617280554"


def test_format_scalar():
    assert fmt_scalar(complex(0.0, 1.316956719106592)) == "1.31695671910659i"
    assert fmt_scalar(complex(1.000533856110922, -1.982613299971578)) == \
        "1.00053385611092-1.98261329997158i"
    assert fmt_scalar(complex(2.5, 0.0)) == "2.5"
    assert fmt_scalar(complex(0.0, -0.0)) == "0"
    assert fmt_scalar(complex(-0.0, 2.0)) == "2i"
    assert fmt_scalar(-0.0) == "0"


def test_eval_json_output():
    code, out, err = run_cli(["eval", "acos", "0", "--json"])
    assert code == 0
    assert out == (
        '{"input": "0", "value": "1.57079617278506", '
        '"oracle": "1.5707963267949", "abs_error": 1.54009837771696e-07, '
        '"rel_error": 9.80457078645851e-08, "depth": 10, "seed_order": 2, '
        '"branch": 0}\n'
    )
    data = json.loads(out)
    assert data["depth"] == 10 and data["branch"] == 0
    assert isinstance(data["abs_error"], float)


def test_only_eval_json_loads_json():
    # Importing the CLI and building its parser leave json unloaded: only
    # eval --json reads it, and other one-shot calls skip its import.
    src = os.path.dirname(os.path.dirname(nestrad.__file__))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import nestrad.cli\n"
            "nestrad.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    added = out.stdout.split()
    assert "nestrad.cli" in added and "json" not in added


def test_eval_forward_with_options():
    code, out, _ = run_cli(["eval", "cos", "1.0471975511965976",
                            "--depth", "4", "--seed-order", "4"])
    assert code == 0
    assert out == (
        "value 0.499999999998231\n"
        "oracle 0.5\n"
        "abs_error 1.76925141204265e-12\n"
        "rel_error 1.76925141204265e-12\n"
    )


def test_eval_negative_complex_argument():
    # A leading minus on the positional argument must not be mistaken for
    # an option flag.
    code, out, _ = run_cli(["eval", "acos", "-2+3i"])
    assert code == 0
    assert out == (
        "value 2.14144972512267-1.98338625569273i\n"
        "oracle 2.141449111116-1.98338702991654i\n"
        "abs_error 9.88143050916304e-07\n"
        "rel_error 3.38539613760266e-07\n"
    )


def test_eval_acos_far_below_minus_one():
    # The log-formula oracle raised "math domain error" here (exit 2).
    code, out, err = run_cli(["eval", "acos", "-1e10"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "oracle 3.14159265358979-23.7189981105004i"


def test_eval_acos_far_off_the_real_line():
    # The log-formula oracle raised "math domain error" here (exit 2).
    for argv in (["eval", "acos", "1e10+1i"],
                 ["eval", "acosh", "1e10+1i", "--branch", "1"]):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("value "), argv


def test_eval_branch_output():
    code, out, _ = run_cli(["eval", "acos", "0", "--branch", "3"])
    assert code == 0
    assert out == (
        "value 10.9955214622645\n"
        "oracle 10.9955742875643\n"
        "abs_error 5.28252997646916e-05\n"
        "rel_error 4.80423290163532e-06\n"
    )


def test_eval_acosh_branch_output():
    code, out, _ = run_cli(["eval", "acosh", "0.5", "--branch", "2"])
    assert code == 0
    assert out == (
        "value 7.33036720642298i\n"
        "oracle 7.33038285837618i\n"
        "abs_error 1.56519532037436e-05\n"
        "rel_error 2.1352163326447e-06\n"
    )


def test_eval_limit_route():
    code, out, _ = run_cli(["eval", "exp-limit", "1", "--depth", "20"])
    assert code == 0
    assert out.startswith("value 2.71828053227566\noracle 2.71828182845905\n")


def test_eval_exact_hit_prints_zero_errors():
    code, out, _ = run_cli(["eval", "sin-shift", "1.5707963267948966"])
    assert code == 0
    assert out == "value 1\noracle 1\nabs_error 0\nrel_error 0\n"


def test_converge_csv():
    code, out, _ = run_cli(["converge", "cos", "1.0471975511965976",
                            "--depths", "4..6"])
    assert code == 0
    assert out == (
        "depth,value,abs_error,error_ratio\n"
        "4,0.499838043607129,0.000161956392870977,0\n"
        "5,0.499959527179173,4.04728208274197e-05,4.00160872308791\n"
        "6,0.499989882811501,1.01171884990814e-05,4.00040197245455\n"
    )


def test_sweep_csv():
    code, out, _ = run_cli(["sweep", "--kmax", "3"])
    assert code == 0
    assert out == (
        "k,extracted,abs_dev\n"
        "0,-4.9022853942926e-08,4.9022853942926e-08\n"
        "1,0.999998676383256,1.32361674443082e-06\n"
        "2,1.99999387214759,6.12785241438374e-06\n"
        "3,2.99998318518484,1.68148151558078e-05\n"
    )


@pytest.mark.parametrize("kmax, step, depth", [
    (1, 1, 2), (40, 1, 12),
    # Steps 3 and 7: a chunk spans more than 4096 indices, so Gray bits
    # above the tree differ between its lanes.
    (9000, 3, 20), (13000, 3, 20), (20000, 7, 17),
    # One full chunk climbing 13 levels: three fused runs of four and a
    # single level.  Then one and two full chunks, each and a lone branch.
    (4095, 1, 25), (4096, 1, 14), (8192, 1, 15),
    # Four chunks whose Gray bits 12 and 13 differ from chunk to chunk.
    (16383, 1, 22), (16383, 1, 30),
    # The shallowest sweeps over their trees: k_max < 2**(depth-1) keeps
    # the depth at least one level above the tree.
    (2047, 1, 12), (4095, 1, 13),
    # The deepest sweep: its closing values reach 2**1023 * sqrt(2) and
    # "%.15g" must still read as fmt_real.
    pytest.param(2 ** 1022 - 1, 2 ** 1020, 1023, id="2**1022-1-2**1020-1023"),
])
def test_sweep_text_is_fmt_real_of_the_rows(kmax, step, depth):
    # The sweep shares one Gray tree between its chunks and climbs each
    # chunk from its leaves; every row must be the per-branch tower's.  The
    # CLI formats the rows with "%.15g" in place of fmt_real.
    code, out, err = run_cli(["sweep", "--kmax", str(kmax), "--step", str(step),
                              "--depth", str(depth)])
    assert (code, err) == (0, "")
    rows = list(sweep_branches(kmax, step, depth))
    want = []
    for k in range(0, kmax + 1, step):
        extracted = extract_branch(nested_acos_branch(0.0, k, depth))
        want.append((k, extracted, abs(extracted - k)))
    assert_bitwise_equal(rows, want)
    assert_bitwise_equal(out.splitlines(keepends=True), ["k,extracted,abs_dev\n"]
                         + [f"{k},{fmt_real(e)},{fmt_real(d)}\n" for k, e, d in rows])


SPLIT_SWEEPS = [
    # Four full chunks at depth 25.
    ("16383", "1", "25"),
    # 20,001 and 9,001 rows at their shallowest depths: the last chunk is
    # short.
    ("20000", "1", "16"), ("9000", "1", "15"),
    # Step 3: 10,001 rows in three chunks, each spanning 12,288 indices.
    ("30000", "3", "16"),
]


@pytest.mark.parametrize("cpus", [2, 3, 5])
@pytest.mark.parametrize("kmax, step, depth", SPLIT_SWEEPS)
def test_sweep_on_several_cpus_is_byte_identical(monkeypatch, cpus, kmax, step, depth):
    # The CLI prints the rows of its one sweep_branches call in chunks of
    # 4096; however many CPUs are usable, it forks nothing and the chunks
    # together print the rows of that call.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forks = []

    def fork():
        forks.append(None)
        raise OSError("fork is not expected")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    code, out, err = run_cli(["sweep", "--kmax", kmax, "--step", step,
                              "--depth", depth])
    assert forks == []
    assert (code, err) == (0, "")
    rows = sweep_branches(int(kmax), int(step), int(depth))
    assert_bitwise_equal(out.splitlines(keepends=True), ["k,extracted,abs_dev\n"]
                         + [f"{k},{fmt_real(e)},{fmt_real(d)}\n" for k, e, d in rows])


def test_sweep_never_forks(monkeypatch):
    # The sweep runs in the calling process: a host without fork, or one
    # where fork fails, prints the same bytes.
    def fork():
        raise OSError("fork is not available")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    code, out, err = run_cli(["sweep", "--kmax", "16383", "--depth", "25"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_16K_SHA256


def test_sweep_chunks_share_one_gray_tree():
    # The four chunks of this sweep come from one sweep_branches call and
    # climb from one Gray tree, built once.
    _gray_tree.cache_clear()
    assert run_cli(["sweep", "--kmax", "16383", "--depth", "25"])[0] == 0
    assert _gray_tree.cache_info().misses == 1


def test_a_sweep_chunk_is_one_batch():
    # The CLI's chunk and core's batch are one size, so each chunk's rows
    # climb as one batch from one Gray tree, never split across two.
    assert cli._CHUNK_ROWS == _BATCH


def _src_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nestrad.__file__)))


# A sweep of four chunks and a call whose output fits one buffer.
CLOSED_STDOUT_CALLS = [["sweep", "--kmax", "16383", "--depth", "25"],
                       ["eval", "cos", "0.5"]]


def _closed_pipe():
    # A pipe whose reader is gone: the first write to w raises EPIPE.
    r, w = os.pipe()
    os.close(r)
    return w


@pytest.mark.parametrize("argv", CLOSED_STDOUT_CALLS)
def test_closed_stdout_exits_1_quietly(argv):
    # As with "| head -0": no traceback, no "Exception ignored" line, and
    # no process left in the command's process group.
    w = _closed_pipe()
    try:
        proc = subprocess.Popen([sys.executable, "-m", "nestrad", *argv],
                                stdout=w, stderr=subprocess.PIPE,
                                env=_src_env(), start_new_session=True)
    finally:
        os.close(w)
    _, err = proc.communicate()
    assert (proc.returncode, err) == (1, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("argv", CLOSED_STDOUT_CALLS)
def test_closed_stdout_in_process(argv):
    # main() returns 1 with nothing on stderr, and stdout's descriptor now
    # writes to devnull: closing it raises nothing.  The devnull descriptor
    # main() opens is closed again: the lowest free descriptor is the same
    # before and after.
    lowest = os.dup(0)
    os.close(lowest)
    stdout, err = open(_closed_pipe(), "w"), io.StringIO()
    with stdout, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue() == ""
    fd = os.dup(0)
    os.close(fd)
    assert fd == lowest


def test_sweep_into_closed_stdout_stays_bounded():
    # The CLI prints a sweep chunk by chunk: writing 2**20 rows into a
    # closed pipe costs one chunk of rows, not a list or a text of them all.
    stdout, err = open(_closed_pipe(), "w"), io.StringIO()
    tracemalloc.start()
    try:
        with stdout, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            assert main(["sweep", "--kmax", "1048575", "--depth", "21"]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.getvalue() == ""
    assert peak < 8 * 2 ** 20


def test_sweep_into_head_1_exits_1_quietly():
    # As with "| head -1": the reader leaves after the header, while the
    # sweep still has rows to write.
    proc = subprocess.Popen(
        [sys.executable, "-m", "nestrad", "sweep", "--kmax", "16383",
         "--depth", "25"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_src_env(), start_new_session=True)
    assert proc.stdout.readline() == b"k,extracted,abs_dev\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_table2_layout():
    code, out, _ = run_cli(["table2"])
    assert code == 0
    assert out == (
        "k   acos(1)/pi          acos(-1)/pi\n"
        "0   0                   0.999999607817203\n"
        "1   1.99999686253873    0.999999607817203\n"
        "2   1.99999686253873    2.99998941107445\n"
        "3   3.9999749003453     2.99998941107445\n"
        "4   3.9999749003453     4.99995097728883\n"
        "5   5.99991528886473    4.99995097728883\n"
        "6   5.99991528886473    6.99986548206038\n"
        "7   7.9997992038964     6.99986548206038\n"
        "8   7.9997992038964     8.99971410143214\n"
        "9   9.99960782177126    8.99971410143214\n"
        "10  9.99960782177126    10.9994780120673\n"
    )


def test_expand_exact_rationals():
    code, out, _ = run_cli(["expand", "--depth", "2"])
    assert code == 0
    assert out == (
        "j,coefficient\n"
        "0,1\n"
        "1,-1/2\n"
        "2,5/128\n"
        "3,-1/1024\n"
        "4,1/131072\n"
    )


def test_expand_hyperbolic():
    code, out, _ = run_cli(["expand", "--depth", "1", "--hyperbolic"])
    assert code == 0
    assert out == "j,coefficient\n0,1\n1,1/2\n2,1/32\n"


def test_expand_makes_its_exact_setup_once():
    # The first expand call of a process makes its imports and its exact
    # decimal context; every later call reuses them.
    for argv in (["expand", "--depth", "2"], ["expand", "--depth", "3", "--hyperbolic"]):
        assert run_cli(argv)[0] == 0
    assert cli._exact.cache_info().misses == 1


def test_signs_inner_first():
    code, out, _ = run_cli(["signs", "--branch", "2", "--width", "4",
                            "--inner-first"])
    assert code == 0
    assert out == "--++\n"


def test_repeated_invocations_are_byte_identical():
    assert run_cli(["table1"]) == run_cli(["table1"])
    assert run_cli(["sweep", "--kmax", "5"]) == run_cli(["sweep", "--kmax", "5"])


@pytest.mark.parametrize("argv,code,fragment", [
    (["eval", "log", "0"], 3, "numeric error: logarithm of zero"),
    (["eval", "atanh", "1"], 3, "numeric error"),
    (["eval", "cos", "1e80", "--depth", "1"], 3, "numeric error"),
    (["eval", "cos", "abc"], 2, "could not parse"),
    (["eval", "acos", "0", "--depth", "1024"], 2,
     "depth 1024 exceeds 1023; 2**depth must stay a float"),
    (["eval", "sin", "1", "--branch", "2"], 2, "branch selection"),
    (["sweep", "--kmax", "600", "--depth", "10"], 2, "k_max"),
    (["converge", "cos", "1", "--depths", "6..4"], 2, "empty depth range"),
    (["table1", "--depth", "5"], 2, "depth >= 10"),
    (["table2", "--depth", "0"], 2, "positive integer"),
    (["expand", "--depth", "13"], 2, "1..12"),
    (["eval", "atan", "1e300+1e300i", "--json"], 3, "has no finite error"),
    (["eval", "acos", "0.5", "--seed-order", "9"], 2,
     "seed_order must be in 1..4"),
    (["converge", "log", "2", "--depths", "4..5", "--seed-order", "0"], 2,
     "seed_order must be in 1..4"),
    (["converge", "cos", "1", "--depths", "4-7"], 2,
     "could not parse depth range '4-7'"),
    (["sweep", "--kmax", "3", "--depth", "12", "--allow-deep"], 2,
     "unrecognized arguments: --allow-deep"),
    (["table1", "--allow-deep"], 2, "unrecognized arguments: --allow-deep"),
    (["table2", "--depth", "25", "--allow-deep"], 2,
     "unrecognized arguments: --allow-deep"),
    (["sweep", "--kmax", "3", "--depth", "1024"], 2,
     "depth 1024 exceeds 1023; 2**depth must stay a float"),
    # At a pole converge names the evaluator's error, as eval does; a bad
    # depth is named before the oracle is consulted.
    (["converge", "log", "0", "--depths", "4..5"], 3, "logarithm of zero"),
    (["converge", "atanh", "1", "--depths", "4..5"], 3,
     "inverse hyperbolic tangent pole"),
    (["converge", "atan", "1i", "--depths", "4..5"], 3, "arctangent poles"),
    (["converge", "log-limit", "0", "--depths", "2..3"], 3, "logarithm of zero"),
    (["converge", "log", "0", "--depths", "0..3"], 2, "positive integer"),
    # Every depth is checked before the seed order and before any depth
    # is evaluated.
    (["converge", "cos", "1", "--depths", "1023..1024", "--seed-order", "9"],
     2, "depth 1024 exceeds 1023"),
    (["eval", "cos", "1", "--allow-deep"], 2, "unrecognized arguments"),
    (["converge", "cos", "1", "--depths", "4", "--allow-deep"], 2,
     "unrecognized arguments"),
    (["signs", "--branch", "0", "--width", "1024"], 2,
     "width 1024 exceeds 1023; a tower has at most 1023 radicals"),
])
def test_exit_codes_and_messages(argv, code, fragment):
    got, out, err = run_cli(argv)
    assert got == code
    assert fragment in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["eval", "acos", "0", "--depth", "31"],
    ["converge", "acos", "0.3", "--depths", "30..31"],
])
def test_depth_31_evaluates_from_the_cli(argv):
    got, out, err = run_cli(argv)
    assert (got, err) == (0, "")
    assert out.startswith(("value ", "depth,"))


def test_converge_single_depth():
    code, out, err = run_cli(["converge", "cos", "1", "--depths", "7"])
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert header == "depth,value,abs_error,error_ratio"
    assert row.startswith("7,") and row.endswith(",0")


def test_depth_range_stops_at_the_first_depth_past_the_bound():
    # converge rejects every depth past 1023, so a longer range is cut at
    # its first such depth: the list stays short and the transcript is the
    # one of 1..1024.
    assert len(_parse_depths("1..1000000")) <= 1024
    assert _parse_depths("2000..3000") == [2000]
    argv = ["converge", "acos", "0.5", "--depths"]
    got = run_cli(argv + ["1..1000000"])
    assert got == run_cli(argv + ["1..1024"])
    assert got[0] == 2
    assert "depth 1024 exceeds" in got[2]


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["nestrad", "signs", "--branch", "2",
                                      "--width", "4"])
    assert main() == 0
    assert capsys.readouterr().out == "++--\n"


def test_overflowing_literal_is_an_argument_error():
    # Parsed to inf, 1e400 printed "value nan+infi ... abs_error nan" with
    # exit 0 for acos, and blamed the depth for cos.
    for fn in ("acos", "cos"):
        code, out, err = run_cli(["eval", fn, "1e400"])
        assert (code, out) == (2, "")
        assert err == "error: number '1e400' is too large for a float\n"


def test_log_of_reciprocal_overflow_is_a_numeric_error():
    # 1/y overflows here, and nested_log returned -inf with exit 0.
    code, out, err = run_cli(["eval", "log", "1e-320"])
    assert (code, out) == (3, "")
    assert err.startswith("numeric error: 1/y overflows at y = 1e-320;")


@pytest.mark.parametrize("argv", [["asin", "1e155"], ["asin", "2e154+1i"],
                                  ["asinh", "1e155i"], ["asinh", "-1e200"]])
def test_asin_asinh_square_overflow_is_a_numeric_error(argv):
    # y**2 overflows here: a numeric failure, not a nan or inf value.
    code, out, err = run_cli(["eval", *argv])
    assert (code, out) == (3, "")
    assert err.startswith("numeric error: y**2 overflows at y = ")


def test_unknown_function_is_an_argument_error():
    got, _, err = run_cli(["eval", "nope", "1"])
    assert got == 2
    assert "usage" in err
