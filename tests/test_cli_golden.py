"""Golden CLI transcripts: stdout, stderr and exit code, byte for byte.

The argv set covers every subcommand that reads the radical tower, the
error paths, and argparse's own help, usage and invalid-choice output
(exit code from SystemExit, help wrapped at COLUMNS=80).  Regenerate the
recording only when a change to the output is intended:
PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
from unittest import mock

import pytest

from nestrad import cli
from nestrad.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

ARGVS = [
    ["eval", "acos", "0"],
    ["eval", "acos", "0.5", "--branch", "3"],
    ["eval", "acos", "-2"],
    ["eval", "cos", "1.0471975511965976", "--depth", "4", "--seed-order", "4"],
    ["eval", "acosh", "-2+3i", "--branch", "-2", "--json"],
    ["eval", "exp-limit", "1", "--depth", "12"],
    ["eval", "sin", "1", "--branch", "1"],
    ["eval", "acos", "0", "--branch", "600"],
    ["eval", "acos", "0.5", "--branch", "-512"],
    ["eval", "log", "0"],
    ["eval", "exp-limit", "800+1i"],
    ["converge", "acos", "0.3", "--depths", "4..12"],
    ["sweep", "--kmax", "40", "--depth", "12"],
    ["table1"],
    ["table2", "--depth", "25"],
    ["signs", "--branch", "100", "--width", "25"],
    ["expand", "--depth", "6"],
    ["expand", "--depth", "5", "--hyperbolic"],
    ["eval", "acos", "-0.5", "--branch", "-3"],
    ["eval", "acos", "2+3i", "--branch", "5", "--json"],
    ["eval", "acosh", "0.5", "--branch", "-3"],
    ["eval", "acosh", "2", "--branch", "1"],
    ["eval", "acosh", "0.5"],
    ["eval", "acosh", "-0.3", "--json"],
    ["eval", "atanh", "-0.5"],
    ["eval", "asinh", "-3", "--json"],
    ["eval", "tanh", "-1.5"],
    [],
    ["--help"],
    ["-h", "eval"],
    ["bogus"],
    ["eval"],
    ["eval", "--help"],
    ["converge", "-h"],
    ["sweep", "--help"],
    ["sweep", "--kmax", "x"],
    ["table1", "-h"],
    ["table2", "--depth", "x"],
    ["expand", "-h"],
    ["signs", "--help"],
    ["eval", "cos", "1", "--bogus"],
    ["eval", "nosuch", "1"],
    ["converge", "nosuch", "1", "--depths", "4"],
    # Dispatch boundary: a leftover argument and option, a command
    # abbreviation, "--" before and inside a command, a missing option
    # value and help after arguments.
    ["eval", "cos", "1", "2"],
    ["sweep", "--kmax", "3", "--depth", "12", "--allow-deep"],
    ["ev", "cos", "1"],
    ["--", "eval", "cos", "1"],
    ["signs", "--branch", "1", "--width"],
    ["eval", "cos", "--", "-1"],
    ["converge", "cos", "1", "--depths", "3..4", "-h"],
    # Depth is checked before seed order, for every function, and
    # allow_deep stops at depth 1023.
    ["eval", "acos", "0.5", "--depth", "0", "--seed-order", "9"],
    ["eval", "cos", "0.5", "--depth", "1024", "--allow-deep"],
    # At a pole converge reports the evaluator's error, as eval does.
    ["converge", "log", "0", "--depths", "4..5"],
    ["converge", "atan", "1i", "--depths", "4..5"],
]


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a) or "(none)")
def test_cli_transcript_is_byte_identical(argv):
    recorded = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}
    assert transcript(argv) == recorded[tuple(argv)]


def test_valid_call_parses_like_the_full_tree_with_one_parser(monkeypatch):
    # main parses a call that names a command with that command's parser
    # alone; on every recorded argv that the full tree accepts, the
    # namespace must not change, and main must build exactly one parser.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    parsed = 0
    for argv in ARGVS:
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                want = vars(build_parser().parse_args(argv))
        except SystemExit:
            continue
        assert vars(cli._parse(argv)) == want, argv
        with monkeypatch.context() as m:
            m.setattr(argparse.ArgumentParser, "__init__", counting_init)
            built.clear()
            transcript(argv)
        assert built == [f"nestrad {argv[0]}"], argv
        parsed += 1
    assert parsed == 32


# sha256 of the stdout of sweep --kmax 16383 --depth 25, recorded from the
# per-branch sweep; the 16,385-line transcript is too large to store.
SWEEP_16K_SHA256 = "de3da393a7b71e5ba8b0e43b9dec62769b4e24dd2f2a127fb29e2086338df5c2"


# sha256 of the stdout of expand --depth 9, keyed by the arguments that
# follow; 257 coefficients with denominators of up to 2,775 digits.
EXPAND_9_SHA256 = {
    (): "879982156b1836b4cc68ed62c161521325dffa60c27ef21e6441e229464845e2",
    ("--hyperbolic",):
        "8236468e8b170ea87401530a53b77f040c448f7891b56d496fdcde1acf757b4c",
}


def test_large_sweep_stdout_digest():
    t = transcript(["sweep", "--kmax", "16383", "--depth", "25"])
    assert (t["exit"], t["stderr"]) == (0, "")
    assert hashlib.sha256(t["stdout"].encode()).hexdigest() == SWEEP_16K_SHA256


@pytest.mark.parametrize("extra", sorted(EXPAND_9_SHA256))
def test_deep_expand_stdout_digest(extra):
    t = transcript(["expand", "--depth", "9", *extra])
    assert (t["exit"], t["stderr"]) == (0, "")
    assert hashlib.sha256(t["stdout"].encode()).hexdigest() == \
        EXPAND_9_SHA256[extra]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([transcript(a) for a in ARGVS], indent=1) + "\n")
