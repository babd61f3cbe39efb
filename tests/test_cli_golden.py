"""Golden CLI transcripts: stdout, stderr and exit code, byte for byte.

The argv set covers every subcommand that reads the radical tower plus the
error paths.  Regenerate the recording only when a change to the output is
intended:  PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from nestrad.cli import main

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
    ["eval", "log", "0"],
    ["converge", "acos", "0.3", "--depths", "4..12"],
    ["sweep", "--kmax", "40", "--depth", "12"],
    ["table1"],
    ["table2", "--depth", "25"],
    ["signs", "--branch", "100", "--width", "25"],
]


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_transcript_is_byte_identical(argv):
    recorded = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}
    assert transcript(argv) == recorded[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([transcript(a) for a in ARGVS], indent=1) + "\n")
