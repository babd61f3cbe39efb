"""Golden CLI transcripts: stdout, stderr and exit code, byte for byte.

tests/cli_golden.json is the one copy of the pinned argv set: each record
holds an argv and the exit code, stdout and stderr that main gave it
(exit code from SystemExit, help wrapped at COLUMNS=80).  The records
cover every subcommand that reads the radical tower, the error paths, and
argparse's own help, usage and invalid-choice output.  Some pin a rule
rather than a value: the dispatch boundary (a leftover argument and
option, a command abbreviation, "--" before and inside a command, a
missing option value and help after arguments); depth checked before
seed order, for every function, and the one depth bound of 1023; and
converge at a pole reporting the evaluator's error, as eval does.

To pin a new call, append {"argv": [...]} to the file and re-record every
record from its own argv; do so only when a change to the output is
intended:
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
RECORDS = json.loads(GOLDEN.read_text())


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


@pytest.mark.parametrize("record", RECORDS,
                         ids=[" ".join(r["argv"]) or "(none)" for r in RECORDS])
def test_cli_transcript_is_byte_identical(record):
    assert transcript(record["argv"]) == record


def test_every_command_has_a_successful_record():
    # The records alone decide which calls are pinned; a hand edit must
    # not drop the last call that runs a command to completion.
    assert {r["argv"][0] for r in RECORDS if r["exit"] == 0} >= set(cli._COMMANDS)


def test_valid_call_parses_like_the_full_tree_with_one_parser(monkeypatch):
    # main parses a call that names a command with that command's parser
    # alone, built on its first use in a process and reused after.  On the
    # recorded argvs that the full tree accepts, a fresh cache builds one
    # parser per command, in order of first use; a second pass builds none,
    # and every namespace is the full tree's.
    accepted = []
    for argv in (r["argv"] for r in RECORDS):
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                accepted.append((argv, vars(build_parser().parse_args(argv))))
        except SystemExit:
            continue
    assert len(accepted) == 35
    assert build_parser() is not build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._command_parser.cache_clear()
    for argv, _ in accepted:
        transcript(argv)
    first_use = dict.fromkeys(argv[0] for argv, _ in accepted)
    assert built == [f"nestrad {name}" for name in first_use]
    assert sorted(first_use) == sorted(cli._COMMANDS)
    built.clear()
    for argv, want in accepted:
        transcript(argv)
        assert vars(cli._parse(argv)) == want, argv
    assert built == []


def test_records_replay_byte_identical_twice_in_one_process():
    # Every call in a process shares the cached command parsers: help,
    # argparse's error exits and SystemExit must leave nothing in them that
    # a later call sees.  The second pass runs the records in reverse.
    cli._command_parser.cache_clear()
    for record in [*RECORDS, *reversed(RECORDS)]:
        assert transcript(record["argv"]) == record


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
    GOLDEN.write_text(json.dumps([transcript(r["argv"]) for r in RECORDS], indent=1)
                      + "\n")
