"""Golden CLI transcripts: stdout, stderr and exit code, byte for byte.

tests/cli_golden.json is the one copy of the pinned argv set: each record
holds an argv and the exit code, stdout and stderr that main gave it
(exit code from SystemExit, help wrapped at COLUMNS=80).  The records
cover every subcommand that reads the radical tower, the error paths, and
argparse's own help, usage and invalid-choice output.  Some pin a rule
rather than a value: the dispatch boundary (a leftover argument and
option, a command abbreviation, "--" before and inside a command, a
missing option value and help after arguments); valid calls that only
argparse reads (--flag=value, an abbreviated or a repeated option, "--"
before a negative scalar); depth checked before seed order, for every
function, and the one depth bound of 1023; and converge at a pole
reporting the evaluator's error, as eval does.  A Hypothesis property
checks the scanner of canonical calls against the full argparse tree on
argvs drawn from a token grammar.

To pin a new call, append {"argv": [...]} to the file and re-record every
record from its own argv; do so only when a change to the output is
intended:
PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestrad import FUNCTIONS, cli
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


def _full_tree_vars(parser, argv):
    # vars of the full tree's namespace for argv, or None where it exits.
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_valid_call_parses_like_the_full_tree_with_no_parser(monkeypatch):
    # main scans a call in canonical form against the command table and
    # builds no parser for it.  The recorded argvs that the full tree
    # accepts but that are not canonical ("--", "=", an abbreviated or a
    # repeated option) each build one full tree.  Every namespace is the
    # full tree's.
    accepted = [(r["argv"], want) for r in RECORDS
                if (want := _full_tree_vars(build_parser(), r["argv"]))]
    assert len(accepted) == 44
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    canonical = 0
    for argv, want in accepted:
        built.clear()
        transcript(argv)
        if cli._scan(argv) is not None:
            canonical += 1
            assert built == [], argv
        else:
            # The root parser, then each command's, once.
            assert built == ["nestrad", *(f"nestrad {name}" for name in cli._COMMANDS)]
        assert vars(cli._parse(argv)) == want, argv
    assert canonical == 39
    assert {argv[0] for argv, _ in accepted if cli._scan(argv)} == set(cli._COMMANDS)


# A token grammar around the canonical forms.  Each token list holds forms
# the scanner accepts, then forms it leaves to argparse: ints with a sign,
# a space, an underscore, a Unicode digit or past the integer string limit,
# abbreviated and --flag=value options, repeats, "--", help and stray
# tokens.  At most one pick of a draw takes the second kind.
INTS = ["0", "12", "-5", "007", "-0", "5" * 640], \
    ["+5", " 5", "1_0", "\u0663", "5" * 4301, "x", "", "-x"]
SCALARS = ["0.5", "-0.5", "-i", "-.5", "2+3i", "-2+3i", "1e-3", "-1 2", "", "x"], \
    ["-", "-x", "--5"]
DEPTHS = ["4..12", "4", "-3", "x", ""], ["-x", "--"]
STRAY = [None], ["--", "-h", "--help", "--bogus", "x", "-x", "-5", "cos", "--depth",
                 "--json", "--kmax"]


@st.composite
def argvs(draw):
    odd_pick, picks = draw(st.sampled_from(range(-4, 16))), itertools.count()

    def pick(good, odd):
        return draw(st.sampled_from(odd if next(picks) == odd_pick else good))

    name = pick(list(cli._COMMANDS), ["ev", "-h", "--depth"])
    _, _, positionals, options = cli._COMMANDS.get(name, (0, 0, (), {}))
    pieces = [[pick(sorted(FUNCTIONS), ["nosuch", "co"]) if choices else pick(*SCALARS)]
              for _, choices, _ in positionals]
    for flag, (_, kind, default, _) in options.items():
        for _ in range(pick([1] if default is None else [0, 1], [0, 2])):
            spelled = pick([flag], [flag[:5]])
            value = [] if kind is bool else [pick(*INTS if kind is int else DEPTHS)]
            pieces.append([f"{spelled}={value[0]}"] if value and pick([0], [1])
                          else [spelled, *value])
    pieces += [[token] for token in [pick(*STRAY)] if token is not None]
    order = draw(st.permutations(range(len(pieces))))
    return [name, *(token for i in order for token in pieces[i])]


_FULL_TREE = build_parser()  # one parser serves every draw: each parse is fresh


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argvs())
@example(["eval", "--depth", "-5", "acos", "-i", "--json"])
@example(["converge", "--depths", "4..5", "cos", "-.5"])
@example(["eval", "cos", "-x"])
@example(["converge", "cos", "1", "--depths", "-x"])
@example(["sweep", "--kmax", "5" * 4301])
@example(["eval", "cos", "1", "--json", "--json"])  # a repeated flag
@example(["table1", "--depth"])  # an option last, with no value
@example(["converge", "cos", "1", "--depths", "--seed-order", "3"])  # a flag as value
@example(["sweep", "--depth", "4"])  # a required option missing
def test_scan_is_the_full_tree_or_none(argv):
    # A scanned call is one the full tree accepts, with the same namespace;
    # wherever the full tree exits (help or an error), the scanner declines.
    got = cli._scan(argv)
    assert got is None or vars(got) == _full_tree_vars(_FULL_TREE, argv)


def test_records_replay_byte_identical_twice_in_one_process():
    # Every call in a process shares what the library keeps between calls
    # (verify._config, core._gray_tree and expand._build): help, argparse's
    # error exits and SystemExit must leave nothing there that a later call
    # sees.  The second pass runs the records in reverse.
    for record in [*RECORDS, *reversed(RECORDS)]:
        assert transcript(record["argv"]) == record


# sha256 of the stdout of sweep --kmax 16383 --depth 25, recorded from the
# per-branch sweep; the 16,385-line transcript is too large to store.
SWEEP_16K_SHA256 = "e639bcfa3e223b3ea6afd6ef2857dc9e8af6e32a02bd26f2632fd8d35c43827c"
# sha256 of the stdout of sweep --kmax 30000 --step 3 --depth 16: 10,002
# lines, whose 10,001 rows make two full chunks and a short last one.
SWEEP_STEP3_ARGV = ("sweep", "--kmax", "30000", "--step", "3", "--depth", "16")
SWEEP_STEP3_SHA256 = "c0ab003b0df315fc6cc09521e9afb09d5185757cf2aa3260d3ea28539e876a23"


# sha256 of the stdout of deep expand calls, keyed by argv: 257
# coefficients with denominators of up to 2,775 digits at depth 9, 1,025 of
# up to 6,166 at depth 10 and 4,097 of up to 29,593 at depth 12.  Depths 10
# and 12 were recorded from Fraction's own text with Python's int-to-str
# digit limit lifted.  Tier-1 checks depths 9 and 10; CI checks them all.
EXPAND_SHA256 = {
    ("expand", "--depth", "9"):
        "879982156b1836b4cc68ed62c161521325dffa60c27ef21e6441e229464845e2",
    ("expand", "--depth", "9", "--hyperbolic"):
        "8236468e8b170ea87401530a53b77f040c448f7891b56d496fdcde1acf757b4c",
    ("expand", "--depth", "10"):
        "38773ef8c9b62f6179e70603d4f4a4b2f44e18a56a06b0c76d9bd89ccfe8f503",
    ("expand", "--depth", "10", "--hyperbolic"):
        "489cf50f79abdfbe791243616d9daeaa3456d13996e000950b5f3022f8145ebe",
    ("expand", "--depth", "12"):
        "0cd00d01646f1dde5b78d7bffe8d751710bd63b4416725fa759cd305d9a87e86",
}


def test_large_sweep_stdout_digest():
    t = transcript(["sweep", "--kmax", "16383", "--depth", "25"])
    assert (t["exit"], t["stderr"]) == (0, "")
    assert hashlib.sha256(t["stdout"].encode()).hexdigest() == SWEEP_16K_SHA256


def test_step_3_sweep_stdout_digest():
    t = transcript(list(SWEEP_STEP3_ARGV))
    assert (t["exit"], t["stderr"]) == (0, "")
    assert t["stdout"].count("\n") == 10002
    assert hashlib.sha256(t["stdout"].encode()).hexdigest() == SWEEP_STEP3_SHA256


@pytest.mark.parametrize("argv", [a for a in EXPAND_SHA256 if int(a[2]) <= 10],
                         ids=" ".join)
def test_deep_expand_stdout_digest(argv):
    t = transcript(list(argv))
    assert (t["exit"], t["stderr"]) == (0, "")
    assert hashlib.sha256(t["stdout"].encode()).hexdigest() == EXPAND_SHA256[argv]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def test_json_reports_are_strict_json():
    # json.dumps writes NaN and Infinity unless told not to; no successful
    # --json record may hold them.
    reports = [r["stdout"] for r in RECORDS if r["exit"] == 0 and "--json" in r["argv"]]
    assert reports
    for stdout in reports:
        assert isinstance(json.loads(stdout, parse_constant=_not_json), dict)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([transcript(r["argv"]) for r in RECORDS], indent=1)
                      + "\n")
