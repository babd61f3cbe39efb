"""The README's examples, run as written.

Two kinds are checked.  In the quick start, each line `expr  # value`
evaluates to an object whose repr is value (a note after a comma is
dropped).  Each `$ nestrad ...` line, its trailing comment stripped,
exits 0 and prints the lines that follow it up to a blank line or the
next prompt; a final `...` line makes them a prefix of the output.
Besides, every `--option` the prose names in an inline code span is one
that some command's parser registers, and the Layout block lists the
package's modules.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from nestrad import cli
from nestrad.cli import main

README = pathlib.Path(__file__).parents[1] / "README.md"
TEXT = README.read_text()


def _quick_start():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", TEXT, re.S)
    setup, checks = [], []
    for line in block.group(1).splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            checks.append((code.strip(), comment.split(", ")[0]))
        else:
            setup.append(line)
    return "\n".join(setup), checks


def _prompts():
    lines = TEXT.splitlines()
    calls = []
    for i, line in enumerate(lines):
        if not line.startswith("$ nestrad"):
            continue
        argv = shlex.split(line[len("$ nestrad"):], comments=True)
        expected = []
        for out in lines[i + 1:]:
            if not out or out.startswith("$ ") or out.startswith("```"):
                break
            expected.append(out)
        calls.append((argv, expected))
    return calls


SETUP, CHECKS = _quick_start()
PROMPTS = _prompts()


def test_readme_has_examples():
    assert len(CHECKS) == 5
    assert len(PROMPTS) == 12


@pytest.mark.parametrize("expr,want", CHECKS, ids=[c[0] for c in CHECKS])
def test_quick_start_value(expr, want):
    namespace = {}
    exec(SETUP, namespace)
    assert repr(eval(expr, namespace)) == want


@pytest.mark.parametrize("argv,expected", PROMPTS,
                         ids=[" ".join(p[0]) for p in PROMPTS])
def test_command_line_example(argv, expected):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    got = out.getvalue().splitlines()
    if expected[-1:] == ["..."]:
        expected = expected[:-1]
        got = got[:len(expected)]
    if expected:
        assert got == expected


def test_layout_lists_the_modules():
    block = re.search(r"## Layout\n\n```text\n(.*?)```", TEXT, re.S)
    listed = [line.split()[0] for line in block.group(1).splitlines()
              if line.startswith("src/nestrad/")]
    src = README.parent / "src" / "nestrad"
    modules = [f"src/nestrad/{path.name}" for path in src.glob("*.py")
               if path.name not in ("__init__.py", "__main__.py")]
    assert sorted(listed) == sorted(modules)


def _unregistered_options(text):
    # The --options named in inline code spans, outside fenced blocks, that
    # no command takes: the argument table's flags, and -h/--help.
    registered = {"-h", "--help"}
    for *_, options in cli._COMMANDS.values():
        registered.update(options)
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    named = {option for span in re.findall(r"`([^`]+)`", prose)
             for option in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", span)}
    return named - registered


def test_readme_options_are_the_parsers_options():
    assert _unregistered_options(TEXT) == set()
    assert _unregistered_options(
        "`--depth` and `--allow-deep`\n```sh\npip install --no-deps\n```"
    ) == {"--allow-deep"}
