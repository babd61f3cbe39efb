"""The package's public surface: the names it exports and where they live."""

import ast
import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import nestrad
from nestrad import cli, core, expand, verify

PUBLIC = {
    "DEFAULT_CONFIG", "DEPTH_MAX", "EXPANSION_DEPTH_CAP",
    "ConvergenceRow",
    "EvalConfig", "EvalReport", "FUNCTIONS", "FunctionSpec", "RationalPoly",
    "Scalar", "Table1Row", "Table2Row", "acos_outer", "acosh_outer",
    "branch_oracle_acos", "check_depth", "converge", "cos_seed", "cosh_seed",
    "double_angle_step", "eval_report", "exp_limit", "expand_nested_cos",
    "extract_branch", "gray_adjacent_distance", "gray_signs",
    "half_angle_step", "log_limit", "maclaurin_error_profile", "make_report",
    "nested_acos", "nested_acos_branch", "nested_acos_sequence",
    "nested_acosh", "nested_acosh_branch", "nested_acosh_sequence",
    "nested_asin", "nested_asinh", "nested_atan", "nested_atanh",
    "nested_cos", "nested_cos_sequence", "nested_cosh",
    "nested_cosh_sequence", "nested_exp", "nested_log", "nested_sin",
    "nested_sinh", "nested_tan", "nested_tanh", "principal_sqrt", "ref_acos",
    "ref_acosh", "reproduce_table1", "reproduce_table2", "sweep_branches",
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 56
    assert len(nestrad.__all__) == len(set(nestrad.__all__))
    assert set(nestrad.__all__) == PUBLIC


def test_each_public_name_is_its_defining_modules_object():
    owners = {}
    for module in (core, expand, verify):
        for name in module.__all__:
            assert name not in owners, f"{name} exported by two modules"
            owners[name] = module
    assert set(owners) == PUBLIC
    # __init__ lists expand's names itself, so that importing the package
    # need not load expand; the list is expand.__all__, in its order.
    assert list(nestrad._EXPAND) == expand.__all__
    for name, module in owners.items():
        assert getattr(nestrad, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from nestrad import *", scope)
    assert set(scope) - {"__builtins__"} == PUBLIC


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(nestrad, "no_such_name")


def test_import_loads_no_expansion():
    # Against the modules a fresh interpreter starts with, importing the
    # package and the CLI and building the full parser add none of expand,
    # the fractions and decimal it needs, or typing.  The first read of an
    # expand name loads it and binds the name in the package dict, so later
    # reads are plain attribute lookups.
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "import nestrad, nestrad.cli\n"
            "nestrad.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - bare))\n"
            "print('expand_nested_cos' in vars(nestrad))\n"
            "f = nestrad.expand_nested_cos\n"
            "print(f is nestrad.expand.expand_nested_cos,\n"
            "      'expand_nested_cos' in vars(nestrad))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nestrad.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    added, before, after = out.stdout.splitlines()
    added = set(added.split())
    assert "nestrad.cli" in added
    assert not added & {"nestrad.expand", "fractions", "decimal", "typing"}
    assert (before, after) == ("False", "True True")


def test_canonical_call_loads_no_argparse():
    # A fresh interpreter imports the CLI and runs a valid call in canonical
    # form of every command without loading argparse: only help, errors and
    # other forms build a parser.  Its stdout is what each call prints here.
    calls = [["eval", "cos", "0.7", "--depth", "12"],
             ["converge", "cos", "-0.5", "--depths", "4..6"],
             ["sweep", "--kmax", "5", "--depth", "4"], ["table1", "--depth", "10"],
             ["table2", "--depth", "10"], ["expand", "--depth", "2"],
             ["signs", "--branch", "3", "--width", "5"]]
    assert [argv[0] for argv in calls] == list(cli._COMMANDS)
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "import nestrad.cli\n"
            f"assert [nestrad.cli.main(argv) for argv in {calls!r}] == [0] * 7\n"
            "print(*sorted(set(sys.modules) - bare), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nestrad.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    printed = []
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            cli.main(argv)
        printed.append(stdout.getvalue())
    assert out.stdout == "".join(printed)
    assert "nestrad.cli" in out.stderr.split() and "argparse" not in out.stderr.split()


def _modules():
    src = pathlib.Path(nestrad.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}


def test_imports_only_the_standard_library():
    # README: no dependencies outside the standard library.
    modules = set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.partition(".")[0])
    assert {"argparse", "cmath", "math"} <= modules
    assert modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names


def _reads(node):
    # The names a piece of code reads, bare or as an attribute.
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _defines(node):
    # The private names a top-level statement defines: functions,
    # classes and constants with one leading underscore.
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_import_is_used():
    # Dead-code guard: a name a module imports is read in it.  Star
    # imports and __future__ are exempt.
    for name, tree in _modules().items():
        used = set(_reads(tree))
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names if a.name != "*"]
            else:
                continue
            unused = set(bound) - used
            assert not unused, f"{name}.py imports {sorted(unused)} and never reads them"


def test_every_private_definition_is_read():
    # Dead-code guard: each private module-level function, class or
    # constant is read somewhere in the package outside its own definition.
    statements = [node for tree in _modules().values() for node in tree.body]
    reads = [set(_reads(node)) for node in statements]
    unread = [name for i, node in enumerate(statements) for name in _defines(node)
              if not any(name in r for j, r in enumerate(reads) if j != i)]
    assert not unread, f"defined and never read: {unread}"


def test_cli_imports_only_public_names():
    # Layering guard: the CLI is a client of the library's public names,
    # so it imports nothing underscore-prefixed from the other modules.
    private = [a.name for node in ast.walk(_modules()["cli"])
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.partition(".")[0] == "nestrad")
               for a in node.names if a.name.startswith("_")]
    assert not private, f"cli.py imports private names {private}"


def test_one_module_reads_each_convention():
    # Layering guard: the Gray-code sign rule, the radical tower, the
    # forward pair and the inverses' sign restore are core's, and the
    # branch reflection is verify's; verify may read the batch entry
    # _towers, but no other module reads their parts.
    homes = {"_tower": "core", "_gray": "core", "_gray_tree": "core",
             "_climb": "core", "_forward": "core", "_seed": "core",
             "_odd": "core", "_reflect": "verify"}
    strays = sorted((name, private) for name, tree in _modules().items()
                    for private in homes.keys() & set(_reads(tree))
                    if homes[private] != name)
    assert not strays, f"read outside their home module: {strays}"


def test_private_names_cross_modules_only_where_listed():
    # Layering guard: the private names one module reads from another,
    # imported (from .core import _x) or as an attribute (core._x), are
    # exactly these.
    allowed = {("verify", "core"): {"_is_int", "_is_real", "_real", "_towers"},
               ("expand", "core"): {"_is_int"}}
    modules = _modules()
    reads = {}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                home, names = node.module, [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                home, names = node.value.id, [node.attr]
            else:
                continue
            private = {n for n in names if n.startswith("_") and not n.startswith("__")}
            if home in modules and private:
                reads.setdefault((name, home), set()).update(private)
    assert reads == allowed
