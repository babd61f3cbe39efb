"""The package's public surface: the names it exports and where they live."""

import ast
import pathlib
import sys

import nestrad
from nestrad import branches, core, derived, expand, verify

PUBLIC = {
    "DEFAULT_CONFIG", "DEPTH_CAP", "EXPANSION_DEPTH_CAP", "ConvergenceRow",
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
    for module in (branches, core, derived, expand, verify):
        for name in module.__all__:
            assert name not in owners, f"{name} exported by two modules"
            owners[name] = module
    assert set(owners) == PUBLIC
    for name, module in owners.items():
        assert getattr(nestrad, name) is getattr(module, name), name


def test_imports_only_the_standard_library():
    # README: no dependencies outside the standard library.
    src = pathlib.Path(nestrad.__file__).parent
    modules = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.partition(".")[0])
    assert {"argparse", "cmath", "math"} <= modules
    assert modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names
