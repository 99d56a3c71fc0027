"""Rules on the library source that no behavioural test can see."""

import ast
import pathlib
import re

import rigid_refine

PACKAGE = pathlib.Path(rigid_refine.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _library_nodes(predicate):
    """`file:line` of every AST node in the package source that matches."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if predicate(node)
    ]


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a check the library relies on must raise.
    assert _library_nodes(lambda node: isinstance(node, ast.Assert)) == []


def _reads_environment(node):
    """True for `os.environ`, `os.getenv` and `from os import environ/getenv`."""
    names = {"environ", "getenv"}
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in names
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in names for alias in node.names)
    return False


def test_library_reads_no_environment_variables():
    # Every option is a config key or a command-line flag, so the config and
    # the flags alone fix what a run does.
    assert _library_nodes(_reads_environment) == []


# Trial generation has one owner, synth: the command line takes its problems
# from synth._problems and draws none itself.
_GENERATION = {
    "ball_cloud", "sphere_cloud", "slab_cloud", "make_problem", "_trial_draws", "_base_cloud",
}


def _imports_generation(node):
    """True for an import of or from the rng module, or of a generation name."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "rng" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        names = {alias.name for alias in node.names}
        from_rng = (node.module or "").split(".")[-1] == "rng"
        return from_rng or bool(names & (_GENERATION | {"rng"}))
    return False


def test_cli_leaves_trial_generation_to_synth():
    hits = _library_nodes(_imports_generation)
    assert [hit for hit in hits if hit.startswith("cli.py:")] == []


def _imports_kd_tree(node):
    """True for an import of or from scipy.spatial, or of a k-d tree class."""
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.spatial") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        names = {alias.name for alias in node.names}
        from_spatial = module.startswith("scipy.spatial")
        from_spatial |= module == "scipy" and "spatial" in names
        return from_spatial or bool(names & {"cKDTree", "KDTree"})
    return False


def test_only_neighbors_builds_kd_trees():
    # One nearest-neighbor kernel: Chamfer, matching cost and ICP all search
    # through neighbors, which alone builds k-d trees.
    hits = _library_nodes(_imports_kd_tree)
    assert hits and [hit for hit in hits if not hit.startswith("neighbors.py:")] == []


# One solver for the refine step: the closed form in refiner. The paper's
# 15x15 system is assembled and LU-solved only by the test oracle,
# tests/kkt_oracle.py.
_KKT_ORACLE_NAMES = {"KktSystem", "assemble_kkt", "solve_kkt", "kkt_residual"}
_CONDITION_NUMBER = {"np.linalg.cond", "numpy.linalg.cond"}


def _kkt_oracle_or_condition_number(node):
    """True for a definition of an oracle name or a call of np.linalg.cond."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name in _KKT_ORACLE_NAMES
    return isinstance(node, ast.Call) and ast.unparse(node.func) in _CONDITION_NUMBER


def test_library_has_one_refine_solver():
    assert _library_nodes(_kkt_oracle_or_condition_number) == []


def _calls_setflags(node):
    """True for a call of a `.setflags` method."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setflags"
    )


def _lines_of_function(module, name):
    """`module:line` of every line of the module-level function `name`."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return {
        f"{module}:{line}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
        for line in range(node.lineno, node.end_lineno + 1)
    }


def test_only_core_frozen_marks_arrays_read_only():
    # One validator: every container copies, checks and freezes its array
    # fields through core._frozen, so no other code freezes an array.
    hits = _library_nodes(_calls_setflags)
    frozen = _lines_of_function("core.py", "_frozen")
    assert hits and [hit for hit in hits if hit not in frozen] == []


def _defined_names():
    """Every name the package defines: functions, classes and assigned names."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


def test_readme_cites_only_private_names_the_package_defines():
    # A deleted or renamed kernel must not stay documented.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = re.sub(r"```.*?```", "", readme, flags=re.S)
    # A private name opens a code span or follows a module's dot.
    cited = {
        name
        for span in re.findall(r"`([^`\n]+)`", readme)
        for name in re.findall(r"(?:^|\.)(_\w+)", span)
    }
    assert cited and sorted(cited - _defined_names()) == []
