"""Rules on the library source that no behavioural test can see."""

import ast
import importlib.metadata
import pathlib
import re
import sys

import pytest

import rigid_refine

PACKAGE = pathlib.Path(rigid_refine.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = pathlib.Path(__file__).resolve().parent


def _nodes(predicate, sources):
    """`file:line` of every AST node in the source files that matches."""
    assert sources
    return [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if predicate(node)
    ]


def _library_nodes(predicate):
    """`file:line` of every AST node in the package source that matches."""
    return _nodes(predicate, sorted(PACKAGE.glob("*.py")))


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
    "ball_cloud", "sphere_cloud", "slab_cloud", "make_problem", "sample_transform",
    "_trial_draws", "_base_clouds", "_make_problems", "_Lanes",
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


def _queries_a_tree(node):
    """True for a call of a method named query, as a k-d tree search is."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "query"


def test_only_neighbors_builds_kd_trees():
    # One nearest-neighbor kernel: Chamfer, matching cost and ICP all search
    # through neighbors, which alone builds k-d trees and queries them.
    for rule in (_imports_kd_tree, _queries_a_tree):
        hits = _library_nodes(rule)
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
    # One validator: every container, the test oracles' included, copies,
    # checks and freezes its array fields through core._frozen, so no other
    # code freezes an array.
    hits = _nodes(_calls_setflags, sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")))
    frozen = _lines_of_function("core.py", "_frozen")
    assert hits and [hit for hit in hits if hit not in frozen] == []


def _unused_imports(path):
    """`file:line name` of every name the file imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # The package's __init__ imports to re-export; every other module and
    # every test file uses each name it imports.
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted(TESTS.glob("*.py"))
    assert [hit for path in sources for hit in _unused_imports(path)] == []


def _opens_text_without_encoding(node):
    """True for a call of open in text mode (no "b" in a constant mode) that
    passes no encoding."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    keywords = {keyword.arg: keyword.value for keyword in node.keywords}
    mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
    binary = isinstance(mode, ast.Constant) and "b" in mode.value
    return not binary and "encoding" not in keywords and len(node.args) < 4


def test_library_opens_text_files_with_an_encoding():
    # The locale's encoding varies by machine; a file the library reads or
    # writes must not.
    assert _library_nodes(_opens_text_without_encoding) == []


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


def _compares_with_norm_floor(node):
    """True for a comparison that has _NORM_FLOOR as an operand."""
    operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
    return any(isinstance(operand, ast.Name) and operand.id == "_NORM_FLOOR" for operand in operands)


def _calls_largest_accepted(node):
    """True for a call of _largest_accepted."""
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "_largest_accepted"


def _names_a_removed_rng_path(node):
    """True for a use or definition of _advance, or a use of _Lanes.of: the
    per-lane generators and the jump to a lane's state that rng no longer
    needs."""
    if isinstance(node, ast.Attribute):
        return node.attr == "_advance" or ast.unparse(node) == "_Lanes.of"
    if isinstance(node, ast.Name):
        return node.id == "_advance"
    return isinstance(node, ast.FunctionDef) and node.name == "_advance"


def test_each_draw_rejection_is_parsed_once():
    # One parser per draw kind, over a stack of lanes; a generator is one
    # lane. So the norm-floor test and the integer acceptance limit each
    # appear once, and the per-lane generator paths stay gone.
    assert len(_library_nodes(_compares_with_norm_floor)) == 1
    assert len(_library_nodes(_calls_largest_accepted)) == 1
    assert _library_nodes(_names_a_removed_rng_path) == []


def _imported_modules(path):
    """The top-level names of the modules a source file imports absolutely."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def _requirement_name(requirement):
    """The normalized project name of a requirement string ("numpy>=1.24")."""
    return re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9._-]+", requirement).group()).lower()


def test_every_third_party_module_the_tests_import_is_declared():
    # `pip install -e ".[test]"` must give a suite that collects: each module
    # the tests import is the standard library's, the package's, a test
    # helper's, or a project that pyproject.toml declares in `dependencies`
    # or in the `test` extra.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        _requirement_name(requirement)
        for requirement in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    local = {path.stem for path in TESTS.glob("*.py")} | {"rigid_refine"}
    modules = set().union(*(_imported_modules(path) for path in TESTS.glob("*.py")))
    third_party = sorted(modules - local - set(sys.stdlib_module_names))
    projects = importlib.metadata.packages_distributions()
    undeclared = [
        module
        for module in third_party
        if not {_requirement_name(name) for name in projects.get(module, [module])} & declared
    ]
    assert third_party and undeclared == []
