"""Rules on the library source that no behavioural test can see."""

import ast
import pathlib

import rigid_refine

PACKAGE = pathlib.Path(rigid_refine.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a check the library relies on must raise.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
