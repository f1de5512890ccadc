"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import nettopk

SOURCES = sorted(Path(nettopk.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; every check must hold without them
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []
