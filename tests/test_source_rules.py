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


def _is_os_fork(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fork" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os")


def test_one_process_mechanism_and_one_fork_site():
    # ingest forks in one place; no pool, executor or second mechanism
    calls, callers, imports = 0, [], []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        calls += sum(_is_os_fork(node) for node in ast.walk(tree))
        callers += [f"{path.name}:{func.name}" for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(_is_os_fork(node) for node in ast.walk(func))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append(node.module)
        assert "from os import" not in text
    assert calls == 1 and callers == ["_kernels.py:_fork_share"]
    assert not [m for m in imports if m.split(".")[0] in ("multiprocessing", "concurrent")]
