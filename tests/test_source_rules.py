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


def _os_attribute(node, names):
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _is_os_fork(node):
    return isinstance(node, ast.Call) and _os_attribute(node.func, {"fork"})


def test_one_process_mechanism_and_one_fork_site():
    # one helper forks; no pool, executor or second mechanism
    calls, callers, imports, children = 0, [], [], []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        calls += sum(_is_os_fork(node) for node in ast.walk(tree))
        callers += [f"{path.name}:{func.name}" for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(_is_os_fork(node) for node in ast.walk(func))]
        # starting, reaping and killing children stays in one module
        children += [path.name for node in ast.walk(tree)
                     if _os_attribute(node, {"fork", "waitpid", "kill", "_exit"})]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append(node.module)
        assert "from os import" not in text
    assert calls == 1 and callers == ["_fork.py:_start"]
    assert set(children) == {"_fork.py"}
    assert not [m for m in imports if m.split(".")[0] in ("multiprocessing", "concurrent")]


def test_only_protocol_calls_consolidate_into():
    # every walk into a G-TopK, phase 3's included, runs in a switch's handlers
    callers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "consolidate_into" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"protocol.py"}


def test_bulk_engine_imports_no_object_model_driver():
    # _kernels runs on flowtable, precision and _fork; the drivers import it
    path = Path(nettopk.__file__).parent / "_kernels.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {part for alias in node.names for part in alias.name.split(".")}
    assert {"flowtable", "precision", "_fork"} <= names
    assert not names & {"cluster", "protocol", "transport", "cli"}
