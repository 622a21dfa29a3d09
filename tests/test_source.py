"""Rules the package's source keeps, read from the files themselves."""

from __future__ import annotations

import ast
from pathlib import Path

import deutschpaths

SOURCES = sorted(Path(deutschpaths.__file__).parent.glob("*.py"))


def test_the_package_keeps_no_assert():
    # python -O strips assert statements, so none may carry a check
    found = [
        f"{source.name}:{node.lineno}"
        for source in SOURCES
        for node in ast.walk(ast.parse(source.read_text(), str(source)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) == 8
    assert found == []


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            # the star imports of __init__.py bind no name of their own
            yield from (alias.asname or alias.name for alias in node.names if alias.name != "*")


def test_every_imported_name_is_used():
    unused = []
    for source in SOURCES:
        tree = ast.parse(source.read_text(), str(source))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{source.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []


def _isinstance_classes(tree: ast.Module):
    # the class names each isinstance call tests, bare or module-qualified
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = node.args[1]
            for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
                yield node.lineno, getattr(cls, "attr", getattr(cls, "id", None))


def test_steps_are_told_apart_by_identity():
    # UP is the only up-step, so `step is UP` is the one kind test
    found = [
        f"{source.name}:{line}"
        for source in SOURCES
        for line, name in _isinstance_classes(ast.parse(source.read_text(), str(source)))
        if name in {"Up", "Down"}
    ]
    assert found == []


def test_the_exact_scalars_are_named_once():
    # the operand rule and the coefficient rule read one tuple, so they
    # cannot drift apart
    found = [
        source.name
        for source in SOURCES
        for node in ast.walk(ast.parse(source.read_text(), str(source)))
        if isinstance(node, ast.Tuple)
        and [getattr(e, "id", None) for e in node.elts] == ["int", "Fraction"]
    ]
    assert found == ["numbers.py"]


def test_every_dataclass_is_frozen():
    # the census keys a dict on MarkedTree and the tests count
    # decompositions with Counter, so every record hashes by value
    count, thawed = 0, []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            for decorator in node.decorator_list if isinstance(node, ast.ClassDef) else ():
                call = decorator if isinstance(decorator, ast.Call) else ast.Call(decorator, [], [])
                if getattr(call.func, "id", None) == "dataclass":
                    count += 1
                    if not any(
                        k.arg == "frozen" and getattr(k.value, "value", None) is True
                        for k in call.keywords
                    ):
                        thawed.append(f"{source.name}:{node.lineno}")
    assert count == 9
    assert thawed == []
