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


def test_the_package_keeps_no_global_statement():
    # state a function rebinds at module level is shared by every caller
    # and thread; what a call needs to keep travels with its arguments
    found = [
        f"{source.name}:{node.lineno}"
        for source in SOURCES
        for node in ast.walk(ast.parse(source.read_text(), str(source)))
        if isinstance(node, ast.Global)
    ]
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


def _package_imports(tree: ast.Module):
    # the package modules a module imports from, relatively or by the
    # package's name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["deutschpaths" * bool(node.level), node.module]))
            targets = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            package, _, module = target.partition(".")
            if package == "deutschpaths":
                yield module.partition(".")[0]


def test_series_stands_on_numbers_alone():
    # the series types are an oracle of their own, beside the paths, and
    # the package's shared record encoder lives with them
    source = Path(deutschpaths.__file__).parent / "series.py"
    assert set(_package_imports(ast.parse(source.read_text(), str(source)))) == {"numbers"}


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


# parameter names that hold a count, length, order or size, and the
# public functions that pass theirs on, unchanged, to one that checks it
SIZE_PARAMETERS = {"n", "k", "length", "total_length", "order", "max_length", "exponent"}
PASSES_ON = {"run_checks", "enumerate_nondecreasing_filter", "gf_coefficients"}


def _public_functions(tree: ast.Module):
    # module-level functions and the methods of public classes; of the
    # dunders only __init__ and __pow__ take a size (__getitem__ takes an
    # index, negative ones included)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and (
                    not method.name.startswith("_") or method.name in {"__init__", "__pow__"}
                ):
                    yield f"{node.name}.{method.name}", method


def _passes(call: ast.Call, name: str, first_only: bool) -> bool:
    args = call.args[:1] if first_only else [*call.args, *(k.value for k in call.keywords)]
    return any(getattr(arg, "id", None) == name for arg in args)


def test_every_size_goes_through_the_size_rule():
    checked, unchecked = [], []
    for source in SOURCES:
        for name, function in _public_functions(ast.parse(source.read_text(), str(source))):
            calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
            for arg in function.args.args + function.args.kwonlyargs:
                if arg.arg not in SIZE_PARAMETERS:
                    continue
                sized = any(
                    getattr(call.func, "id", getattr(call.func, "attr", None)) == "_size"
                    and _passes(call, arg.arg, first_only=True)
                    for call in calls
                )
                passed_on = function.name in PASSES_ON and any(
                    _passes(call, arg.arg, first_only=False) for call in calls
                )
                (checked if sized or passed_on else unchecked).append(f"{source.name}: {name}")
    assert unchecked == []
    assert len(checked) == 23
    assert "numbers.py: QuadraticNumber.__pow__" in checked


def test_the_size_rule_is_spelled_once():
    # its two messages live in numbers._size alone, so no site spells its own
    fragments = ("must be an int, got", "must be >=")
    found, helper = [], None
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.FunctionDef) and node.name == "_size":
                helper = source.name, range(node.lineno, node.end_lineno + 1)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(fragment in node.value for fragment in fragments):
                    found.append((source.name, node.lineno))
    assert len(found) == 2
    assert all(name == helper[0] and line in helper[1] for name, line in found)


def test_the_shape_rule_is_spelled_once():
    # paths._tuple_of alone spells the records' two shape messages and
    # compares a type with tuple, so no record writes its own check
    fragments = ("must be a tuple", "must hold only")
    found, compared, helper = [], [], None
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.FunctionDef) and node.name == "_tuple_of":
                helper = source.name, range(node.lineno, node.end_lineno + 1)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(fragment in node.value for fragment in fragments):
                    found.append((source.name, node.lineno))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(getattr(operand, "id", None) == "tuple" for operand in operands):
                    compared.append((source.name, node.lineno))
    assert len(found) == 2
    assert len(compared) == 1
    assert all(name == helper[0] and line in helper[1] for name, line in found + compared)


def test_one_walk_checks_the_ground_rules():
    # the end rule and the below-ground error are raised by
    # paths.is_nondecreasing alone; every other check calls it
    found, walk = [], None
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.FunctionDef) and node.name == "is_nondecreasing":
                walk = source.name, range(node.lineno, node.end_lineno + 1)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in {
                "NonzeroEndError",
                "_below_ground",
            }:
                found.append((source.name, node.lineno))
    assert len(found) == 2
    assert all(name == walk[0] and line in walk[1] for name, line in found)


# the records whose constructors check their parts, and the private
# builders that alone skip those checks, for parts just built or checked
CHECKED_RECORDS = {"Mountain", "Decomposition", "MarkedTree"}
BUILDERS = {("paths.py", "_mountain"), ("paths.py", "_decomposition"), ("trees.py", "_tree")}


def _unchecked_constructions(tree: ast.Module):
    # each object.__new__ of a checked record, and each slot setter of
    # one (Record.field.__set__), with the function it lies in
    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call) and node.args:
            func, first = node.func, node.args[0]
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__new__"
                and getattr(func.value, "id", None) == "object"
                and getattr(first, "id", None) in CHECKED_RECORDS
            ):
                yield function, node.lineno
        if isinstance(node, ast.Attribute) and node.attr == "__set__":
            if getattr(getattr(node.value, "value", None), "id", None) in CHECKED_RECORDS:
                yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def test_only_the_builders_skip_the_record_checks():
    # Mountain, Decomposition and MarkedTree are built unchecked in the
    # builders alone, so every other site goes through the constructors
    found = [
        (source.name, function, line)
        for source in SOURCES
        for function, line in _unchecked_constructions(ast.parse(source.read_text(), str(source)))
    ]
    outside = [f"{name}:{line}" for name, where, line in found if (name, where) not in BUILDERS]
    assert outside == []
    assert {(name, function) for name, function, _ in found} == BUILDERS
