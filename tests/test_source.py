"""Checks over the package source itself."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import tempcoll
from tempcoll import algebra, cli, core, dsl, errors, model, readings

SOURCE = Path(__file__).resolve().parent.parent / "src" / "tempcoll"


def test_no_assert_guards_the_package():
    # `python -O` strips every assert, so a guard written as one vanishes;
    # a misuse must raise a typed error instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_gc_switch_in_the_package():
    # Turning the collector off, freezing it or moving its thresholds
    # changes process-wide state behind the caller's back.
    switches = {"disable", "freeze", "set_threshold"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
            and node.attr in switches
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "gc"
            and any(alias.name in switches for alias in node.names)
        )
    ]
    assert found == []


def test_the_package_exports_each_module_all_once():
    # Each public name is listed once, in its module's `__all__`; the
    # package's `__all__` is those lists in order, and a star import
    # binds exactly it.
    namespace: dict = {}
    exec("from tempcoll import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tempcoll.__all__)
    assert len(set(tempcoll.__all__)) == len(tempcoll.__all__)
    modules = (model, core, algebra, readings, dsl, errors)
    assert tempcoll.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    for module in (*modules, cli):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_imported_name_is_used():
    # A module-level import is used when the module reads the name or
    # lists it in `__all__`; a leftover one hides what a deletion freed.
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(
            "tempcoll" if path.stem == "__init__" else f"tempcoll.{path.stem}"
        )
        used = set(getattr(module, "__all__", ())) | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_definition_is_read():
    # A private module-level function, class or constant is read in its
    # own module; one that is never read is what a deletion left behind.
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    assert unread == []


def test_no_module_imports_dataclasses():
    # `dataclasses` loads `inspect`, `ast`, `dis`, `tokenize` and `copy`
    # with it, which a one-statement verdict would pay for at every start;
    # each record is a `namedtuple` or a plain class. Tests may import it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (
            isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names)
        )
    ]
    assert found == []


def test_only_check_int_tests_for_an_int():
    # "An int, not a bool" is one rule, in `model.check_int`; every other
    # int check calls it. A dispatch on `type(value) is int` is no check.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each `type(...) is not int` -> its innermost function
        for scope in ast.walk(tree):
            if scope is tree or isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(scope):
                    if (
                        isinstance(node, ast.Compare)
                        and isinstance(node.left, ast.Call)
                        and isinstance(node.left.func, ast.Name)
                        and node.left.func.id == "type"
                        and any(
                            isinstance(op, ast.IsNot) and isinstance(right, ast.Name)
                            and right.id == "int"
                            for op, right in zip(node.ops, node.comparators)
                        )
                    ):
                        owner[node] = getattr(scope, "name", "<module>")
        found += [f"{path.name}:{name}" for name in owner.values()]
    assert found == ["model.py:check_int"]


_MUTATORS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}


def _module_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_no_function_changes_module_level_state():
    # A table kept at module level outlives the call that filled it, so a
    # parse or a `cli.run` would see what an earlier one left there. A
    # function may read a module-level name, but never assigns into it
    # (`x[k] = ...`, `del x[k]`), calls a mutating method on it or
    # rebinds it with `global`.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_names = _module_names(tree)
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            # Names the function (or one nested in it) binds for itself.
            local = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)} | {
                node.id
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
            }
            shared = module_names - local

            def is_shared(node: ast.AST) -> bool:
                return isinstance(node, ast.Name) and node.id in shared

            for node in ast.walk(function):
                if isinstance(node, ast.Global):
                    found.append(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
                elif (
                    isinstance(node, ast.Subscript)
                    and not isinstance(node.ctx, ast.Load)
                    and is_shared(node.value)
                ) or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and is_shared(node.func.value)
                ):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_the_package_imports_the_standard_library_only():
    # The package has no dependencies: every absolute import, at any
    # depth, names a module of the standard library.
    foreign = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


_LAYERS = ("errors", "model", "core", "algebra", "readings", "dsl", "cli")


def test_each_module_imports_only_earlier_layers():
    # The modules form one order, each built on those before it; a
    # relative import, at any depth and also under `TYPE_CHECKING`,
    # names only an earlier module. The package `__init__` is left out.
    backward = []
    for rank, layer in enumerate(_LAYERS):
        path = SOURCE / f"{layer}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                backward += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in names
                    if name.split(".")[0] not in _LAYERS[:rank]
                ]
    assert backward == []
    assert {path.stem for path in SOURCE.glob("*.py")} == {"__init__", *_LAYERS}
