"""The package's module layering: every import sits at module level, every
name a module imports is read in it, every absolute import is of the
standard library, the graph of ``from .module import`` edges between its
modules is acyclic, and no module reads a private attribute by name
through ``getattr``."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cliquebounds"
MODULES = sorted(PACKAGE.glob("*.py"))


def package_imports(tree: ast.Module) -> set[str]:
    """The sibling modules named by the relative imports anywhere in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def test_modules_found():
    assert {m.stem for m in MODULES} >= {"graphs", "weights", "extremal", "bounds", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [
        f"{path.name}:{inner.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(fn)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    # the package declares no dependencies, while the test extra installs
    # networkx and hypothesis beside it
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.lineno, node.module))
    outside = [f"{path.name}:{line} {name}" for line, name in imported
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_module_imports_are_acyclic():
    graph = {m.stem: package_imports(ast.parse(m.read_text())) for m in MODULES}
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]):
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path + (module,)))
        if module in done:
            return
        for dep in sorted(graph.get(module, ())):
            visit(dep, path + (module,))
        done.add(module)

    for module in graph:
        visit(module, ())


def module_level_imports(tree: ast.Module) -> set[str]:
    """The names bound by a module's top-level import statements, past
    ``from __future__``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).partition(".")[0] for a in node.names)
    return out


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(module_level_imports(tree) - read) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_getattr_of_a_private_name(path):
    # a hidden attribute read by name is a second form of a fact that a
    # field or a return value should carry
    tree = ast.parse(path.read_text(), filename=str(path))
    hidden = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and str(node.args[1].value).startswith("_")
    ]
    assert hidden == []
