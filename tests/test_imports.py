"""Every name a library module imports is used in that module, and only
``errors._show`` imports inside a function body."""

import ast
from pathlib import Path

import pytest

import pimod

MODULES = sorted(p for p in Path(pimod.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "int | Fuel | None"
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert unused == {}, f"{path.name} imports names it never uses"


# ``errors._show`` imports the printer lazily: ``syntax`` imports every
# module that raises these errors, so a top-level import would be a cycle
LOCAL_IMPORTS_ALLOWED = {("errors.py", "_show")}


PACKAGE = Path(pimod.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn)):
                local.add((path.name, fn.name))
    assert local <= LOCAL_IMPORTS_ALLOWED, f"{path.name} imports inside a function"
