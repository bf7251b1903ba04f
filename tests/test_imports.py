"""Every name a library module imports is used in that module, and only
``errors._show`` imports inside a function body.  No table is written
under an ``id()`` key except through ``NodeMemo.put``, and every top-level
definition and method of the library has a user outside the tests."""

import ast
from pathlib import Path

import pytest

import pimod

PACKAGE = Path(pimod.__file__).parent

# every module but the package's own __init__, which imports to re-export;
# a subpackage's __init__ is a module like any other
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def _id(p: Path) -> str:
    return p.relative_to(PACKAGE).as_posix()


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


@pytest.mark.parametrize("path", MODULES, ids=_id)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert unused == {}, f"{path.name} imports names it never uses"


# ``errors._show`` imports the printer lazily: ``syntax`` imports every
# module that raises these errors, so a top-level import would be a cycle
LOCAL_IMPORTS_ALLOWED = {("errors.py", "_show")}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=_id)
def test_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn)):
                local.add((path.name, fn.name))
    assert local <= LOCAL_IMPORTS_ALLOWED, f"{path.name} imports inside a function"


def _builds_on_id(node: ast.AST, tainted: set[str]) -> bool:
    """Does the expression call ``id()`` or read a name bound to such a call?"""
    return any((isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id")
               or (isinstance(n, ast.Name) and n.id in tainted)
               for n in ast.walk(node))


def _own_nodes(fn: ast.AST):
    """The nodes of a function body, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        n = stack.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(n))


# methods that store under their first argument
_KEYED_WRITES = {"add", "setdefault", "__setitem__", "fromkeys"}


def _written_key(n: ast.AST) -> ast.AST | None:
    """The key ``n`` stores under, if ``n`` writes a dict or a set."""
    if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store):
        return n.slice
    if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in _KEYED_WRITES and n.args):
        return n.args[0]
    if isinstance(n, ast.Dict):
        return ast.Tuple([k for k in n.keys if k is not None], ast.Load())
    if isinstance(n, ast.Set):
        return ast.Tuple(n.elts, ast.Load())
    if isinstance(n, ast.DictComp):
        return n.key
    if isinstance(n, ast.SetComp):
        return n.elt
    return None


def _id_keyed_writes(fn: ast.AST, tainted: set[str]) -> list[int]:
    """Lines in ``fn`` and the functions nested in it that write a dict or a
    set under a key built from ``id()``.  A name bound to an expression
    built from ``id()`` is such a key too, also in the nested functions."""
    own = list(_own_nodes(fn))
    bound = [(t.id, n.value) for n in own
             if isinstance(n, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and n.value is not None
             for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
             if isinstance(t, ast.Name)]
    while True:
        more = {name for name, value in bound if _builds_on_id(value, tainted)} - tainted
        if not more:
            break
        tainted = tainted | more
    lines = []
    for n in own:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines += _id_keyed_writes(n, tainted)
        else:
            key = _written_key(n)
            if key is not None and _builds_on_id(key, tainted):
                lines.append(n.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=_id)
def test_identity_keyed_tables_are_node_memos(path):
    """A table keyed by ``id()`` is written only through ``NodeMemo.put``,
    which keeps the key's nodes alive so that no id is reused while the
    table lives."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _id_keyed_writes(tree, set()) == [], \
        f"{path.name} writes a table under an id() key other than through NodeMemo.put"


# definitions that nothing in the library, the scripts or the bench calls by
# name, by module and qualified name, with the reason each stays
UNREFERENCED_ALLOWED = {
    ("cli.py", "_ArgumentParser.error"): "argparse calls it by name on a usage error",
}

# names a package module is imported under, so ``epts.elaborate`` reads a
# top-level definition and ``m.elaborate`` a method
MODULE_NAMES = {"pimod"} | {p.stem for p in MODULES if p.parent == PACKAGE} | {
    p.name for p in PACKAGE.iterdir() if (p / "__init__.py").exists()}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _binds(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds for itself: its
    parameters or targets, and each name its own body stores, defines,
    imports or captures, less the names it declares global or nonlocal.
    A name a comprehension's walrus stores binds in the function around it."""
    if isinstance(scope, _COMPREHENSIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    a = scope.args
    bound = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
    declared: set[str] = set()
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            bound.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(n.name)
            continue
        elif isinstance(n, ast.alias):
            bound.add((n.asname or n.name).split(".")[0])
        elif isinstance(n, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and n.name:
            bound.add(n.name)
        elif isinstance(n, ast.MatchMapping) and n.rest:
            bound.add(n.rest)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            declared.update(n.names)
        if isinstance(n, ast.Lambda):
            continue
        if isinstance(n, _COMPREHENSIONS):
            stack += [k for k in ast.iter_child_nodes(n) if not isinstance(k, ast.comprehension)]
            stack += [e for g in n.generators for e in (g.iter, *g.ifs)]
            continue
        stack.extend(ast.iter_child_nodes(n))
    return bound - declared


def _read(node: ast.AST, own: str | None, own_method: str | None,
          names: set[str], attrs: set[str]) -> None:
    """Add the names ``node`` reads to ``names`` (plain and imported names,
    and attributes of a package module: references to a top-level
    definition) and to ``attrs`` (any other attribute: references to a
    method), except a definition's references to itself.  A name that a
    function, lambda or comprehension around the read binds is a local
    read, not a reference."""
    def visit(n: ast.AST, hidden: frozenset[str]) -> None:
        if isinstance(n, ast.Name):
            if n.id != own and n.id not in hidden:
                names.add(n.id)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Attribute):
            if isinstance(n.value, ast.Name) and n.value.id in MODULE_NAMES:
                names.add(n.attr)
            elif n.attr != own_method:
                attrs.add(n.attr)
        if isinstance(n, _FUNCTIONS):
            # decorators, defaults and annotations are read where the
            # function is defined, the body in the function's own scope
            a = n.args
            outer = [*getattr(n, "decorator_list", ()), *a.defaults, *filter(None, a.kw_defaults),
                     *(p.annotation for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                              a.vararg, a.kwarg) if p and p.annotation)]
            if getattr(n, "returns", None):
                outer.append(n.returns)
            for part in outer:
                visit(part, hidden)
            inner = hidden | _binds(n)
            for stmt in (n.body if isinstance(n.body, list) else [n.body]):
                visit(stmt, inner)
            return
        if isinstance(n, _COMPREHENSIONS):
            hidden = hidden | _binds(n)
        for k in ast.iter_child_nodes(n):
            visit(k, hidden)
    visit(node, frozenset())


def _references(tree: ast.Module, names: set[str], attrs: set[str]) -> None:
    """:func:`_read` over a module, each method excluding itself."""
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, _DEFS) else None
        if not isinstance(stmt, ast.ClassDef):
            _read(stmt, own, None, names, attrs)
            continue
        for part in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
            _read(part, own, None, names, attrs)
        for item in stmt.body:
            method = item.name if isinstance(item, _DEFS) else None
            _read(item, own, method, names, attrs)


def _definitions(tree: ast.Module):
    """(qualified name, name, is a method) of each top-level function and
    class and of each method of a top-level class, except the special
    methods Python calls by their names."""
    for stmt in tree.body:
        if isinstance(stmt, _DEFS):
            yield stmt.name, stmt.name, False
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{stmt.name}.{item.name}", item.name, True


def _unused() -> set[tuple[str, str]]:
    """(module, qualified name) of each definition that nothing in ``src``,
    ``scripts`` or ``bench`` references."""
    root = PACKAGE.parent.parent
    names: set[str] = set()
    attrs: set[str] = set()
    for folder in ("src", "scripts", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            _references(ast.parse(path.read_text(), filename=str(path)), names, attrs)
    unused = set()
    for path in MODULES:
        for qualified, name, method in _definitions(ast.parse(path.read_text(),
                                                              filename=str(path))):
            if name not in (attrs if method else names):
                unused.add((_id(path), qualified))
    return unused


def test_every_library_definition_is_used():
    """Every top-level function and class of the package, and every method
    of its classes, is referenced from ``src``, ``scripts`` or ``bench``,
    not only from the tests.  A top-level definition is referenced by its
    name, a method by an attribute of that name, so a method never hides
    an unused function of the same name, nor a function a method."""
    assert _unused() <= UNREFERENCED_ALLOWED.keys(), \
        "definitions that nothing outside the tests uses"
