"""Hygiene of the package modules, checked on their syntax trees.

Four rules: a module uses every name it imports (``__init__.py`` is
exempt, since its imports are the package's re-exports); no function
imports a package module locally, since such imports go at the top of
the module, where every reader sees the module's dependencies; every
exception class in ``errors.py`` is raised somewhere in the package, or
is a base class of one that is, so the taxonomy holds no dead types; and
every private module-level name (one underscore, not a dunder) is read
somewhere in the package, so no helper or constant outlives its caller.
"""

import ast
from pathlib import Path

import pytest

import pvdisagg

MODULES = sorted(Path(pvdisagg.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_name(alias):
    return (alias.asname or alias.name).split(".")[0]


def unused_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                imported[_bound_name(alias)] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def local_package_imports(tree) -> list:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0
                    or (node.module or "").split(".")[0] == "pvdisagg"):
                found.append(f"{func.name} (line {node.lineno})")
    return found


def unraised_exceptions(errors_tree, trees) -> list:
    """Exception classes of errors_tree that no raise statement in trees
    names, directly or through a subclass."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in errors_tree.body if isinstance(node, ast.ClassDef)}
    live = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                if isinstance(exc, ast.Name):
                    live.add(exc.id)
    stack = list(live)
    while stack:
        for base in bases.get(stack.pop(), []):
            if base not in live:
                live.add(base)
                stack.append(base)
    return sorted(set(bases) - live)


def _private(name) -> bool:
    return name.startswith("_") and not name.startswith("__")


def orphan_private_names(trees) -> list:
    """Private module-level functions, classes and constants of trees
    that no tree loads, by name, as an attribute or through an import."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    orphans = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [(t.id, node.lineno) for target in targets
                         for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"{name} (line {line})" for name, line in names
                        if _private(name) and name not in loaded]
    return sorted(orphans)


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_package_import(path):
    assert local_package_imports(_tree(path)) == []


def test_every_exception_is_raised():
    errors = next(p for p in MODULES if p.name == "errors.py")
    assert unraised_exceptions(_tree(errors),
                               [_tree(p) for p in MODULES]) == []


def test_every_private_name_is_used():
    assert orphan_private_names([_tree(p) for p in MODULES]) == []


def test_checks_catch_what_they_forbid():
    tree = ast.parse("import os\nfrom .x import y, z as w\n"
                     "def f():\n    from .timeseries import mask_night\n"
                     "    from scipy.optimize import nnls\n"
                     "    return y, nnls\n")
    assert unused_imports(tree) == ["mask_night (line 4)", "os (line 1)",
                                    "w (line 2)"]
    assert local_package_imports(tree) == ["f (line 4)"]
    errors = ast.parse("class E(Exception): pass\n"
                       "class Base(E): pass\n"
                       "class Used(Base): pass\n"
                       "class Dead(Base): pass\n")
    user = ast.parse("def f(x):\n"
                     "    if x:\n        raise Used('no')\n"
                     "    raise ValueError\n")
    assert unraised_exceptions(errors, [user]) == ["Dead"]
    module = ast.parse("_LIMIT = 3\n_TOL, _OLD = 1e-9, 2\n__all__ = []\n"
                       "def _helper():\n    return _LIMIT\n"
                       "def _orphan():\n    return _helper()\n"
                       "class _Dead: pass\n")
    other = ast.parse("from .m import _TOL\n")
    assert orphan_private_names([module, other]) == [
        "_Dead (line 8)", "_OLD (line 2)", "_orphan (line 6)"]
