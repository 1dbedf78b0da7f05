"""Hygiene of the package modules, checked on their syntax trees.

Eleven rules: a module uses every name it imports (``__init__.py`` is
exempt, since its imports are the package's re-exports); no function
imports a package module locally, since such imports go at the top of
the module, where every reader sees the module's dependencies; every
exception class in ``errors.py`` is raised somewhere in the package, or
is a base class of one that is, so the taxonomy holds no dead types;
every exception class in ``errors.py`` is named by some ``except``
clause in the package, or is a base class of one that is, since a type
no handler tells apart from its family is a message, not a distinction;
every private module-level name (one underscore, not a dunder) is read
somewhere in the package, so no helper or constant outlives its caller;
only ``methods.fit`` reads ``perf_counter``, so every reported time
of a fit is one reading of one clock; no function has a list, dict or
set, or a call, as a default, since such a default is built once, shared
by every call, and mutable (sequence defaults are tuples); and every
defaulted parameter or dataclass field is set by some call or statement
in the package, the acceptance tests or the benchmark harness, since a
setting no caller varies is a constant, and belongs next to the code that
reads it; and no ``assert`` statement checks anything in the package,
since ``python -O`` strips them, and an invariant must hold under it
(the package raises ``AssertionError`` explicitly instead); no module
imports ``scipy.signal``, by statement or ``import_module``, since
loading it pulls in ``scipy.stats`` and costs more time and memory than
every fit of a sweep, while the band-pass filter needs numpy only; and
the package imports no scipy module at all, since every solver is numpy
only, so that no command loads scipy.
"""

import ast
from pathlib import Path

import pytest

import pvdisagg

MODULES = sorted(Path(pvdisagg.__file__).parent.glob("*.py"))
# callers that may vary a package setting: the package itself, the
# acceptance criteria and the benchmark harness (read, never written)
CALLERS = MODULES + [Path(__file__).with_name("test_acceptance.py"),
                     *sorted((Path(__file__).resolve().parents[1]
                              / "perfbench").glob("*.py"))]


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


def _unnamed(errors_tree, named) -> list:
    """Classes of errors_tree that are neither in named nor a base, in
    turn, of one that is."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in errors_tree.body if isinstance(node, ast.ClassDef)}
    live = set(named)
    stack = list(live)
    while stack:
        for base in bases.get(stack.pop(), []):
            if base not in live:
                live.add(base)
                stack.append(base)
    return sorted(set(bases) - live)


def unraised_exceptions(errors_tree, trees) -> list:
    """Exception classes of errors_tree that no raise statement in trees
    names, directly or through a subclass."""
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return _unnamed(errors_tree, raised)


def uncaught_exceptions(errors_tree, trees) -> list:
    """Exception classes of errors_tree that no except clause in trees
    names, directly or through a subclass."""
    caught = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                caught.update(t.id for t in types if isinstance(t, ast.Name))
    return _unnamed(errors_tree, caught)


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


def clock_reads(tree) -> list:
    """Every read of perf_counter in tree, by name or as an attribute,
    tagged with its innermost enclosing function (``<module>`` outside
    any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Name) and child.id == "perf_counter")
                    or (isinstance(child, ast.Attribute)
                        and child.attr == "perf_counter")):
                found.append(f"{owner} (line {child.lineno})")
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
    visit(tree, "<module>")
    return found


_BUILT_DEFAULTS = (ast.List, ast.Dict, ast.Set, ast.Call, ast.ListComp,
                   ast.DictComp, ast.SetComp)


def built_defaults(tree) -> list:
    """Every default of a function or lambda in tree that is a list, dict
    or set display or comprehension, or a call."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            name = getattr(func, "name", "<lambda>")
            found += [f"{name} (line {d.lineno})"
                      for d in func.args.defaults + func.args.kw_defaults
                      if isinstance(d, _BUILT_DEFAULTS)]
    return found


def _defaulted(func, method: bool) -> list:
    """(position or None, name) of every defaulted parameter of func; a
    method's first parameter (self or cls) takes no position, since the
    package has no static methods."""
    args = func.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    n_req = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= n_req]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
               if d is not None])


def _fields(cls) -> list:
    """(position, name) of every defaulted field of a dataclass cls; []
    for any other class."""
    if not any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in cls.decorator_list):
        return []
    fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)]
    return [(i, node.target.id) for i, node in enumerate(fields)
            if node.value is not None]


def _calls(tree):
    """(callee name, call) of every call in tree; ``cls(...)`` inside a
    class calls that class."""
    owner = {}
    for node in ast.walk(tree):  # outer classes first, so inner ones win
        if isinstance(node, ast.ClassDef):
            owner.update({call: node.name for call in ast.walk(node)
                          if isinstance(call, ast.Call)
                          and getattr(call.func, "id", None) == "cls"})
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            yield owner.get(call, getattr(call.func, "id", getattr(
                call.func, "attr", None))), call


def unpassed_defaults(trees, caller_trees) -> list:
    """Defaulted parameters of the functions and methods of trees, and
    defaulted fields of their dataclasses, that nothing in caller_trees
    sets.  A call sets what it passes by keyword or by position; calls
    match by name (a class call counts for its ``__init__`` and its
    fields), and a call with ``*args`` or ``**kwargs`` sets every
    parameter and field.  A field is also set by any assignment to an
    attribute of its name, except through ``self``, which only
    normalizes a value some caller passed."""
    passed = {}     # callee name -> positions and keywords some call passes
    spread = set()  # callee names some call gives *args or **kwargs
    assigned = set()  # attribute names a statement stores, not via self
    for tree in caller_trees:
        for name, call in _calls(tree):
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                spread.add(name)
            passed.setdefault(name, set()).update(
                {*range(len(call.args)), *(k.arg for k in call.keywords)})
        assigned.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) != "self")
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls if cls and child.name == "__init__" else child.name
                seen = passed.get(name, set())
                found.extend(
                    f"{child.name}({param}) (line {child.lineno})"
                    for pos, param in _defaulted(child, cls is not None)
                    if name not in spread and pos not in seen
                    and param not in seen)
            elif isinstance(child, ast.ClassDef):
                seen = passed.get(child.name, set())
                found.extend(
                    f"{child.name}.{param} (line {child.lineno})"
                    for pos, param in _fields(child)
                    if child.name not in spread and pos not in seen
                    and param not in seen and param not in assigned)
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else None)
    for tree in trees:
        visit(tree, None)
    return found


def assert_statements(tree) -> list:
    """Every assert statement in tree, by line."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def scipy_imports(tree) -> list:
    """Every import of scipy or a name in it in tree, by an import
    statement or an import_module call, as (owner, name, line) with owner
    the innermost enclosing function (``<module>`` outside any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [f"{child.module}.{alias.name}"
                         for alias in child.names]
            elif isinstance(child, ast.Call) and getattr(
                    child.func, "attr", getattr(child.func, "id", None)
            ) == "import_module":
                names = [a.value for a in child.args
                         if isinstance(a, ast.Constant)]
            else:
                names = []
            found.extend((owner, name, child.lineno) for name in names
                         if name == "scipy" or name.startswith("scipy."))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
    visit(tree, "<module>")
    return found


def scipy_signal_imports(tree) -> list:
    """The lines of tree that import scipy.signal or a name in it."""
    return list(dict.fromkeys(
        f"line {line}" for _, name, line in scipy_imports(tree)
        if name == "scipy.signal" or name.startswith("scipy.signal.")))


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


def test_every_exception_is_caught():
    errors = next(p for p in MODULES if p.name == "errors.py")
    assert uncaught_exceptions(_tree(errors),
                               [_tree(p) for p in MODULES]) == []


def test_every_private_name_is_used():
    assert orphan_private_names([_tree(p) for p in MODULES]) == []


def test_only_fit_reads_the_clock():
    reads = {p.name: clock_reads(_tree(p)) for p in MODULES}
    assert {r.split()[0] for r in reads.pop("methods.py")} == {"fit"}
    assert sum(reads.values(), []) == []


def test_no_default_is_built_once_and_shared():
    assert sum((built_defaults(_tree(p)) for p in MODULES), []) == []


def test_every_default_is_passed_by_some_call():
    assert unpassed_defaults([_tree(p) for p in MODULES],
                             [_tree(p) for p in CALLERS]) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_statements(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_signal_import(path):
    assert scipy_signal_imports(_tree(path)) == []


def test_no_scipy_import():
    assert sum((scipy_imports(_tree(path)) for path in MODULES), []) == []


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
    handler = ast.parse("try:\n    f(1)\nexcept (Base, OSError):\n"
                        "    pass\nexcept ValueError as exc:\n"
                        "    raise Dead('x') from exc\n")
    assert uncaught_exceptions(errors, [user, handler]) == ["Dead", "Used"]
    module = ast.parse("_LIMIT = 3\n_TOL, _OLD = 1e-9, 2\n__all__ = []\n"
                       "def _helper():\n    return _LIMIT\n"
                       "def _orphan():\n    return _helper()\n"
                       "class _Dead: pass\n")
    other = ast.parse("from .m import _TOL\n")
    assert orphan_private_names([module, other]) == [
        "_Dead (line 8)", "_OLD (line 2)", "_orphan (line 6)"]
    clocks = ast.parse("import time\nT0 = time.perf_counter()\n"
                       "def solve():\n    from time import perf_counter\n"
                       "    def step():\n        return perf_counter()\n"
                       "    return step() - T0\n")
    assert clock_reads(clocks) == ["<module> (line 2)", "step (line 6)"]
    defaults = ast.parse("def f(a=(), b=None, *, c=[], d={1: 2}):\n"
                         "    g = lambda x=set(): x\n    return g\n"
                         "def h(e=(0,), f=list(range(3))):\n    pass\n")
    assert built_defaults(defaults) == [
        "f (line 1)", "f (line 1)", "h (line 4)", "<lambda> (line 2)"]
    settings = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                         "class K:\n"
                         "    def __init__(self, x, y=0, z=0):\n"
                         "        pass\n"
                         "    def m(self, w=None):\n        pass\n"
                         "def g(u=0, v=0):\n    pass\n")
    calls = ast.parse("f(0, 5, d=1)\nK(1, 2)\nk.m()\ng(*args)\n")
    assert unpassed_defaults([settings], [settings, calls]) == [
        "f(c) (line 1)", "__init__(z) (line 4)", "m(w) (line 6)"]
    fields = ast.parse("@dataclass\nclass P:\n    h: object\n"
                       "    f: float = 0.0\n    beta: float = 1e-4\n"
                       "    tol: float = 1e-6\n    wall: float = 0.0\n"
                       "    def __post_init__(self):\n"
                       "        self.tol = float(self.tol)\n"
                       "@dataclass(frozen=True)\nclass S:\n"
                       "    seed: int = 0\n    days: int = 3\n"
                       "    @classmethod\n    def from_dict(cls, d):\n"
                       "        return cls(**d)\n"
                       "class Plain:\n    n: int = 0\n")
    sets = ast.parse("P(h, 1.0)\nreport.wall = 2.0\n")
    assert unpassed_defaults([fields], [fields, sets]) == [
        "P.beta (line 2)", "P.tol (line 2)"]
    asserts = ast.parse("def f(x):\n    assert x > 0, 'x'\n"
                        "    if x:\n        raise AssertionError(x)\n"
                        "    assert x\n")
    assert assert_statements(asserts) == ["line 2", "line 5"]
    loads = ast.parse("import scipy.signal as ss\nimport scipy.sparse\n"
                      "from scipy import signal, optimize\n"
                      "from scipy.signal import butter\n"
                      "def f():\n"
                      "    importlib.import_module('scipy.signal')\n"
                      "    import_module('scipy.optimize')\n"
                      "    from scipy.signalling import x\n")
    assert scipy_signal_imports(loads) == ["line 1", "line 3", "line 4",
                                           "line 6"]
    assert scipy_imports(loads) == [
        ("<module>", "scipy.signal", 1), ("<module>", "scipy.sparse", 2),
        ("<module>", "scipy.signal", 3), ("<module>", "scipy.optimize", 3),
        ("<module>", "scipy.signal.butter", 4), ("f", "scipy.signal", 6),
        ("f", "scipy.optimize", 7), ("f", "scipy.signalling.x", 8)]
