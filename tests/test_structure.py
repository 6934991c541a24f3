"""Structural rules of the package, checked on the syntax trees of its sources.

* A package module reads no private (``_underscore``) attribute of another
  package module, neither as ``module._name`` nor by ``from .module import _name``.
* A package module reads no private attribute that only another module's
  classes define (a method, a cached property, a ``self._x`` assignment, a
  class-level assignment or a ``__slots__`` entry), so a class's private
  state is read only by its own module.
* Every name in ``qtweave.__all__`` is used by code: by a package module other
  than ``__init__.py`` (outside the name's own definition) or by ``bench/``.
* Every public method of a package class is used by code: its name is read as
  an attribute in a package module (outside a definition of that name) or in
  ``bench/``.
* Package classes define no arithmetic operator (``__add__``, ``__mul__``, ...)
  outside ``ALLOWED_OPERATORS``, and each allowed one is run by a package
  module.  The rule above skips dunders, so this one keeps test-only operators
  out.  ``Field`` has no method that duplicates one of its tables.
* Only ``fields.py`` calls ``einsum``: ``fields.column_keys`` is the one
  keyer of columns, and a second einsum elsewhere would be a second keyer.
"""

import ast
from pathlib import Path

import pytest

import qtweave
from qtweave.fields import FieldTables

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qtweave"
MODULE_NAMES = {path.stem for path in PACKAGE.glob("*.py")}

_BINARY_OPERATORS = ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod", "pow")
ARITHMETIC_DUNDERS = ({f"__{prefix}{op}__" for op in _BINARY_OPERATORS for prefix in ("", "r", "i")}
                      - {"__idivmod__"}) | {"__neg__"}
# each operator a package class may define, with the builtin call that runs it
ALLOWED_OPERATORS = {"Poly.__divmod__": "divmod"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str) -> list[str]:
    """``module._name`` reads and ``_name`` imports of other package modules in one module."""
    tree = ast.parse(source)
    modules = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level != 1 and (node.module or "").partition(".")[0] != "qtweave":
                continue
            module = (node.module or "").rpartition(".")[2]
            if module in MODULE_NAMES:
                found += [f"{module}.{a.name}" for a in node.names if _is_private(a.name)]
            else:  # from the package itself, which binds its modules by name
                modules.update((a.asname or a.name, a.name)
                               for a in node.names if a.name in MODULE_NAMES)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.partition("qtweave.")[2]
                if module in MODULE_NAMES and alias.asname:
                    modules[alias.asname] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def class_private_attributes(source: str) -> set[str]:
    """Private attribute names a module's classes define: by def, self._x, class body or __slots__."""
    names = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                assigned = {target.id for target in targets if isinstance(target, ast.Name)}
                names |= assigned
                if "__slots__" in assigned:
                    names |= {n.value for n in ast.walk(stmt.value)
                              if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        names |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
                  and node.value.id == "self"}
    return {name for name in names if _is_private(name)}


def foreign_private_attributes(sources: dict[str, str]) -> list[str]:
    """``module: _name`` for each private attribute a module reads that only other modules'
    classes define."""
    defined = {name: class_private_attributes(source) for name, source in sources.items()}
    found = []
    for name, source in sources.items():
        read = {node.attr for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and _is_private(node.attr)}
        found += [f"{name}: {attr}" for attr in sorted(read - defined[name])
                  if any(attr in d for other, d in defined.items() if other != name)]
    return found


def referenced_names(source: str) -> set[str]:
    """Names and attributes a module reads, minus each top-level name's own definition."""
    names = set()
    for stmt in ast.parse(source).body:
        defined = set()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names -= defined
    return names


def class_methods(source: str) -> list[str]:
    """``Class.method`` for every method (properties and dunders included) of a module's classes."""
    return [f"{cls.name}.{fn.name}" for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]


def public_methods(source: str) -> list[str]:
    """``Class.method`` for every public method (properties included) of a module's classes."""
    return [name for name in class_methods(source) if not name.partition(".")[2].startswith("_")]


def arithmetic_dunders(source: str) -> list[str]:
    """``Class.__op__`` for every arithmetic operator defined by a module's classes."""
    return [name for name in class_methods(source) if name.partition(".")[2] in ARITHMETIC_DUNDERS]


def builtin_calls(source: str) -> set[str]:
    """Names called as plain functions in a module, such as ``divmod`` in ``divmod(a, b)``."""
    return {node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def einsum_calls(source: str) -> int:
    """Calls of ``einsum`` in a module, as ``np.einsum(...)`` or as a plain name."""
    return sum(1 for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
               and "einsum" in (getattr(node.func, "attr", None), getattr(node.func, "id", None)))


def attributes_read_outside_own_def(source: str) -> set[str]:
    """Attribute names a module reads (``x.name``), except reads inside a def of that name.

    A method is only reached as an attribute, so a plain variable that shares
    its name does not count as a use.
    """
    names = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return names


@pytest.mark.parametrize("source, expected", [
    ("from . import construction\nconstruction._rank(1)", ["construction._rank"]),
    ("from . import construction as c\nc._rank(1)", ["construction._rank"]),
    ("from .construction import _rank, build_two_weight", ["construction._rank"]),
    ("from qtweave.analysis import _CHUNK_ENTRIES", ["analysis._CHUNK_ENTRIES"]),
    ("import qtweave.cli as cli\ncli._load_fixture('x')", ["cli._load_fixture"]),
    ("from . import construction\nconstruction.build_two_weight(s, 2)", []),
    ("def f(self):\n    return self._cache", []),
])
def test_private_reads_detects_cross_module_access(source, expected):
    assert private_reads(source) == expected


def test_class_private_attributes_helper():
    source = ("class A:\n    __slots__ = ('_s', 'p')\n    _k = 1\n\n    def __init__(self):\n"
              "        self._x = self.y = 1\n\n    @cached_property\n    def _c(self):\n"
              "        return other._z\n\n    def _m(self):\n        return 0\n")
    assert class_private_attributes(source) == {"_s", "_k", "_x", "_c", "_m"}


def test_foreign_private_attributes_detects_a_private_table_read_across_modules():
    owner = "class S:\n    @cached_property\n    def _pred(self):\n        return self._ext\n"
    sources = {"construction.py": owner, "analysis.py": "def f(s):\n    return s._pred, s._other\n"}
    assert foreign_private_attributes(sources) == ["analysis.py: _pred"]
    assert foreign_private_attributes({**sources, "analysis.py": owner}) == []


def test_einsum_calls_helper():
    source = ("import numpy as np\nfrom numpy import einsum\n"
              "np.einsum('i->', a)\neinsum('i->', a)\nnp.sum(a)\n")
    assert einsum_calls(source) == 2


def test_referenced_names_ignore_own_definition():
    source = "def f(n):\n    return f(n - 1)\n\ndef g():\n    return h.k\n"
    assert {"f", "g"}.isdisjoint(referenced_names(source))
    assert {"h", "k", "n"} <= referenced_names(source)


def test_method_helpers():
    source = ("class A:\n    def f(self):\n        return self.f()\n\n"
              "    @property\n    def g(self):\n        return self.h\n\n"
              "    def _p(self):\n        return A().g\n\n    def __eq__(self, other):\n        return 0\n")
    assert public_methods(source) == ["A.f", "A.g"]
    assert {"f", "_p", "A"}.isdisjoint(attributes_read_outside_own_def(source))
    assert {"g", "h"} <= attributes_read_outside_own_def(source)


def test_operator_helpers():
    source = ("class A:\n    def __add__(self, o):\n        return divmod(self, o)\n\n"
              "    def __rmul__(self, o):\n        return self\n\n    def __neg__(self):\n        return self\n\n"
              "    def __eq__(self, o):\n        return 0\n\n    def __divmod__(self, o):\n        return 0\n")
    assert arithmetic_dunders(source) == ["A.__add__", "A.__rmul__", "A.__neg__", "A.__divmod__"]
    assert builtin_calls(source) == {"divmod"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_reads(path):
    assert private_reads(path.read_text()) == []


def test_no_module_reads_another_modules_private_class_attributes():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert foreign_private_attributes(sources) == []


def test_every_public_name_is_used_outside_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").glob("*.py")
    used = set().union(*(referenced_names(p.read_text()) for p in sources))
    assert sorted(set(qtweave.__all__) - used) == []


def test_every_public_method_is_used_outside_tests():
    package = [p.read_text() for p in PACKAGE.glob("*.py")]
    bench = [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    used = set().union(*(attributes_read_outside_own_def(source) for source in package + bench))
    methods = [name for source in package for name in public_methods(source)]
    assert methods and sorted(m for m in methods if m.partition(".")[2] not in used) == []


def test_only_allowed_arithmetic_operators_are_defined_and_each_is_run():
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    defined = sorted(name for source in sources for name in arithmetic_dunders(source))
    assert defined == sorted(ALLOWED_OPERATORS)
    calls = set().union(*(builtin_calls(source) for source in sources))
    assert set(ALLOWED_OPERATORS.values()) <= calls


def test_field_arithmetic_is_its_tables():
    methods = {name.partition(".")[2] for name in class_methods((PACKAGE / "fields.py").read_text())
               if name.startswith("Field.")}
    assert "tables" in methods and methods.isdisjoint(FieldTables._fields)


def test_only_fields_calls_einsum():
    calls = {p.name: einsum_calls(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: count for name, count in calls.items() if count} == {"fields.py": 1}
