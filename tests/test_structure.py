"""Structural rules of the package, checked on the syntax trees of its sources.

* A package module reads no private (``_underscore``) attribute of another
  package module, neither as ``module._name`` nor by ``from .module import _name``.
* Every name in ``qtweave.__all__`` is used by code: by a package module other
  than ``__init__.py`` (outside the name's own definition) or by ``bench/``.
"""

import ast
from pathlib import Path

import pytest

import qtweave

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qtweave"
MODULE_NAMES = {path.stem for path in PACKAGE.glob("*.py")}


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


@pytest.mark.parametrize("source, expected", [
    ("from . import construction\nconstruction._rank(1)", ["construction._rank"]),
    ("from . import construction as c\nc._rank(1)", ["construction._rank"]),
    ("from .construction import _rank, build_two_weight", ["construction._rank"]),
    ("from qtweave.spectrum import _CHUNK_ENTRIES", ["spectrum._CHUNK_ENTRIES"]),
    ("import qtweave.cli as cli\ncli._load_fixture('x')", ["cli._load_fixture"]),
    ("from . import construction\nconstruction.build_two_weight(s, 2)", []),
    ("def f(self):\n    return self._cache", []),
])
def test_private_reads_detects_cross_module_access(source, expected):
    assert private_reads(source) == expected


def test_referenced_names_ignore_own_definition():
    source = "def f(n):\n    return f(n - 1)\n\ndef g():\n    return h.k\n"
    assert {"f", "g"}.isdisjoint(referenced_names(source))
    assert {"h", "k", "n"} <= referenced_names(source)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_reads(path):
    assert private_reads(path.read_text()) == []


def test_every_public_name_is_used_outside_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").glob("*.py")
    used = set().union(*(referenced_names(p.read_text()) for p in sources))
    assert sorted(set(qtweave.__all__) - used) == []
