"""No module of the package or of the tests imports a name it never uses, and
no helper of the package, private or public, is kept for the tests alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports only to re-export, so its names are used elsewhere.
PACKAGE = sorted((ROOT / "src" / "proficert").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement of ``source`` that no other
    expression names, as ``(line, name)`` pairs."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a.b import c as d, e\nprint(e)\n"
    assert unused_imports(source) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list:
    """Private names (``_x``, not dunder) that ``source`` binds at module
    level, as ``(line, name)`` pairs."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in defined
            if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set:
    """Names that ``source`` reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_scan_finds_an_unread_private_definition():
    source = "_A = 1\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n"
    assert private_definitions(source) == [(1, "_A"), (3, "_f"), (5, "_C")]
    assert {"_A"} <= read_names(source) and not {"_f", "_C"} & read_names(source)


def test_every_private_definition_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE}
    read = set().union(*map(read_names, sources.values()))
    unread = [(name, line, defined) for name, source in sources.items()
              for line, defined in private_definitions(source) if defined not in read]
    assert unread == []


def public_definitions(source: str) -> list:
    """Public functions and classes that ``source`` defines at module level,
    each class followed by its public methods, as ``(line, name)`` pairs."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            defined += [(n.lineno, n.name) for n in node.body if isinstance(n, ast.FunctionDef)]
    return [(line, name) for line, name in defined if not name.startswith("_")]


def kept_for_tests(sources: dict, texts) -> list:
    """Public definitions of ``sources`` (file name -> source) that no
    module but ``__init__.py`` reads and no text of ``texts`` names, as
    ``(file name, line, name)`` triples."""
    read = set().union(*(read_names(source) for name, source in sources.items()
                         if name != "__init__.py"))
    named = set().union(*(re.findall(r"\w+", text) for text in texts))
    return [(name, line, defined) for name, source in sources.items()
            for line, defined in public_definitions(source)
            if defined not in read and defined not in named]


def test_scan_finds_a_test_only_public_definition():
    # an attribute store (g.f = ...) does not read f
    source = ("def f():\n    return g()\ndef g():\n    pass\nclass C:\n"
              "    def m(self):\n        return self._p()\n    def _p(self):\n        pass\n"
              "g.f = None\n")
    assert public_definitions(source) == [(1, "f"), (3, "g"), (5, "C"), (6, "m")]
    sources = {"mod.py": source, "__init__.py": "from .mod import C\nC.m\n"}
    assert kept_for_tests(sources, []) == [
        ("mod.py", 1, "f"), ("mod.py", 5, "C"), ("mod.py", 6, "m")]
    assert kept_for_tests(sources, ["bench(mod.f)", "calls `m()`"]) == [("mod.py", 5, "C")]


def test_every_public_definition_runs_outside_the_tests():
    # the package reads it, the benchmark binds it, or README documents it
    sources = {p.name: p.read_text() for p in PACKAGE}
    texts = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    assert kept_for_tests(sources, texts) == []
