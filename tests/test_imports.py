"""No module of the package or of the tests imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports only to re-export, so its names are used elsewhere.
MODULES = sorted(p for p in [*(ROOT / "src" / "proficert").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
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
