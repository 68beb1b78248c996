"""Every module in src/ and tests/ uses each name it imports.

No linter ships with the project, so this walks each module's syntax tree with
the standard library: a name bound by an import statement must be read
somewhere in the same module.  `from __future__` imports and the two package
`__init__.py` modules, whose imports are re-exports, are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REEXPORTS = {ROOT / "src" / "modspec" / "__init__.py",
             ROOT / "src" / "modspec" / "harness" / "__init__.py"}
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p not in REEXPORTS)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    src = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c\nc()\n"
    assert unused_imports(src) == [(2, "np"), (2, "os"), (3, "b")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
