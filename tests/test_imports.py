"""Every module in src/ and tests/ uses each name it imports, and src/ reads
each private name it defines.

No linter ships with the project, so this walks each module's syntax tree with
the standard library: a name bound by an import statement must be read
somewhere in the same module.  `from __future__` imports and the two package
`__init__.py` modules, whose imports are re-exports, are exempt.  A private
module-level name (leading underscore, not a dunder) defined in src/ must be
read by some module of src/: the tests alone do not keep it alive.
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


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name that no module in
    `sources` (module name -> source) reads, as a name, attribute or import."""
    defined, read = [], set()
    for mod, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(mod, node.lineno, n) for n in names
                        if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_unread_private_names_are_found():
    sources = {
        "a": "_used = 1\n_dead = 2\n__all__ = []\ndef _helper(): pass\nclass _Kept: pass\n"
             "def f():\n    _local = 3\n    return _used\n",
        "b": "from a import _Kept\nimport a\na._other\n_other, _x = 1, 2\n",
    }
    assert unread_private_names(sources) == [("a", 2, "_dead"), ("a", 4, "_helper"), ("b", 4, "_x")]


def test_src_reads_every_private_name_it_defines():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in (ROOT / "src").rglob("*.py")}
    assert unread_private_names(sources) == []
