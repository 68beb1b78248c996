"""Every module in src/ and tests/ uses each name it imports, src/ reads each
private name it defines, and src/ or the benchmark reads each public function
and class that src/ defines.

No linter ships with the project, so this walks each module's syntax tree with
the standard library: a name bound by an import statement must be read
somewhere in the same module.  `from __future__` imports and the two package
`__init__.py` modules, whose imports are re-exports, are exempt.  A private
module-level name (leading underscore, not a dunder) defined in src/ must be
read by some module of src/: the tests alone do not keep it alive.  A public
module-level function, class or constant defined in src/ must be read by some
module of src/ or perfbench/; a re-export in an `__init__.py` does not count as
a read.  Importing the package as the benchmark worker does loads no `logging`.
"""

import ast
import os
import subprocess
import sys
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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_level_names(tree, assignments=True):
    """(line, name) of each function and class defined at module level, and of
    each name a module-level assignment binds when `assignments` is set."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.lineno, node.name
        elif assignments and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                yield from ((node.lineno, n.id) for n in ast.walk(t) if isinstance(n, ast.Name))


def read_names(tree) -> set:
    """The names a module reads: as a name, as an attribute or in a `from` import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name that no module in
    `sources` (module name -> source) reads, as a name, attribute or import."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    defined = [(mod, line, n) for mod, tree in trees.items()
               for line, n in module_level_names(tree)
               if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]
    read = set().union(*map(read_names, trees.values()))
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


def unread_public_names(defining: dict, reading: dict) -> list:
    """(module, line, name) of each public module-level function, class or
    assigned name of a module in `defining` that no module in `reading` reads
    (both map a module name to its source)."""
    defined = [(mod, line, n) for mod, source in defining.items()
               for line, n in module_level_names(ast.parse(source))
               if not n.startswith("_")]
    read = set().union(*(read_names(ast.parse(source)) for source in reading.values()))
    return sorted(d for d in defined if d[2] not in read)


def test_unread_public_names_are_found():
    defining = {
        "a": "def used(): pass\ndef dead(): pass\nclass Kept: pass\nclass Gone: pass\n"
             "def _private(): pass\nCONSTANT = 1\nTABLE: dict = {}\n_PRIVATE = 2\n",
        "b": "def helper(): pass\nLIMIT, SPARE = 1, 2\n",
    }
    reading = {"a": "used()\nTABLE['x']\n",
               "c": "from a import Kept\nimport b\nb.helper()\nb.LIMIT\n"}
    assert unread_public_names(defining, reading) == [
        ("a", 2, "dead"), ("a", 4, "Gone"), ("a", 6, "CONSTANT"), ("b", 2, "SPARE")]


def test_src_or_the_benchmark_reads_every_public_function_and_class():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in (ROOT / "src").rglob("*.py")}
    reading = {str(p.relative_to(ROOT)): p.read_text()
               for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")
               if p not in REEXPORTS}
    assert unread_public_names(defining, reading) == []


def test_the_benchmark_import_path_loads_no_logging():
    """Importing the package as the benchmark worker does loads no `logging`
    (a few ms of every run's setup). Run in a fresh interpreter, since pytest
    itself imports `logging`."""
    code = ("import sys\n"
            "import modspec\n"
            "from modspec.harness import experiments\n"
            "from modspec.harness.config import build_family, config_from_dict, random_suite\n"
            "print('logging' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"
