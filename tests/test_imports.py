"""Every name a library module, script or test file imports is used in it,
and every private top-level name of the library is named somewhere else.

A module's names are the ``Name`` nodes it reads or writes, the roots of
its attribute chains, and the strings it lists in ``__all__``; an import
whose bound name is none of them is reported.

A private name (one leading underscore) defined at the top level of a
library module is reported when no library module, script, test or
benchmark file names it outside its own definition: as a ``Name`` node,
an attribute, an imported name, or an identifier in a string that is
not a docstring (``monkeypatch.setattr(cs, "_join", ...)`` names it).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "bohemian").glob("*.py"))
SOURCES = [
    path
    for folder in (ROOT / "src" / "bohemian", ROOT / "scripts", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
]
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``__future__`` ones left out."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in used)


def _mentions(node: ast.AST) -> Counter[str]:
    """Each name the tree mentions, with its number of mentions."""
    docstrings = {
        id(n.value) for n in ast.walk(node)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    out: Counter[str] = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docstrings):
            out.update(re.findall(r"[A-Za-z_]\w*", n.value))
    return out


def _private_definitions(tree: ast.Module):
    """(name, line, node) of each private top-level function, class or
    constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node


def unused_private_names(
    library: dict[str, str], others: list[str]
) -> list[tuple[str, str, int]]:
    """(module, name, line) of each private top-level name of the
    ``library`` sources, keyed by module name, that neither they nor the
    ``others`` name outside its own definition."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    total: Counter[str] = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total.update(_mentions(tree))
    return sorted(
        (module, name, line)
        for module, tree in trees.items()
        for name, line, node in _private_definitions(tree)
        if total[name] == _mentions(node)[name]
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_reports_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import census as cs\n"
        "from .matrices import exact_rank, ones\n"
        "__all__ = ['ones']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == [("cs", 3), ("exact_rank", 4)]


def test_no_unused_private_names():
    library = {path.stem: path.read_text(encoding="utf-8") for path in LIBRARY}
    others = [path.read_text(encoding="utf-8") for path in READERS
              if path not in LIBRARY]
    assert unused_private_names(library, others) == []


def test_guard_reports_an_unused_private_name():
    # _countdown names only itself and _Spare only a docstring names;
    # _LIMIT, _patched and _shared are named by other code
    library = {
        "lib": (
            "_LIMIT = 3\n"
            "def _countdown(n):\n"
            "    return _countdown(n - 1) if n > _LIMIT else n\n"
            "class _Spare:\n"
            "    pass\n"
            "def _patched():\n"
            '    """Not _Spare."""\n'
            "def _shared():\n"
            "    pass\n"
            "__all__ = []\n"
        ),
        "user": "from .lib import _shared\n",
    }
    test = "monkeypatch.setattr(lib, '_patched', None)\n"
    assert unused_private_names(library, [test]) == [
        ("lib", "_Spare", 4), ("lib", "_countdown", 2),
    ]
