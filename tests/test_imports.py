"""Every name a library module, script or test file imports is used in it.

A module's names are the ``Name`` nodes it reads or writes, the roots of
its attribute chains, and the strings it lists in ``__all__``; an import
whose bound name is none of them is reported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    path
    for folder in (ROOT / "src" / "bohemian", ROOT / "scripts", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
]


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
