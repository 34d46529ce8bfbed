"""No module of the package imports a name it never uses, and the package
binds no name over one of its modules.

With no linter installed, this is the check: every name a module binds by
``import`` or ``from ... import`` (``__future__`` aside) is read as a name
somewhere in it, annotations included, or is exported in its ``__all__``.
"""

import ast
import types
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "finspace").glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads or exports, in order."""
    tree = ast.parse(source)
    bound = []
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | exported]


def test_the_check_finds_an_unused_import_and_passes_a_used_or_exported_one():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom typing import Callable, Sequence\n"
        "from .spaces import _set\n"
        "__all__ = ['_set']\n"
        "def f(x: Sequence) -> None:\n    return os.getcwd()\n"
    )
    assert unused_imports(source) == ["regex", "Callable"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_homology_module_is_not_shadowed_by_its_function(monkeypatch):
    import finspace.homology as m

    assert isinstance(m, types.ModuleType) and m.__name__ == "finspace.homology"
    monkeypatch.setattr("finspace.homology.MAX_SMITH_WORK", 7)
    assert m.MAX_SMITH_WORK == 7
