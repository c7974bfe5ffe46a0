"""Every name a library module imports is used there or re-exported in
its ``__all__``, so no import outlives the code that needed it, and
every name in an ``__all__`` is bound, so none outlives its definition."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "ncgames"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """The names each import statement binds, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            target.id for target in node.targets if isinstance(target, ast.Name)
        ] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | exported_names(tree)
    assert [name for name in imported_names(tree) if name not in kept] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_exported_name_is_bound(path):
    module = importlib.import_module(f"ncgames.{path.stem}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
