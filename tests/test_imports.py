"""Every name a library module imports is used there or re-exported in
its ``__all__``, so no import outlives the code that needed it, and
every name in an ``__all__`` is bound, so none outlives its definition.
The test oracles read none of the fast paths they are compared with,
the library validates morphisms only where the README says it does, and
no library function builds from labels through the public builders."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "ncgames"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ORACLES = Path(__file__).parent / "oracles.py"
# views, orders and helpers that the property checks compare with an oracle
FAST_PATHS = {
    "play_images",
    "play_by_end",
    "end_preserved",
    "rank",
    "stage_order",
    "player_rank",
    "info_set_order",
    "children_map",
    "children",
    "descendants",
    "_walk",
    "_node_classes",
    "_play_with_ids",
    "_ids",
}


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


def test_oracles_read_no_fast_path():
    tree = ast.parse(ORACLES.read_text())
    read = set(imported_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    assert sorted(read & FAST_PATHS) == []


# (module, top-level function) -> the morphism validators it calls: each
# validator calls the one a layer below, and only reading a morphism
# document and the isomorphism search validate a map from outside
VALIDATOR_CALLERS = {
    ("form", "validate_form_morphism"): ["validate_preform_morphism"],
    ("game", "validate_game_morphism"): ["validate_form_morphism"],
    ("documents", "_validated"): ["validate_game_morphism"],
    ("game", "find_isomorphism"): ["validate_game_morphism"],
}
VALIDATORS = {f"validate_{layer}_morphism" for layer in ("tree", "preform", "form", "game")}


def callers(names) -> dict:
    """(module, top-level function) -> its calls of ``names``, in order."""
    calls = {}
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            caller = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in names:
                        calls.setdefault(caller, []).append(name)
    return calls


def test_morphisms_are_validated_only_by_the_listed_callers():
    assert callers(VALIDATORS) == VALIDATOR_CALLERS


def test_no_library_function_calls_a_label_builder():
    # labels enter through these builders and the document reader only;
    # conversions and restrictions build on the id core of their input
    assert callers({"build_tree", "build_preform", "build_game"}) == {}
