"""Every public name of the library resolves, and the library reaches it.

The traced benchmark wraps each module's ``__all__`` entries by name, so a
stale entry would break it as well as ``from beamtrain.x import *``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import beamtrain

PACKAGE_DIR = Path(beamtrain.__file__).parent
# __main__ runs the CLI on import.
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_a_module_attribute(name):
    module = importlib.import_module(f"beamtrain.{name}")
    entries = getattr(module, "__all__", [])
    assert len(entries) == len(set(entries))
    assert [entry for entry in entries if not hasattr(module, entry)] == []


def test_package_imports_only_public_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        public = importlib.import_module(f"beamtrain.{node.module}").__all__
        for alias in node.names:
            assert alias.name in public, f"beamtrain.{node.module}.{alias.name}"
            assert hasattr(beamtrain, alias.asname or alias.name)


# Public names that no library code reaches, each kept for a stated use.
UNREACHED_ALLOWED = {
    # The config text a run's manifest will hold (ROADMAP item 5).
    "serialize_config",
    # The crafted channel of the two-level-search claim (ROADMAP item 4).
    "sector_trap_channel",
}


def _references(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names read and attributes taken in ``tree``, outside ``skip``."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_reached_by_the_library():
    # A public name that only the tests call is a test oracle: it lives
    # under tests/, not in the library.  Re-exports and __all__ strings do
    # not count as a reference, and neither does a definition's own body.
    # The allowlist must stay exact: a listed name that the library comes
    # to reach leaves it.
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE_DIR.glob("*.py")}
    unreached = []
    for name in MODULES:
        tree = trees[name]
        for entry in getattr(importlib.import_module(f"beamtrain.{name}"), "__all__", []):
            own = [
                node
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == entry
            ]
            reached = (
                entry in _references(t, own[0] if own and stem == name else None)
                for stem, t in trees.items()
            )
            if not any(reached):
                unreached.append(entry)
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)
