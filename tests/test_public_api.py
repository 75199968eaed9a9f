"""Every public name of the library resolves.

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
