import ast
import importlib
from pathlib import Path

import pytest

import spinherald

MODULES = ("spinalg", "scattering", "engine", "tomography")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"spinherald.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(spinherald.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            public = importlib.import_module(f"spinherald.{node.module}").__all__
            private = [a.name for a in node.names if a.name not in public]
            assert private == [], node.module


def test_modules_use_every_top_level_import():
    # no linter runs on the package, so a name a move leaves imported but
    # unused shows here; the package's own imports are its public names
    unused = {}
    for path in sorted(Path(spinherald.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
