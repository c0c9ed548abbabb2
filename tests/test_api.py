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
