"""Every name a ``drbayes`` module exports in ``__all__`` resolves, so a star
import cannot break on an entry left behind by a removal; and no module
imports scipy, which is a test dependency only."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drbayes

MODULES = ["drbayes"] + [f"drbayes.{info.name}" for info in pkgutil.iter_modules(drbayes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_no_module_imports_scipy():
    found = []
    for path in sorted(Path(drbayes.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []
