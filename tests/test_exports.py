"""Every name a ``drbayes`` module exports in ``__all__`` resolves, so a star
import cannot break on an entry left behind by a removal."""

import importlib
import pkgutil

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
