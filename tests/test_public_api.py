"""Every name a ptwa submodule lists in __all__ exists, so star imports work."""

import importlib
import pkgutil

import pytest

import ptwa

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ptwa.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"ptwa.{name}")
    assert not [n for n in module.__all__ if not hasattr(module, n)]
    namespace = {}
    exec(f"from ptwa.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
