import importlib
import pkgutil

import pytest

import milnorhodge

MODULES = [info.name for info in pkgutil.iter_modules(milnorhodge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"milnorhodge.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
