import importlib
import pkgutil

import pytest

import washboard

_MODULES = ["washboard"] + [f"washboard.{m.name}"
                            for m in pkgutil.iter_modules(washboard.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
