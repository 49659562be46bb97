import importlib
import pkgutil

import pytest

import condcopula

MODULES = sorted(m.name for m in pkgutil.iter_modules(condcopula.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(f"condcopula.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
