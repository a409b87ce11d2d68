"""The public names: everything a module exports exists."""

import importlib
import pkgutil

import fearsim


def test_every_exported_name_exists():
    modules = [fearsim] + [importlib.import_module(f"fearsim.{info.name}")
                           for info in pkgutil.iter_modules(fearsim.__path__)]
    assert len(modules) > 5
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
