"""The package's public names."""

import importlib
import pkgutil

import pytest

import irksolve

MODULES = sorted(m.name for m in pkgutil.iter_modules(irksolve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a stale string in __all__ passes `import irksolve` unnoticed and
    # fails only at `from irksolve.<module> import *`
    module = importlib.import_module(f"irksolve.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing
