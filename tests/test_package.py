"""The package's public names."""

import importlib
from pathlib import Path
import pkgutil

import pytest

import irksolve
from irksolve import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(irksolve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a stale string in __all__ passes `import irksolve` unnoticed and
    # fails only at `from irksolve.<module> import *`
    module = importlib.import_module(f"irksolve.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def test_console_entry_point_resolves():
    # tier-1 runs from src/, so nothing else reads [project.scripts]
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = target["irksolve"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    assert entry is cli.console_main
