"""The public surface of every module: each name listed in __all__ must be
bound, so that ``from quatgamma.<module> import *`` and tools that walk
__all__ (such as a call tracer) never meet a stale entry."""

import importlib
import pkgutil

import pytest

import quatgamma

MODULES = ["quatgamma"] + [
    f"quatgamma.{info.name}" for info in pkgutil.iter_modules(quatgamma.__path__)
]


def test_every_module_is_listed():
    assert "quatgamma.spectral_line" in MODULES and "quatgamma.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), "duplicate __all__ entry"
    assert [n for n in names if not hasattr(module, n)] == []
