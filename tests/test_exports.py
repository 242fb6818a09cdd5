"""Export lists: every exported name resolves, so a deletion cannot leave one behind."""

import importlib
import pkgutil

import pytest

import dipole_loop

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(dipole_loop.__path__))


@pytest.mark.parametrize("module", ["dipole_loop"] + [f"dipole_loop.{m}" for m in SUBMODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from dipole_loop import *", namespace)
    assert set(dipole_loop.__all__) <= set(namespace)
