"""Every exported name resolves, so ``from bilgamma import *`` and
``from bilgamma.<module> import *`` cannot break on a stale export."""

import importlib
import pkgutil

import pytest

import bilgamma

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bilgamma.__path__))


def test_package_exports_resolve():
    missing = [name for name in bilgamma.__all__ if not hasattr(bilgamma, name)]
    assert not missing
    assert len(set(bilgamma.__all__)) == len(bilgamma.__all__)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"bilgamma.{module}")
    exported = getattr(mod, "__all__", [])
    assert not [name for name in exported if not hasattr(mod, name)]
