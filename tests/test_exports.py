"""Every exported name resolves: a deleted function leaves no stale `__all__` entry."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import vlodtta

# `__main__` runs the CLI when imported and exports nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(vlodtta.__path__) if m.name != "__main__")


def test_the_package_has_its_modules():
    assert {"adapt", "geometry", "grad", "scoring"} <= set(MODULES)


@pytest.mark.parametrize("name", ["vlodtta", *(f"vlodtta.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
