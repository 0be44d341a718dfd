"""Every exported name resolves: a deleted function leaves no stale `__all__` entry."""

from __future__ import annotations

import ast
import importlib
import pathlib
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


def _names_eps(path: pathlib.Path) -> bool:
    """Whether a module reads or imports a name or attribute EPS."""
    nodes = ast.walk(ast.parse(path.read_text()))
    return any("EPS" in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None)) for n in nodes)


def test_only_scoring_reads_eps():
    # `scoring.norms_from_squares` decides which rows can be normalized; a module that reads
    # EPS holds a second copy of that rule
    package = pathlib.Path(vlodtta.__file__).parent
    assert [path.stem for path in sorted(package.glob("*.py")) if _names_eps(path)] == ["scoring"]
