import importlib
import pkgutil

import pytest

import qoverlap

MODULES = [qoverlap] + [
    importlib.import_module(f"qoverlap.{info.name}")
    for info in pkgutil.iter_modules(qoverlap.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    """A deletion must take its ``__all__`` entry with it."""
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
