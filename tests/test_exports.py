"""Every exported name resolves, so a stale export of a deleted name fails."""

import importlib
import pkgutil

import pytest

import kernelshift

MODULES = sorted(m.name for m in pkgutil.iter_modules(kernelshift.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_all_entries_resolve(name):
    module = kernelshift if name == "__init__" else \
        importlib.import_module(f"kernelshift.{name}")
    missing = [e for e in getattr(module, "__all__", [])
               if not hasattr(module, e)]
    assert missing == []
