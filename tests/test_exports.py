"""The public surface stays consistent: every exported name resolves, each
package export is listed by its defining module, and the demos import, so
deleting a name still in use fails here."""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import kernelshift

MODULES = sorted(m.name for m in pkgutil.iter_modules(kernelshift.__path__)
                 if m.name != "__main__")
DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
               .glob("*.py"))


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_all_entries_resolve(name):
    module = kernelshift if name == "__init__" else \
        importlib.import_module(f"kernelshift.{name}")
    missing = [e for e in getattr(module, "__all__", [])
               if not hasattr(module, e)]
    assert missing == []


def test_package_exports_are_listed_by_their_modules():
    unlisted = []
    for name in kernelshift.__all__:
        defining = getattr(getattr(kernelshift, name), "__module__", None)
        if defining is None:
            continue
        listed = getattr(importlib.import_module(defining), "__all__", None)
        if listed is not None and name not in listed:
            unlisted.append(f"{defining}.{name}")
    assert unlisted == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    # every demo guards main(), so importing it runs no experiment
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
