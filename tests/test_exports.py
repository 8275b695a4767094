"""The public surface stays consistent: every exported name resolves, each
package export is listed by its defining module, the demos import, and
every listing of the CLI commands agrees, so deleting or renaming a name
still in use fails here."""

import importlib
import importlib.util
import pathlib
import pkgutil
import runpy

import pytest

import kernelshift
from kernelshift import cli, config

MODULES = sorted(m.name for m in pkgutil.iter_modules(kernelshift.__path__)
                 if m.name != "__main__")
ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_closed_form_gallery_runs(capsys):
    # the demo end to end, so a change to a closed form's call signature
    # breaks it here, not silently at the command line
    runpy.run_path(str(ROOT / "demos" / "closed_form_gallery.py"),
                   run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    table = [line.split() for line in lines
             if line.split() and line.split()[0].isdigit()]
    ridge, ntk = table[:9], table[9:]
    assert [row[0] for row in ridge] == \
        ["5", "10", "20", "30", "40", "50", "80", "160", "320"]
    small = [float(row[1]) for row in ridge]
    best = [float(row[2]) for row in ridge]
    # the ridgeless spike sits at P = M_r, and the optimal ridge removes it
    assert max(small) == small[4] and ridge[4][3:] == ["<-", "spike", "at",
                                                       "P", "=", "M_r"]
    assert all(a > b for a, b in zip(best, best[1:]))
    assert [row[0] for row in ntk] == ["5", "10", "20", "40", "80", "160",
                                       "320"]
    # a test sphere of half the radius scales the error by 1/4
    for _, same, half in ntk:
        assert abs(float(half) - 0.25 * float(same)) <= 1e-4
    # a teacher the student resolves leaves no floor
    (resolved,) = [line for line in lines if "M_s=15" in line]
    assert resolved.endswith("irreducible floor 0.000e+00")


def _readme_table(lines, header):
    """The first column's backticked names and the second column of a
    README table, from the rows below its header."""
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("| `"):
            break
        rows.append(line.split("|")[1:3])
    return [(cells[0].split("`")[1], cells[1]) for cells in rows]


def test_command_listings_agree():
    # the README command table, the schema enum, the command table and the
    # CLI handlers each name every command once
    lines = (ROOT / "README.md").read_text().splitlines()
    table = [name for name, _ in
             _readme_table(lines, "| command | what it does |")]
    schema = config.load_schema()["properties"]["command"]["enum"]
    listings = (table, schema, config._COMMANDS, cli._HANDLERS)
    assert len(set(table)) == len(table)
    assert [sorted(names) for names in listings] == [sorted(table)] * 4
    # the README model table lists the keys each closed-form model reads
    models = {name: set(keys.split("`")[1::2]) for name, keys in
              _readme_table(lines, "| model | keys | prediction |")}
    assert models == {name: set(keys) for name, keys in
                      config._KIND_KEYS["closed_form"][1].items()}
