"""Artifact files: cell formatting, atomic writes, manifests."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelshift
from kernelshift.config import parse_config
from kernelshift.io import (ArtifactDir, fmt17, read_csv_columns,
                            write_csv_atomic, write_json_atomic,
                            write_text_atomic)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt17_floats_round_trip(x):
    assert float(fmt17(x)) == x


def test_fmt17_non_float_cells():
    assert fmt17(True) == "1"
    assert fmt17(False) == "0"
    assert fmt17(np.bool_(True)) == "1"
    assert fmt17(7) == "7"
    assert fmt17(np.int64(-3)) == "-3"
    assert fmt17("label") == "label"
    assert fmt17(np.float64(0.1)) == "0.10000000000000001"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "a" / "b.txt"
    write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    residue = [f for f in os.listdir(tmp_path / "a")
               if f.startswith(".tmp-")]
    assert residue == []


# written by a fresh interpreter that sets its umask before it imports
# kernelshift: an artifact, a decomposition cache entry and a dataset
_WRITE_ALL_UNDER_UMASK = """
import os, sys
os.umask(int(sys.argv[1], 8))
import numpy as np
from kernelshift.io import ArtifactDir
from kernelshift.kernels import KernelSpec
from kernelshift.measures import Dataset, save_dataset, uniform_measure
from kernelshift.spectral import cached_decompose
ArtifactDir("out").write_csv("a.csv", ("x",), [(1.0,)])
X = np.arange(8.0).reshape(4, 2)
cached_decompose(KernelSpec("rbf"), X, uniform_measure(4), 1e-12, "cache")
save_dataset("data.npz", Dataset(X, X[:, 0]))
"""


@pytest.mark.parametrize("umask, mode", [("022", "-rw-r--r--"),
                                         ("077", "-rw-------")])
def test_written_files_get_the_mode_open_would_give(tmp_path, umask, mode):
    src = os.path.dirname(os.path.dirname(kernelshift.__file__))
    subprocess.run([sys.executable, "-c", _WRITE_ALL_UNDER_UMASK, umask],
                   env=dict(os.environ, PYTHONPATH=src), check=True,
                   cwd=tmp_path, timeout=120)
    (entry,) = (tmp_path / "cache").iterdir()
    for path in (tmp_path / "out" / "a.csv", entry, tmp_path / "data.npz"):
        assert stat.filemode(os.stat(path).st_mode) == mode, path


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "f.txt"
    write_text_atomic(str(target), "one")
    write_text_atomic(str(target), "two")
    assert target.read_text() == "two"


def test_csv_write_and_read_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [(1, 0.1, True), (2, -3.5e-12, False)]
    write_csv_atomic(path, ("P", "value", "flag"), rows)
    cols = read_csv_columns(path)
    assert list(cols) == ["P", "value", "flag"]
    np.testing.assert_array_equal(cols["P"], [1.0, 2.0])
    np.testing.assert_array_equal(cols["value"], [0.1, -3.5e-12])
    np.testing.assert_array_equal(cols["flag"], [1.0, 0.0])


def test_csv_bytes_are_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rows = [(i, np.sin(i)) for i in range(20)]
    write_csv_atomic(a, ("i", "s"), rows)
    write_csv_atomic(b, ("i", "s"), rows)
    assert _read_bytes(a) == _read_bytes(b)


def test_json_sorted_keys_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json_atomic(a, {"zeta": 1, "alpha": [1, 2], "mid": {"y": 0, "x": 1}})
    write_json_atomic(b, {"alpha": [1, 2], "mid": {"x": 1, "y": 0}, "zeta": 1})
    raw = _read_bytes(a)
    assert raw == _read_bytes(b)
    assert raw.index(b"alpha") < raw.index(b"zeta")


def test_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "a.json"
    finite = {"x": 0.1, "rows": [{"z": -2.5, "n": 3, "ok": True}]}
    write_json_atomic(path, finite)
    assert path.read_text() == json.dumps(finite, indent=2,
                                          sort_keys=True) + "\n"
    write_json_atomic(path, {"x": float("nan"), "rows": [
        {"z": np.inf, "pair": (-np.inf, 1.0)}]})
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "x": None, "rows": [{"z": None, "pair": [None, 1.0]}]}


def test_artifact_dir_records_and_writes(tmp_path):
    art = ArtifactDir(str(tmp_path / "out"))
    art.write_csv("curve.csv", ("P", "Eg"), [(1, 0.5)])
    art.write_json("extra.json", {"ok": True})
    assert art.artifacts == ["curve.csv", "extra.json"]
    assert os.path.exists(art.path("curve.csv"))
    assert os.path.exists(art.path("extra.json"))


def _run_config(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return parse_config(str(cfg))


def test_manifest_contents(tmp_path):
    rc = _run_config(tmp_path, {
        "command": "closed-form", "seed": 3,
        "closed_form": {"model": "general_linear", "M": 10, "M_r": 4,
                        "M_s": 10, "P_grid": [2],
                        "beta": [1.0, 0.5, 0.2]},
    })
    art = ArtifactDir(str(tmp_path / "out"))
    art.write_csv("b.csv", ("x",), [(1,)])
    art.write_csv("a.csv", ("x",), [(1,)])
    art.echo_config(rc)
    art.write_manifest(rc)
    manifest = _load_json(art.path("manifest.json"))
    assert manifest["command"] == "closed-form"
    assert manifest["seed"] == 3
    assert manifest["config_sha256"] == rc.hash()
    assert manifest["artifacts"] == ["a.csv", "b.csv", "config.echo.json"]
    assert "figure" not in manifest
    for key in ("kernelshift", "numpy", "scipy", "python"):
        assert key in manifest["versions"]
    # nothing time- or host-dependent may enter the manifest
    assert set(manifest) == {"command", "config_sha256", "seed", "versions",
                             "artifacts"}


def test_manifest_carries_figure_when_set(tmp_path):
    rc = _run_config(tmp_path, {"command": "reproduce", "figure": "fig3a"})
    art = ArtifactDir(str(tmp_path / "out"))
    art.write_manifest(rc)
    manifest = _load_json(art.path("manifest.json"))
    assert manifest["figure"] == "fig3a"


def test_manifest_carries_figure_only_for_reproduce(tmp_path):
    # other commands do not read the key, so a stray one stays in the
    # echo as written and out of the manifest
    rc = _run_config(tmp_path, {
        "command": "closed-form", "figure": "fig3a",
        "closed_form": {"model": "general_linear", "M": 10, "M_r": 4,
                        "M_s": 10, "P_grid": [2], "beta": [1.0]},
    })
    art = ArtifactDir(str(tmp_path / "out"))
    art.echo_config(rc)
    art.write_manifest(rc)
    assert _load_json(art.path("config.echo.json"))["figure"] == "fig3a"
    assert "figure" not in _load_json(art.path("manifest.json"))


def test_config_echo_is_materialized_doc(tmp_path):
    rc = _run_config(tmp_path, {
        "command": "closed-form",
        "closed_form": {"model": "general_linear", "M": 10, "M_r": 4,
                        "M_s": 10, "P_grid": [2],
                        "beta": [1.0, 0.5, 0.2]},
    })
    art = ArtifactDir(str(tmp_path / "out"))
    art.echo_config(rc)
    echoed = _load_json(art.path("config.echo.json"))
    assert echoed == rc.doc
    assert echoed["seed"] == 0  # defaults are spelled out in the echo


def test_read_csv_columns_skips_blank_lines(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n1,2\n\n3,4\n")
    cols = read_csv_columns(str(path))
    np.testing.assert_array_equal(cols["a"], [1.0, 3.0])
    np.testing.assert_array_equal(cols["b"], [2.0, 4.0])


def test_read_csv_columns_strips_names_and_rejects_repeats(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(" a , b\n1,2\n \n3,4\n")
    assert list(read_csv_columns(str(path))) == ["a", "b"]
    path.write_text("a,b,a\n1,2,3\n")
    with pytest.raises(ValueError, match="repeated column name"):
        read_csv_columns(str(path))
    path.write_text("")
    with pytest.raises(ValueError, match="empty CSV"):
        read_csv_columns(str(path))


def test_io_is_the_only_module_that_reads_or_writes_npz_archives():
    src = os.path.dirname(kernelshift.__file__)
    pattern = re.compile(r"^\s*(import|from) zipfile\b|np\.(load|savez\w*)\b",
                         re.MULTILINE)
    users = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                if pattern.search(fh.read()):
                    users.append(name)
    assert users == ["io.py"]


def test_io_is_the_only_module_that_parses_csv():
    src = os.path.dirname(kernelshift.__file__)
    pattern = re.compile(r"^\s*(import|from) csv\b", re.MULTILINE)
    users = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                if pattern.search(fh.read()):
                    users.append(name)
    assert users == ["io.py"]


def test_measures_is_the_only_module_that_checks_numbers_by_type():
    # measures.positive_int is the one integer rule
    src = os.path.dirname(kernelshift.__file__)
    pattern = re.compile(r"^\s*(import|from) numbers\b", re.MULTILINE)
    users = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                if pattern.search(fh.read()):
                    users.append(name)
    assert users == ["measures.py"]


def test_every_entry_point_that_takes_a_gram_or_points_is_tabled():
    # test_inputs runs every malformed Gram and point set through the
    # entry points in its two tables, so a public function or class with
    # a K, X, X1 or X2 parameter must be in one of them
    from test_inputs import GRAM_ENTRY_POINTS, POINTS_ENTRY_POINTS
    found = set()
    for info in pkgutil.iter_modules(kernelshift.__path__):
        module = importlib.import_module(f"kernelshift.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") \
                    or getattr(obj, "__module__", None) != module.__name__ \
                    or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):   # a builtin's signature
                continue
            if {"K", "X", "X1", "X2"} & set(params):
                found.add(name)
    found -= {"kernel_matrix", "points"}   # the two rules themselves
    tabled = set(GRAM_ENTRY_POINTS) | set(POINTS_ENTRY_POINTS)
    assert sorted(found - tabled) == []
    # the walk sees the tabled functions, so it is not vacuous; the three
    # extra rows are gram's second argument, a run_continuous_curve draw
    # and the one-trial learning curve
    assert tabled - found == {"gram X2", "run_continuous_curve",
                              "run_learning_curve one trial"}
