"""Artifact writing: atomic files, round-trip floats, run manifests, and
the one reader and writer of numpy .npz archives."""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import tempfile
import zipfile

import numpy as np

__all__ = ["fmt17", "atomic_open", "write_text_atomic", "write_csv_atomic",
           "write_json_atomic", "write_npz_atomic", "read_npz",
           "ArtifactDir", "read_csv_columns"]


def fmt17(value):
    """Format one CSV cell; floats keep full 17-significant-digit form."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _process_umask():
    # the only portable way to read the umask is to set it; done once, at
    # import, before any worker thread creates files
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


# mode of every file atomic_open writes: what a plain open() would give,
# where mkstemp's temporary file has 0o600
_FILE_MODE = 0o666 & ~_process_umask()


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """File handle on a temporary file that is renamed to `path` when the
    block exits cleanly and removed otherwise, so `path` is never partial.
    The file gets the permissions open() would give it under the umask
    the process had when this module was imported."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            os.fchmod(fh.fileno(), _FILE_MODE)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text):
    """Write text via a temporary file and rename, never partial files."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_csv_atomic(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt17(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _finite_or_null(obj):
    """obj with each non-finite float made None, since NaN and Infinity
    are not JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def write_json_atomic(path, obj):
    """Write obj as strict JSON: each non-finite float becomes null."""
    write_text_atomic(path, json.dumps(_finite_or_null(obj), indent=2,
                                       sort_keys=True, allow_nan=False)
                      + "\n")


def write_npz_atomic(path, **arrays):
    """Write the arrays as an uncompressed .npz archive via a temporary
    file and rename, so `path` is never a partial archive."""
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def read_npz(path, names):
    """The arrays `names` of the .npz archive at `path`, in that order.

    The CRC-32 of every archive member, .npy headers included, is checked
    before any array is allocated, so a damaged header cannot ask for a
    huge allocation, and pickled objects are refused. A file that is not
    an archive, a damaged member or a missing name raises ValueError
    naming the path.
    """
    try:
        with open(path, "rb") as fh:
            with zipfile.ZipFile(fh) as archive:
                damaged = archive.testzip()
            if damaged is not None:
                raise ValueError(f"corrupt member {damaged!r}")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                return tuple(archive[name] for name in names)
    except (ValueError, zipfile.BadZipFile, KeyError, EOFError) as exc:
        raise ValueError(f"unreadable .npz archive {os.fspath(path)!r}: "
                         f"{exc}") from exc


def read_csv_columns(path):
    """Read a numeric CSV written by this package into {column: array};
    a row whose cell count differs from the header's raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    for row in data:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row} does not fit {header}")
    cols = {}
    for j, name in enumerate(header):
        cols[name] = np.array([float(row[j]) for row in data])
    return cols


class ArtifactDir:
    """Output directory that records artifacts and writes the manifest."""

    def __init__(self, out_dir):
        self.out_dir = os.path.abspath(out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        self.artifacts = []

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def write_csv(self, name, header, rows):
        write_csv_atomic(self.path(name), header, rows)
        self.artifacts.append(name)

    def write_json(self, name, obj):
        write_json_atomic(self.path(name), obj)
        self.artifacts.append(name)

    def write_manifest(self, run_config):
        from . import __version__
        import scipy
        manifest = {
            "command": run_config.command,
            "config_sha256": run_config.hash(),
            "seed": run_config.seed,
            "versions": {
                "kernelshift": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "artifacts": sorted(self.artifacts),
        }
        if run_config.command == "reproduce":
            manifest["figure"] = run_config.doc["figure"]
        write_json_atomic(self.path("manifest.json"), manifest)

    def echo_config(self, run_config):
        write_json_atomic(self.path("config.echo.json"), run_config.doc)
        self.artifacts.append("config.echo.json")
