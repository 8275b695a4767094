"""LAPACK bindings: bit-for-bit agreement with scipy.linalg, the ABI
check, and loading scipy.linalg.cython_lapack without its package."""

import ctypes
import importlib.machinery
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import cython_lapack

import kernelshift
from kernelshift import _lapack


def _pointers(module):
    return [_lapack._capsule_pointer(c, _lapack._capsule_name(c))
            for c in (module.__pyx_capi__[name] for name in _lapack._LAPACK)]


def _check_eigh(A):
    want_w, want_V = linalg.eigh(np.array(A, order="F"), overwrite_a=True,
                                 check_finite=False)
    w, V = _lapack.eigh(np.array(A, order="F"))
    assert np.array_equal(w, want_w)
    assert np.array_equal(V, want_V)
    assert V.flags.f_contiguous


@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
def test_eigh_equals_scipy_bit_for_bit(n):
    X = np.random.default_rng(n).standard_normal((n, n + 3))
    _check_eigh(X @ X.T)


def test_eigh_equals_scipy_on_a_degenerate_psd_matrix():
    # rank 3 of 12, with eigenvalue 2 twice and 0 nine times
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((12, 12)))
    A = (Q[:, :3] * [2.0, 2.0, 0.5]) @ Q[:, :3].T
    A = 0.5 * (A + A.T)
    _check_eigh(A)


def test_eigh_sorts_ascending_and_refuses_other_layouts():
    A = np.asfortranarray(np.diag([3.0, 1.0, 2.0]))
    w, _ = _lapack.eigh(A)
    assert np.array_equal(w, [1.0, 2.0, 3.0])
    X = np.random.default_rng(4).standard_normal((5, 5))
    for B in (np.ascontiguousarray(X @ X.T),
              np.asfortranarray(X @ X.T, np.float32),
              np.ones((5, 4), order="F")):
        before = B.copy()
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            _lapack.eigh(B)
        assert np.array_equal(B, before)


def test_lapack_bindings_release_the_gil_and_check_the_abi():
    for fn in (_lapack._dpotrf, _lapack._dpotrs, _lapack._dsyevr):
        assert isinstance(fn, ctypes._CFuncPtr)
        assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    # a scipy built with 64-bit LAPACK integers names them in its
    # signatures; such a routine must not bind to the 32-bit prototype
    capsule_new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p,
                                    ctypes.c_char_p, ctypes.c_void_p)(
        ("PyCapsule_New", ctypes.pythonapi))
    for name in ("dpotrf", "dsyevr"):
        real = cython_lapack.__pyx_capi__[name]
        ilp64 = _lapack._LAPACK[name][0].replace("int", "int64_t").encode()
        pointer = _lapack._capsule_pointer(real, _lapack._capsule_name(real))
        with pytest.raises(ImportError, match="int64_t"):
            _lapack._lapack(name, capsule_new(pointer, ilp64, None))
    with pytest.raises(ImportError, match="dpotrs"):
        _lapack._lapack("dpotrs", cython_lapack.__pyx_capi__["dpotrf"])
    with pytest.raises(ImportError, match="dsyevr"):
        _lapack._lapack("dsyevr", cython_lapack.__pyx_capi__["dpotrf"])


def test_loader_finds_the_extension_and_leaves_sys_modules_alone(
        monkeypatch):
    monkeypatch.delitem(sys.modules, _lapack._NAME)
    module = _lapack._cython_lapack()
    assert _lapack._NAME not in sys.modules
    assert _pointers(module) == _pointers(cython_lapack)


def test_loader_falls_back_to_the_package(monkeypatch):
    class FindsNothing:
        def __init__(self, path, *loaders):
            pass

        def find_spec(self, name):
            return None

    monkeypatch.delitem(sys.modules, _lapack._NAME)
    monkeypatch.setattr(importlib.machinery, "FileFinder", FindsNothing)
    assert _pointers(_lapack._cython_lapack()) == _pointers(cython_lapack)


def test_cli_binds_the_routines_scipy_linalg_exports(tmp_path):
    # in a fresh interpreter: the CLI loads no scipy.linalg module, and a
    # later import of the package binds the same extension
    src = os.path.dirname(os.path.dirname(kernelshift.__file__))
    code = (
        "import ctypes, json, sys\n"
        "import kernelshift.cli\n"
        "from kernelshift import _lapack\n"
        "before = sorted(m for m in sys.modules "
        "if m.startswith('scipy.linalg'))\n"
        "import scipy.linalg\n"
        "c = scipy.linalg.cython_lapack.__pyx_capi__['dpotrf']\n"
        "print(json.dumps([before, _lapack._capsule_pointer(c, "
        "_lapack._capsule_name(c)), ctypes.cast(_lapack._dpotrf, "
        "ctypes.c_void_p).value]))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=120,
                         cwd=tmp_path)
    before, scipy_pointer, ours = json.loads(out.stdout.splitlines()[-1])
    assert before == []
    assert scipy_pointer == ours
