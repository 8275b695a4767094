"""The LAPACK routines kernelshift calls, bound with ctypes to the
function pointers scipy.linalg.cython_lapack exports.

The extension is loaded on its own, without running
scipy/linalg/__init__.py, so a command does not pay at start-up for the
modules the scipy.linalg package pulls in. A ctypes call releases the
GIL, so threads factor and diagonalize at the same time.
"""

import ctypes
import importlib.machinery
import importlib.util
import sys

import numpy as np

_NAME = "scipy.linalg.cython_lapack"


def _cython_lapack():
    """The scipy.linalg.cython_lapack module.

    The extension file is found in the scipy.linalg directory and
    executed without its package's __init__; find_spec imports only the
    top-level scipy package. Its sys.modules entry is dropped again, so
    a later `import scipy.linalg` binds the module as usual (Cython hands
    back the same module, with the same capsules). Where the file is not
    found, the package is imported.
    """
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    directory = importlib.util.find_spec("scipy.linalg") \
        .submodule_search_locations[0]
    spec = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES)).find_spec(_NAME)
    if spec is None:
        from scipy.linalg import cython_lapack
        return cython_lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(_NAME, None)
    return module


_INT, _ARRAY = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_D = "__pyx_t_5scipy_6linalg_13cython_lapack_d *"
# each LAPACK routine kernelshift calls: its signature as its
# scipy.linalg.cython_lapack capsule names it (d is cython_lapack's typedef
# of double), and the ctypes argument types that match it
_LAPACK = {
    "dpotrf": (f"void (char *, int *, {_D}, int *, int *)",
               (ctypes.c_char_p, _INT, _ARRAY, _INT, _INT)),
    "dpotrs": (f"void (char *, int *, int *, {_D}, int *, {_D}, int *, "
               "int *)",
               (ctypes.c_char_p, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT,
                _INT)),
    "dsyevr": (f"void (char *, char *, char *, int *, {_D}, int *, {_D}, "
               f"{_D}, int *, int *, {_D}, int *, {_D}, {_D}, int *, "
               f"int *, {_D}, int *, int *, int *, int *)",
               (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT,
                _ARRAY, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT,
                _ARRAY, _ARRAY, _INT, _ARRAY, _ARRAY, _INT, _ARRAY, _INT,
                _INT)),
}
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name, capsule):
    """The LAPACK routine in a cython_lapack capsule as a ctypes function,
    which releases the GIL while it runs.

    Raises ImportError unless the capsule's signature is the expected
    one, so a scipy built with other integer widths is never called.
    """
    signature, argtypes = _LAPACK[name]
    found = _capsule_name(capsule)
    if found != signature.encode():
        raise ImportError(f"scipy.linalg.cython_lapack.{name} has signature "
                          f"{found!r}, expected {signature!r}")
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, found))


_CAPI = _cython_lapack().__pyx_capi__
_dpotrf, _dpotrs, _dsyevr = (_lapack(name, _CAPI[name])
                             for name in ("dpotrf", "dpotrs", "dsyevr"))


def eigh(a):
    """Eigenvalues (ascending) and orthonormal eigenvectors of the
    symmetric matrix a, from its lower triangle, which it overwrites.

    a must be a writeable, Fortran-ordered float64 square array. This is
    scipy.linalg.eigh(a, overwrite_a=True, check_finite=False): LAPACK
    dsyevr with scipy's default arguments and the workspace sizes its
    lwork = -1 query returns, so the results keep their bits.
    """
    if not (a.dtype == np.float64 and a.ndim == 2
            and a.shape[0] == a.shape[1] and a.flags.f_contiguous
            and a.flags.writeable):
        raise ValueError("eigh needs a writeable square Fortran-ordered "
                         "float64 array")
    n = a.shape[0]
    ld = ctypes.c_int(max(1, n))
    m, info = ctypes.c_int(), ctypes.c_int()
    w = np.empty(n)
    z = np.empty((n, n), order="F")
    isuppz = np.empty(2 * n, dtype=np.intc)

    def call(work, lwork, iwork, liwork):
        # vl = 0, vu = 1, il = 1, iu = n and abstol = 0, as scipy passes
        _dsyevr(b"V", b"A", b"L", ctypes.c_int(n), a.ctypes.data, ld,
                ctypes.c_double(0.0), ctypes.c_double(1.0), ctypes.c_int(1),
                ctypes.c_int(n), ctypes.c_double(0.0), m, w.ctypes.data,
                z.ctypes.data, ld, isuppz.ctypes.data, work.ctypes.data,
                ctypes.c_int(lwork), iwork.ctypes.data, ctypes.c_int(liwork),
                info)

    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    call(work, -1, iwork, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.intc), liwork)
    if info.value:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info.value}")
    return w, z
