"""Thread count of the OpenBLAS libraries bundled with numpy and scipy.

The dense matrices of a certificate run are small (a few hundred sites in
the usual configs).  At that size a second OpenBLAS thread costs more than it
saves: the threads synchronise on every factorization and then spin,
waiting for the next one.  On a 2-core Xeon with other load on the host, a
Cholesky factor, solve, eigvalsh and product of a 128 x 128 matrix took
2.1 ms at the median with one thread and 129 ms (max 236 ms) with two; at
n = 64 it was 0.44 ms against 16 ms, and at n = 256 to 1024 two threads were
no faster than one.  `single_threaded()` therefore runs a block with one
thread per library and restores the previous counts afterwards.

The libraries are found in the `numpy.libs` and `scipy.libs` folders of the
wheels.  Where they are not there (another BLAS, another packaging), the
context manager does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np
import scipy

# (get, set) symbol pairs: the 64-bit and 32-bit scipy-openblas builds, plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _controls() -> tuple:
    """(get, set) functions of every bundled OpenBLAS, loaded once."""
    found = []
    for package in (np, scipy):
        folder = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(folder.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))  # the package has it loaded: same handle
            except OSError:
                continue
            for get, set_ in _SYMBOLS:
                if hasattr(lib, get) and hasattr(lib, set_):
                    found.append((getattr(lib, get), getattr(lib, set_)))
                    break
    return tuple(found)


@contextmanager
def single_threaded():
    """Run the block with one OpenBLAS thread; restore the thread counts after."""
    controls = _controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
