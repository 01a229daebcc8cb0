"""Fix the hypothesis draws and name the kernels a test run computes on.

Every ``@given`` test runs under the ``tier1`` profile unless another is
named: derandomized, with no example database and no deadline, so two runs
of one tree draw the same examples.  The ``explore`` profile draws fresh
examples from the seed ``--hypothesis-seed`` gives (CI runs it with
``-m hypothesis --hypothesis-profile=explore`` and prints the seed).

The digests marked ``kernel_pin`` hold only on the kernels their markers
name, so every log starts with the OpenBLAS kernel numpy's bundled build
selected and the SIMD targets numpy dispatches to; either reads
``unknown`` where it cannot be read.
"""

import ctypes
from pathlib import Path

import numpy as np
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", database=None, deadline=None)
settings.load_profile("tier1")


def _openblas_kernel() -> str:
    try:
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        (lib,) = libs.glob("libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (OSError, ValueError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _numpy_dispatch() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "unknown"
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"


# Reported after collection, not in pytest_report_header: the header is not
# printed under -q, which the tier-1 command uses.
def pytest_report_collectionfinish(config, start_path, items):
    return (
        f"numpy {np.__version__}: OpenBLAS kernel {_openblas_kernel()}, "
        f"dispatch targets {_numpy_dispatch()}"
    )
