"""Name the arithmetic a test run used.

Golden digests and byte pins depend on floating-point rounding, which the
BLAS build can change (OpenBLAS kernels fuse multiply-adds, for one), so the
report header names numpy, its BLAS and the BLAS thread setting.
"""

import os

import numpy as np


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return "unknown"
    config = blas.get("openblas configuration")
    return f"{blas.get('name')} {blas.get('version')}" + (f" ({config.strip()})" if config else "")


def pytest_report_header(config):
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}; BLAS {_blas()}; OPENBLAS_NUM_THREADS={threads}"
