"""Facts about the machine and libraries, recorded with every result."""

from __future__ import annotations

import ctypes
import importlib.metadata
import importlib.util
import os
import platform


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return threads
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def facts() -> dict:
    """Call after measuring: it loads nothing the workload did not load."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from mdsr import _kernels
        numba_enabled = bool(_kernels.NUMBA_ENABLED)
    except ImportError:          # a later version without the numba path
        numba_enabled = None
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "mdsr_numba_enabled": numba_enabled,
        "note": "file cache, CPU frequency and other tenants of the machine are not controlled",
    }
