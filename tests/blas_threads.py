"""The OpenBLAS thread counts of this process, for the tests of BLAS settings."""

import ctypes


def openblas_thread_counts():
    """Thread count of each OpenBLAS mapped into this process, read through ctypes."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for getter in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            if hasattr(lib, getter):
                read = getattr(lib, getter)
                read.argtypes, read.restype = (), ctypes.c_int
                counts[path] = read()
                break
    return counts
