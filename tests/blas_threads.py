"""The OpenBLAS thread counts of this process, and fresh interpreters for the
tests that must read them before any fit has set them to 1."""

import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


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


def run_fresh(code, *args, env=None):
    """Run ``code`` in a fresh interpreter, with ``src/`` and ``tests/`` first on
    PYTHONPATH, ``args`` as its ``sys.argv[1:]`` and the variables of ``env``
    added to this process's environment; returns its last stdout line parsed
    as JSON."""
    path = [os.path.join(os.path.dirname(HERE), "src"), HERE, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
