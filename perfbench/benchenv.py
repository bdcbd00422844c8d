"""Process environment for the benchmark: BLAS/OpenMP thread pinning, the
location of the package under test, and a description of the machine.

``pin_threads`` must run before numpy is first imported: OpenBLAS reads its
thread count once, when the library loads. The OpenBLAS builds bundled with
numpy and scipy allow up to 64 threads, so an unpinned run would time the
thread scheduler as much as the MLP.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_threads() -> None:
    if all(os.environ.get(k) == v for k, v in THREAD_ENV.items()):
        return
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    os.environ.update(THREAD_ENV)


def import_package():
    """Import ``revparams`` from this checkout's ``src/``, never from an
    installed copy, so the benchmark always measures the code beside it."""
    if not (SRC / "revparams" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {SRC / 'revparams'}")
    sys.path.insert(0, str(SRC))
    import revparams

    if SRC not in Path(revparams.__file__).resolve().parents:
        raise SystemExit(f"error: imported revparams from {revparams.__file__}, not from {SRC}")
    return revparams


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def _openblas_libraries() -> list:
    """Version string and active thread count of every OpenBLAS loaded into
    this process (numpy and scipy each bundle their own)."""
    import ctypes

    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def describe() -> dict:
    """Versions, thread counts and hardware, recorded with every result."""
    import platform

    import numpy
    import scipy
    import scipy.signal  # noqa: F401  (loads scipy's OpenBLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": _openblas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }
