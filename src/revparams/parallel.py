"""The threading policy: when work runs on a second core, and the item map.

One gate, ``two_cores()``: the OpenBLAS that numpy calls runs one thread
and the process may use two or more CPUs. Two callers of a multi-threaded
BLAS oversubscribe the cores and run slower than one. It is evaluated once
per process.

- ``row_blocks`` cuts an input into near-equal blocks, the unit of the
  log-mel and MLP stages: blocks of at most BLOCK_ROWS (1,024) rows, and at
  least two from SPLIT_ROWS (202) rows, two blocks of more than 100 rows
  (more for a matmul of fewer than 12 output columns).
- ``split`` runs the independent parts of one stage on the calling thread
  and one helper thread: the log-mel row blocks, the Gabor groups, the MLP
  row blocks, and each ``train`` step (one epoch's SGD beside the previous
  epoch's metrics pass). It splits only two or more parts, only on the
  main thread, for inputs of SPLIT_ROWS rows or more, and when
  ``two_cores()`` holds; otherwise it is a plain loop. ``--jobs`` workers
  and the helper itself never split, so no pool is ever nested.
- ``map_items`` runs one function over the items of ``--jobs`` commands.

These two start every thread the package uses.

Each part is computed as in the serial loop and writes its own slice of
the result, and a single-threaded BLAS call gives the same bits on any
thread, so every output bit is the same whichever path runs.
"""

from __future__ import annotations

import contextvars
import ctypes
import importlib
import os
import threading
from concurrent import futures
from functools import lru_cache

import numpy as np

BLOCK_ROWS = 1024
# With OpenBLAS on one thread a matmul row gets the bits of one pass over all
# rows in any block of at least MIN_BLOCK_ROWS rows whose product has more
# than _SMALL_MATMUL entries (rows x output columns): OpenBLAS may run a
# smaller product through a small-matrix kernel that rounds otherwise.
# Inputs of SPLIT_ROWS rows make two such blocks.
_SMALL_MATMUL = 1200
MIN_BLOCK_ROWS = 101
SPLIT_ROWS = 2 * MIN_BLOCK_ROWS

# The thread-count getters of OpenBLAS builds, plain and with the prefixed,
# 64-bit-index names of the build that numpy wheels bundle.
_OPENBLAS_THREAD_GETTERS = [f"{p}get_num_threads{s}" for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]


def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy's matmul calls, or None
    when that BLAS has no OpenBLAS thread-count getter.

    ``dlsym`` on numpy's own extension module searches the libraries it
    links, so this asks the one BLAS that the split stages use."""
    core = "numpy._core" if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else "numpy.core"
    lib = ctypes.CDLL(importlib.import_module(f"{core}._multiarray_umath").__file__)
    getter = next((getattr(lib, name) for name in _OPENBLAS_THREAD_GETTERS if hasattr(lib, name)), None)
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return getter()


@lru_cache(maxsize=1)
def two_cores() -> bool:
    """Whether a second thread may run BLAS-bound work: only when BLAS runs
    one thread and this process may use at least two CPUs. Asked once per
    process; OpenBLAS fixes its thread count when it loads."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus >= 2 and _blas_threads() == 1


def row_blocks(*arrays, width: int):
    """Zip of matching near-equal row blocks of ``arrays``, which share a
    row count T, for a stage whose narrowest matmul has ``width`` output
    columns: one block for one column, whose matrix-vector product rounds
    by row count; else blocks of at least MIN_BLOCK_ROWS rows, or more
    below 12 columns, so that each row keeps its one-pass bits, at least
    two from T >= SPLIT_ROWS rows and at most BLOCK_ROWS rows each. A
    fixed stride would leave a short last block.
    """
    n_rows, min_rows = len(arrays[0]), max(MIN_BLOCK_ROWS, _SMALL_MATMUL // width + 1)
    n_blocks = 1 if width < 2 else max(1, min(n_rows // min_rows, max(2, -(-n_rows // BLOCK_ROWS))))
    return zip(*(np.array_split(a, n_blocks) for a in arrays))


def split(fn, items, n_rows: int) -> None:
    """``for item in items: fn(item)``, with the caller running the first
    half of ``items`` and one helper thread the second half, when there are
    two or more items, the input has SPLIT_ROWS rows or more, the caller is
    the main thread and ``two_cores()`` holds; otherwise a plain loop on
    the caller.

    Each ``fn(item)`` must write only its own part of the result. The
    helper is a bare thread started per call, which costs less than a pool.
    It runs in a copy of the caller's context (numpy's error state
    included), an exception in either half reaches the caller, and
    ``split`` returns or raises only after the helper has finished.
    """
    items = list(items)
    main = threading.current_thread() is threading.main_thread()
    if len(items) < 2 or n_rows < SPLIT_ROWS or not main or not two_cores():
        for item in items:
            fn(item)
        return

    def run(part):
        for item in part:
            fn(item)

    half = (len(items) + 1) // 2
    failed = []

    def second():
        try:
            run(items[half:])
        except BaseException as exc:
            failed.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(second,), name="revparams-split")
    helper.start()
    try:
        run(items[:half])
    finally:
        helper.join()
    if failed:
        raise failed[0]


def map_items(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]`` in order, over ``jobs`` threads, each
    item in a copy of the caller's context (numpy's error state included)."""
    if jobs == 1:
        return [fn(item) for item in items]
    context = contextvars.copy_context()
    with futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda item: context.copy().run(fn, item), items))
