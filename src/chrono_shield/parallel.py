"""Run independent jobs on up to two threads of this process, results in job order.

The jobs are numpy-heavy: numpy releases the interpreter lock inside its
kernels, so two threads use two cores. While the pool runs, numpy's bundled
OpenBLAS is pinned to one thread, so two jobs do not oversubscribe the
cores, and glibc malloc keeps freed memory in the heap instead of mapping
and faulting fresh pages for every large temporary. Both settings change
no result: every job computes the same bytes as it would alone.

Maps do not nest: inside a job, worker_count is 1 and map_in_order is a
plain loop on that job's thread, so the threads never outnumber the cores.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAX_WORKERS = 2
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>

_in_job = threading.local()  # .active is set on every pool thread
_pin_lock = threading.Lock()
_pin = {"depth": 0, "before": None}  # open one_blas_thread blocks, and the count to restore


def worker_count(jobs: int) -> int:
    """Threads used for `jobs` jobs: at most MAX_WORKERS and the CPUs this
    process may run on, and one inside a job."""
    cap = 1 if getattr(_in_job, "active", False) else MAX_WORKERS
    return min(cap, len(os.sched_getaffinity(0)), jobs)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    bundled = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(bundled.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@functools.cache
def _keep_heap() -> None:
    """Serve large temporaries from a heap that is not trimmed back to the
    system after each call (glibc only; set once per process)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


@contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread and keep the heap for the block.

    Blocks may nest and overlap across threads: the first to open saves the
    thread count and the last to close restores it, also when the block raises.
    """
    _keep_heap()
    blas = _openblas()
    if blas is None:
        yield
        return
    with _pin_lock:
        if _pin["depth"] == 0:
            _pin["before"] = blas[0]()
            blas[1](1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                blas[1](_pin["before"])


def _mark_job_thread() -> None:
    _in_job.active = True


def map_in_order(fn, jobs) -> list:
    """[fn(job) for job in jobs], run on worker_count(len(jobs)) threads.

    A job's exception reaches the caller once the running jobs end; jobs
    not yet started are cancelled. With one worker this is a plain loop.
    """
    jobs = list(jobs)
    workers = worker_count(len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with one_blas_thread(), ThreadPoolExecutor(max_workers=workers, initializer=_mark_job_thread) as pool:
        return list(pool.map(fn, jobs))
