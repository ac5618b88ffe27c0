"""A trial process's CPU share, and OpenBLAS's thread count inside it.

A trial process may use its usable CPUs (``os.sched_getaffinity``) divided
by the number of trial processes its launchers run at once: all of them
in-process, ``cpus // workers`` in a fork-pool child, ``cpus // N`` in each
of the N workers ``repro-experiments serve`` starts.  A launcher states its
count with :func:`trial_processes` inside the launched process.

The batched engine spends that share on the trial axis (one thread per
sub-stack, see :mod:`repro.batched.engine`) and pins OpenBLAS to what is
left per thread, because OpenBLAS's own pool would otherwise spin a
second thread per sub-stack onto CPUs that are already busy.
:func:`limit_blas_threads` only ever lowers the count and restores it on
exit; with any BLAS other than numpy's bundled OpenBLAS it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from contextvars import ContextVar

import numpy as np

#: trial processes this process's launcher runs at once; threads started
#: with ``copy_context`` inherit it
_processes: ContextVar[int] = ContextVar("repro_trial_processes", default=1)


def cpu_share() -> int:
    """CPUs this process may use for trials: at least 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity API (macOS, Windows)
        cpus = os.cpu_count() or 1
    return max(1, cpus // _processes.get())


@contextlib.contextmanager
def trial_processes(count: int):
    """Inside the block this process is one of *count* trial processes
    its launcher runs at once, so its :func:`cpu_share` is divided by
    *count*."""
    token = _processes.set(max(1, count))
    try:
        yield
    finally:
        _processes.reset(token)


@functools.lru_cache(maxsize=1)
def _openblas_functions() -> tuple | None:
    """``openblas_get_num_threads``/``openblas_set_num_threads`` of the
    OpenBLAS numpy ships (wheel layouts: ``numpy.libs``, ``numpy/.dylibs``),
    whatever symbol suffix its build used; ``None`` when numpy uses another
    BLAS."""
    package = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(package, os.pardir, "numpy.libs",
                                          "*openblas*"))
                   + glob.glob(os.path.join(package, ".dylibs",
                                            "*openblas*")))
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count; ``None`` with any other BLAS."""
    functions = _openblas_functions()
    return None if functions is None else functions[0]()


@contextlib.contextmanager
def limit_blas_threads(count: int):
    """Run the block with OpenBLAS at ``min(entry count, count)`` threads
    (at least 1), then restore the entry count, also on exception.

    Call it from one thread while no other thread runs BLAS: the count is
    process-wide.
    """
    entry = blas_threads()
    target = max(1, count)
    if entry is None or target >= entry:
        yield
        return
    set_threads = _openblas_functions()[1]
    set_threads(target)
    try:
        yield
    finally:
        set_threads(entry)
