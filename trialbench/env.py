"""What a result depends on besides the code: CPUs, BLAS, versions, commit.

:func:`numeric_key` names what decides the low bits of floating-point
results (numpy's version and SIMD paths, the BLAS build and the kernel it
picked for this CPU); recorded outcome digests are only comparable between
machines with the same key.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment(seed: int) -> dict:
    """The stamp printed with every result."""
    return {
        "nproc": os.cpu_count(),
        "blas": f"{_blas_info().get('name', '?')} "
                f"{_blas_info().get('version', '?')}",
        "blas_core": _openblas_call("get_corename", ctypes.c_char_p),
        "blas_threads": _openblas_call("get_num_threads", ctypes.c_int),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def numeric_key() -> str:
    """numpy version and SIMD paths, BLAS build and BLAS kernel, as one
    string."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return "; ".join([
        f"numpy {np.__version__}",
        f"{_blas_info().get('name', '?')} {_blas_info().get('version', '?')}"
        f" {_openblas_call('get_corename', ctypes.c_char_p)}",
        "simd " + " ".join(simd.get("found", [])),
    ])


def _blas_info() -> dict:
    return np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})


def _openblas_call(name: str, restype):
    """Call ``openblas_<name>()`` in the OpenBLAS numpy bundles; ``None``
    when there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = restype
                func.argtypes = []
                value = func()
                return value.decode() if isinstance(value, bytes) else value
    return None


def git_commit() -> str:
    """The checked-out commit; ``unknown`` outside a git repository (git
    is not asked to look above the checkout)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
