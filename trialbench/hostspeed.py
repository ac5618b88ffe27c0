"""How fast the host runs right now, measured with a fixed probe.

The benchmark runs on a few cores of a shared host whose speed moves by
tens of percent over minutes, CPU time included (the cores' caches and
memory bandwidth are shared with other machines).  A raw wall-clock
figure therefore measures the neighbours as much as the program.  The
benchmark runs the probe below, a fixed piece of work that uses the host
the way a trial does, right before and after every timed interval, and
reports times in *reference seconds*: each interval divided by how much
slower than :data:`NOMINAL_WALL_S` the probe ran over the run (the median
of all its probes).  A change to
the program does not change the probe (it imports nothing from ``src``),
so a faster program still shows as more trials per reference second,
while a slower host shows in both and cancels.
"""

from __future__ import annotations

import statistics
import struct
import time
from typing import NamedTuple

import numpy as np

#: wall and CPU seconds of one probe unit, typical of the 2-vCPU host the
#: benchmark was written on; only their ratio to a measured probe matters,
#: they fix the scale of a reference second
NOMINAL_WALL_S = 0.08
NOMINAL_CPU_S = 0.15

#: the least time one probe takes, whatever the interval it brackets
MIN_PROBE_S = 0.2


class Probe(NamedTuple):
    """One probe: its wall and CPU seconds per unit of work (a tuple, so
    that it passes through the phases' JSON as a pair)."""

    wall: float
    cpu: float


class _Work:
    """The probe's inputs, made once per process from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # a wide convolution as one im2col matmul, as in batched trials
        self.cols = rng.standard_normal((8192, 288)).astype(np.float32)
        self.weight = rng.standard_normal((64, 288)).astype(np.float32)
        # a narrow one through many small operations, as in smoke-scale
        # models, where dispatch costs as much as arithmetic
        self.small = rng.standard_normal((32, 8, 18, 18)).astype(np.float32)
        self.small_weight = rng.standard_normal((72, 8)).astype(np.float32)
        # batch-norm / ReLU style element-wise passes over activations
        self.acts = rng.standard_normal((64, 32, 16, 16)).astype(np.float32)
        # record parsing, as checkpoint headers and journal lines are
        self.blob = rng.bytes(1 << 16)


_WORK: _Work | None = None


def _unit(work: _Work) -> None:
    """One unit of probe work.  Its mix follows how well each part's
    time tracked the trials' time on a shared host: the small-operation
    part best, the wide matmul least."""
    for _ in range(3):
        out = work.cols @ work.weight.T
        work.cols.T @ out  # the weight gradient's shape
    for _ in range(12):
        windows = np.lib.stride_tricks.sliding_window_view(
            work.small, (3, 3), axis=(2, 3))
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 72)
        out = np.maximum(cols @ work.small_weight, 0.0)
        (out - out.mean(axis=0)) / np.sqrt(out.var(axis=0) + 1e-5)
    acts = work.acts
    for _ in range(3):
        mean = acts.mean(axis=(0, 2, 3), keepdims=True)
        var = acts.var(axis=(0, 2, 3), keepdims=True)
        np.maximum((acts - mean) / np.sqrt(var + 1e-5), 0.0)
    unpack = struct.Struct("<IHH").unpack_from
    fields: dict[int, int] = {}
    for offset in range(0, len(work.blob) - 8, 8):
        key, low, high = unpack(work.blob, offset)
        fields[key & 1023] = fields.get(key & 1023, 0) + low - high


def probe(seconds: float = MIN_PROBE_S) -> Probe:
    """Run whole units of the probe for at least *seconds* (and
    :data:`MIN_PROBE_S`), and time them."""
    global _WORK
    if _WORK is None:
        _WORK = _Work()
        _unit(_WORK)  # first-touch pages and BLAS threads, untimed
    seconds = max(seconds, MIN_PROBE_S)
    units = 0
    wall, cpu = time.perf_counter(), time.process_time()
    while time.perf_counter() - wall < seconds:
        _unit(_WORK)
        units += 1
    return Probe(wall=(time.perf_counter() - wall) / units,
                 cpu=(time.process_time() - cpu) / units)


def slowdown(probes: list[Probe]) -> tuple[float, float]:
    """How much slower than nominal the host ran, as (wall, CPU) factors:
    the medians of *probes*, so that one probe caught in a spike does not
    move them."""
    if not probes:
        raise ValueError("no probes")
    return (statistics.median(p.wall for p in probes) / NOMINAL_WALL_S,
            statistics.median(p.cpu for p in probes) / NOMINAL_CPU_S)
