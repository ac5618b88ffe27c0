"""Process-local metrics registry: counters, gauges, and fixed-bucket
histograms.

Each process owns exactly one registry (the pipeline's).  Campaign workers
are forked mid-flight, so the registry guards against inherited state: on
first touch after a fork it resets itself, otherwise a child flushing its
snapshot would re-report every count the parent had already accumulated.
Threads of one process (a batched chunk's sub-stacks) update it under a
per-registry lock, which a forked child also replaces: the inherited one
may be held by a parent thread that does not exist in the child.

Flushing serializes the registry as ``type: "metric"`` events tagged with
the emitting pid; the aggregation layer keeps the *last* snapshot per
(pid, name) and sums across pids, so repeated flushes are idempotent and a
merged multi-process stream adds up correctly.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left


#: Default histogram boundaries (seconds): spans sub-millisecond timers to
#: ten-minute trials.  Fixed boundaries keep snapshots mergeable across
#: processes and campaign runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 600.0,
)


class Histogram:
    """Fixed-boundary histogram (cumulative counts are derived at export)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class Registry:
    """All metrics of one process, keyed by dotted name."""

    def __init__(self):
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_fork(self) -> threading.Lock:
        """This process's lock, after dropping state inherited through
        ``fork``."""
        # A forked child inherits the parent's partial tallies; flushing
        # them again would double-count, so the child starts clean.
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._lock = threading.Lock()
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
        return self._lock

    def count(self, name: str, value: float = 1) -> None:
        with self._check_fork():
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._check_fork():
            self._gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        with self._check_fork():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(buckets)
            histogram.observe(value)

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0)

    def metric_events(self) -> list[dict]:
        """The registry as ``type: "metric"`` snapshot events."""
        with self._check_fork():
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = [(name, histogram.snapshot()) for name, histogram
                          in sorted(self._histograms.items())]
        pid = os.getpid()
        now = time.time()
        events: list[dict] = []
        for name, value in counters:
            events.append({"type": "metric", "kind": "counter", "name": name,
                           "value": value, "pid": pid, "ts": now})
        for name, value in gauges:
            events.append({"type": "metric", "kind": "gauge", "name": name,
                           "value": value, "pid": pid, "ts": now})
        for name, snapshot in histograms:
            events.append({"type": "metric", "kind": "histogram",
                           "name": name, "pid": pid, "ts": now, **snapshot})
        return events
