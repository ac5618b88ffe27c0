"""Thread stress: the metrics registry and the buffered JSONL sink lose
nothing when many threads of one process update them at once.

A batched chunk trains its sub-stacks on threads, and each emits
``epoch``, ``health`` and span events and counts metrics.  A shortened
switch interval makes the interpreter switch threads inside the
registry's read-modify-write and the sink's append/flush, where an
unlocked update loses counts or writes buffered lines twice.
"""

from __future__ import annotations

import json
import sys
import threading

from repro.telemetry.metrics import Registry
from repro.telemetry.sinks import JsonlSink

THREADS = 8


def hammer(work) -> None:
    """Run *work(thread index)* on :data:`THREADS` threads at once, with
    the interpreter switching threads as often as it can."""
    start = threading.Barrier(THREADS)

    def run(index: int) -> None:
        start.wait()
        work(index)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_registry_counts_every_call_from_threads():
    registry = Registry()
    calls = 20_000

    def work(index: int) -> None:
        for _ in range(calls):
            registry.count("shared")
            registry.observe("latency", 0.01)

    hammer(work)
    assert registry.counter_value("shared") == THREADS * calls
    histogram = next(event for event in registry.metric_events()
                     if event["name"] == "latency")
    assert histogram["count"] == THREADS * calls


def test_buffered_sink_writes_every_event_once_from_threads(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(str(path), buffer_bytes=512)
    events = 5_000

    def work(index: int) -> None:
        for n in range(events):
            sink.emit({"thread": index, "n": n})

    hammer(work)
    sink.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == THREADS * events
    assert {(e["thread"], e["n"]) for e in lines} == {
        (index, n) for index in range(THREADS) for n in range(events)}
