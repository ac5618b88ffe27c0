"""Span recording, binding patches, and spans from forked children."""

import os
from multiprocessing import get_context

import pytest

from trialbench import layers
from trialbench.tracing import Tracer


def _work(x):
    return x * 2


def test_nested_spans_record_their_parent(tmp_path):
    tracer = Tracer(str(tmp_path))
    inner = tracer.traced("inner", _work)
    with tracer.span("outer"):
        assert inner(3) == 6
    spans, _ = tracer.collect()
    by_name = {span["name"]: span for span in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["outer"]["start"] <= by_name["inner"]["start"] \
        <= by_name["inner"]["end"] <= by_name["outer"]["end"]


def test_a_failing_call_still_records_its_span(tmp_path):
    tracer = Tracer(str(tmp_path))
    failing = tracer.traced("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    spans, _ = tracer.collect()
    assert spans[0]["name"] == "boom" and spans[0]["error"] is True


def test_spans_of_a_forked_child_are_collected(tmp_path):
    tracer = Tracer(str(tmp_path / "spool"))
    child_work = tracer.traced("child.work", _work,
                               after=tracer.flush_in_child)
    counted = tracer.counted("child.calls", _work)

    def child_main():
        counted(1)
        child_work(2)

    counted(0)
    child_work(0)  # a finished span in the parent's buffer at fork time
    with tracer.span("parent.round"):
        process = get_context("fork").Process(target=child_main)
        process.start()
        process.join(timeout=30)
    assert not process.is_alive() and process.exitcode == 0
    spans, counters = tracer.collect()
    assert sorted(span["name"] for span in spans) == [
        "child.work", "child.work", "parent.round"]
    child = [span for span in spans if span["pid"] == process.pid]
    assert len(child) == 1 and process.pid != os.getpid()
    # the child started with an empty buffer and no open parent span
    assert child[0]["parent"] is None
    assert counters == {"child.calls": 2}
    assert not os.listdir(tmp_path / "spool")  # spool consumed


def test_install_patches_every_binding_and_uninstall_restores(tmp_path):
    from repro.experiments import common, fig3_bitflip_rates, \
        table5_single_bitflip

    original = common.corrupted_copy
    tracer = Tracer(str(tmp_path))
    layers.install(tracer)
    try:
        assert fig3_bitflip_rates.corrupted_copy is not original
        assert table5_single_bitflip.corrupted_copy \
            is fig3_bitflip_rates.corrupted_copy
    finally:
        tracer.uninstall()
    assert fig3_bitflip_rates.corrupted_copy is original
    assert common.corrupted_copy is original
