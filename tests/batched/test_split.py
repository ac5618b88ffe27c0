"""The split chunk: k contiguous sub-stacks, side by side on k threads.

``run_stacked_training`` cuts a chunk's trials into k = min(CPU share, T)
sub-stacks of one ``BatchedTrainer``.  The share is forced here by
patching the engine's share function, so every k is covered whatever the
host's CPU count: each k must give the sequential run's per-trial bits,
and the OpenBLAS thread count must come back to its entry value after a
campaign, also when a chunk raises.
"""

from __future__ import annotations

import tempfile
import threading

import pytest

from repro import telemetry
from repro.batched import cpu, engine
from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments.common import (
    BaselineCache,
    SessionSpec,
    get_scale,
    resume_training,
    resume_training_batched,
)
from repro.experiments.runner import run_campaign
from repro.nn import trainer

from .oracle import (
    COLLAPSE_RECIPE,
    assert_histories_equal,
    assert_models_bitwise_equal,
    corrupt_trial_copy,
    feq,
)

SMOKE = get_scale("smoke")
TRIALS = 5


@pytest.fixture(scope="module")
def split_cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("split-cache")))


def force_share(monkeypatch, share: int) -> None:
    """The engine sees *share* CPUs and a BLAS whose threads it can pin."""
    monkeypatch.setattr(engine, "cpu_share", lambda: share)
    monkeypatch.setattr(engine, "blas_threads", lambda: share)


def record_sub_stack_epochs(monkeypatch, fail_off_main: bool = False
                            ) -> list[tuple]:
    """Patch every sub-stack epoch to record (its live trials, the
    OpenBLAS thread count, whether it ran on the calling thread); with
    *fail_off_main* a sub-stack on a split thread raises instead."""
    seen: list[tuple] = []
    original = trainer._SubStack.train_epoch

    def train_epoch(stack, *args, **kwargs):
        on_main = threading.current_thread() is threading.main_thread()
        seen.append((tuple(stack.active), cpu.blas_threads(), on_main))
        if fail_off_main and not on_main:
            raise RuntimeError("sub-stack failed")
        return original(stack, *args, **kwargs)

    monkeypatch.setattr(trainer._SubStack, "train_epoch", train_epoch)
    return seen


class ThreadRecordingSink(telemetry.InMemorySink):
    """Also records which threads emitted."""

    def __init__(self):
        super().__init__()
        self.threads: set[threading.Thread] = set()

    def emit(self, event: dict) -> None:
        self.threads.add(threading.current_thread())
        super().emit(event)


def run_split(spec, cache, recipes: dict[int, dict], trials: int):
    """Corrupt *trials* copies; resume them sequentially and batched (the
    batched run traced).  Returns both outcome lists and the batched run's
    telemetry sink."""
    baseline = cache.get(spec)
    epochs = spec.scale.resume_epochs
    sink = ThreadRecordingSink()
    with tempfile.TemporaryDirectory() as workdir:
        paths = [corrupt_trial_copy(spec, baseline.checkpoint_path, workdir,
                                    index, seed=4_000 + 31 * index,
                                    **recipes.get(index, {}))
                 for index in range(trials)]
        sequential = [resume_training(spec, path, epochs=epochs,
                                      keep_model=True, health_probe=True)
                      for path in paths]
        telemetry.configure(sink)
        try:
            batched = resume_training_batched(
                spec, paths, epochs=epochs, keep_models=True,
                health_probe=True)
        finally:
            telemetry.shutdown()
    return sequential, batched, sink


def assert_bitwise(sequential, batched) -> None:
    assert len(sequential) == len(batched)
    for index, (seq, bat) in enumerate(zip(sequential, batched)):
        label = f"trial {index}"
        assert feq(seq.accuracy_curve, bat.accuracy_curve), label
        assert seq.collapsed == bat.collapsed, label
        assert_histories_equal(seq.health, bat.health, label)
        assert_models_bitwise_equal(seq.model, bat.model, label)


@pytest.mark.parametrize("share", [1, 2, 3, TRIALS])
def test_every_split_matches_sequential(monkeypatch, split_cache, share):
    """k sub-stacks of contiguous trials, a collapsing trial among them:
    curves, verdicts, probe histories and final weights are the
    sequential bits, and the chunk's one ``train`` span names k."""
    force_share(monkeypatch, share)
    seen = record_sub_stack_epochs(monkeypatch)
    spec = SessionSpec("chainer_like", "alexnet", SMOKE)
    sequential, batched, sink = run_split(
        spec, split_cache, {1: COLLAPSE_RECIPE}, TRIALS)
    assert sequential[1].collapsed, "collapse recipe no longer collapses"
    assert_bitwise(sequential, batched)
    [span] = sink.spans("train")
    assert span["attrs"]["sub_stacks"] == share
    assert span["attrs"]["trials"] == TRIALS
    # spans, epoch and health events all come from the calling thread
    assert sink.threads == {threading.main_thread()}
    # the first epoch runs every sub-stack, the first one on the caller
    first = [(trials, on_main) for trials, _, on_main in seen[:share]]
    groups = engine._contiguous_groups(TRIALS, share)
    assert sorted(first) == sorted(
        (tuple(range(lo, hi)), lo == 0) for lo, hi in groups)


def test_sub_stack_that_collapses_whole_in_epoch_one(monkeypatch,
                                                     split_cache):
    """Every trial of the first sub-stack collapses in epoch 1, so it
    stops while the other sub-stack trains on; both keep the sequential
    bits."""
    force_share(monkeypatch, 2)
    seen = record_sub_stack_epochs(monkeypatch)
    spec = SessionSpec("tf_like", "resnet50", SMOKE)
    sequential, batched, sink = run_split(
        spec, split_cache, {0: COLLAPSE_RECIPE, 1: COLLAPSE_RECIPE}, 4)
    for index in (0, 1):
        assert sequential[index].collapsed, "collapse recipe failed"
        assert len(sequential[index].accuracy_curve) == 1
    assert not any(outcome.collapsed for outcome in sequential[2:])
    assert_bitwise(sequential, batched)
    epochs = spec.scale.resume_epochs
    assert sorted(trials for trials, _, _ in seen) == \
        [(0, 1)] + [(2, 3)] * epochs
    assert [event["attrs"]["active_trials"]
            for event in sink.by_type("event")
            if event["name"] == "epoch"] == [4] + [2] * (epochs - 1)


def test_blas_that_cannot_be_pinned_keeps_the_chunk_whole(monkeypatch,
                                                         split_cache):
    """With a BLAS other than numpy's bundled OpenBLAS a split would run
    that BLAS's own thread pool on every sub-stack: the chunk stays one
    stack, whatever the CPU share."""
    monkeypatch.setattr(engine, "cpu_share", lambda: 2)
    monkeypatch.setattr(cpu, "_openblas_functions", lambda: None)
    assert cpu.blas_threads() is None
    spec = SessionSpec("chainer_like", "alexnet", SMOKE)
    sequential, batched, sink = run_split(spec, split_cache, {}, 4)
    assert_bitwise(sequential, batched)
    [span] = sink.spans("train")
    assert span["attrs"]["sub_stacks"] == 1


def test_contiguous_groups_cover_every_trial_once():
    for trials in range(1, 12):
        for count in range(1, trials + 1):
            groups = engine._contiguous_groups(trials, count)
            assert len(groups) == count
            assert [i for lo, hi in groups for i in range(lo, hi)] == \
                list(range(trials))
            sizes = [hi - lo for lo, hi in groups]
            assert max(sizes) - min(sizes) <= 1


@pytest.fixture
def blas_entry():
    """OpenBLAS at 2 threads for the test (whatever the host runs), so a
    pin to 1 is observable; the host's count is restored afterwards."""
    functions = cpu._openblas_functions()
    if functions is None:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    get, put = functions
    before = get()
    put(2)
    try:
        yield 2
    finally:
        put(before)


def fig3_tasks(cache, trainings: int = 4):
    tasks, _ = fig3.build_tasks(SMOKE, 0, [("chainer_like", "alexnet")],
                                (1,), trainings, cache)
    return tasks


def test_campaign_restores_blas_threads(monkeypatch, split_cache,
                                        blas_entry):
    force_share(monkeypatch, 2)
    tasks = fig3_tasks(split_cache)
    expected = run_campaign(tasks)
    seen = record_sub_stack_epochs(monkeypatch)
    threads = threading.active_count()
    result = run_campaign(tasks, batch_trials=4)
    assert cpu.blas_threads() == blas_entry
    assert threading.active_count() == threads  # every split thread joined
    # two sub-stacks, one BLAS thread each (share 2 // k 2), one of them
    # on the calling thread
    assert {trials for trials, _, _ in seen} == {(0, 1), (2, 3)}
    assert {blas for _, blas, _ in seen} == {1}
    assert {on_main for _, _, on_main in seen} == {True, False}
    assert [r.outcome for r in result.records] == \
        [r.outcome for r in expected.records]


def test_campaign_restores_blas_threads_when_a_chunk_raises(
        monkeypatch, split_cache, blas_entry):
    """A sub-stack raising on its thread fails the chunk; the runner
    splits it into single trials, and BLAS is back at its entry count."""
    force_share(monkeypatch, 2)
    seen = record_sub_stack_epochs(monkeypatch, fail_off_main=True)
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    try:
        result = run_campaign(fig3_tasks(split_cache), batch_trials=4)
    finally:
        telemetry.shutdown()
    assert cpu.blas_threads() == blas_entry
    assert ((2, 3), 1, False) in seen
    assert all(r.status == "ok" for r in result.records)
    fallbacks = [e["value"] for e in sink.by_type("metric")
                 if e["name"] == "runner.batch_fallbacks"]
    assert fallbacks and fallbacks[-1] == 1  # the last snapshot counts
