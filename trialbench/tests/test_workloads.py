"""Minimal-plan smoke runs of every workload, through the same code the
benchmark runs, plus the result contract of the command itself."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from trialbench import layers, workloads
from trialbench.run import ROOT, measure, summarize

SEED = 3
TINY_FIG3 = {"pairs": [["chainer_like", "alexnet"]], "bitflips": [1, 10],
             "trainings": 1}


def _prepared(workload, tmp_path):
    cache = workloads.fresh_dir(str(tmp_path / "cache"))
    workloads.setup(workload, SEED, cache)
    reference = None
    if workload.reference:
        reference = workloads.reference_digests(
            workloads.plan(workload, SEED, cache))
    return cache, reference


def _run(workload, tmp_path, trace=True):
    cache, reference = _prepared(workload, tmp_path)
    work = workloads.fresh_dir(str(tmp_path / "work"))
    return measure(workload, SEED, cache, 0.0, work, reference, trace)


def _assert_correct(out, trials):
    for round_ in out["rounds"] + [out["traced_round"]]:
        assert round_["trials"] == trials
        assert round_["ok"] == trials
        assert round_["failed"] == round_["mismatches"] == 0


def _assert_wall_accounted(metrics):
    timed = sum(metrics[name] for name in layers.TIMED.values())
    assert metrics["runner.unattributed_s"] >= 0
    assert timed + metrics["runner.unattributed_s"] == pytest.approx(
        metrics["runner.wall_s"])


def test_fig3_seq_pool_and_serve_agree_bit_for_bit(tmp_path):
    outs = {}
    for name in ("fig3-seq", "fig3-pool", "fig3-serve"):
        workload = dataclasses.replace(workloads.WORKLOADS[name],
                                       params=TINY_FIG3)
        outs[name] = _run(workload, tmp_path / name)
        _assert_correct(outs[name], 2)
    seq_out, pool_out = outs["fig3-seq"], outs["fig3-pool"]
    assert len({out["plan_digest"] for out in outs.values()}) == 1

    metrics = seq_out["layers"]
    _assert_wall_accounted(metrics)
    assert metrics["injector.calls"] == 2
    assert metrics["injector.flips"] == 11
    assert metrics["hdf5.opens"] == 4  # one inject + one load per trial
    assert metrics["nn.epochs"] == 4  # two resumed epochs per trial
    assert metrics["batched.chunks"] == 0
    assert metrics["nn.kernel.Conv2D.fwd_s"] > 0
    assert metrics["nn.kernel.BatchNorm2D.fwd_s"] == 0  # alexnet has none
    # the pool children's and serve workers' spans came back through the
    # spool
    for out in (pool_out, outs["fig3-serve"]):
        assert out["layers"]["injector.calls"] == 2
        assert out["layers"]["nn.epochs"] == 4
    assert outs["fig3-serve"]["layers"]["serve.claims"] >= 2  # plan + shard
    assert outs["fig3-serve"]["layers"]["runner.journal_appends"] == 2


def test_table5_batched_matches_its_sequential_reference(tmp_path):
    workload = dataclasses.replace(
        workloads.WORKLOADS["table5-batched"],
        scale=workloads.smoke_copy(2),
        params={"frameworks": ["torch_like"], "models": ["alexnet"]},
        batch_trials=2)
    cache, reference = _prepared(workload, tmp_path)
    work = workloads.fresh_dir(str(tmp_path / "work"))
    pauses = []
    out = measure(workload, SEED, cache, 0.0, work, reference, True,
                  between=lambda: pauses.append(1))
    _assert_correct(out, 2)
    assert len(pauses) == len(out["rounds"])  # one after every timed round
    metrics = out["layers"]
    _assert_wall_accounted(metrics)
    assert metrics["batched.chunks"] == 1
    assert metrics["batched.mean_chunk"] == 2
    assert metrics["batched.fallbacks"] == 0
    assert metrics["batched.epochs"] == 1
    assert metrics["nn.epochs"] == 0


def test_a_wrong_outcome_is_counted_and_fails_the_run(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["fig3-pool"],
                                   params=TINY_FIG3)
    cache, reference = _prepared(workload, tmp_path)
    wrong = dict(reference)
    wrong[next(iter(wrong))] = "0" * 16
    work = workloads.fresh_dir(str(tmp_path / "work"))
    out = measure(workload, SEED, cache, 0.0, work, wrong, False)
    assert out["rounds"][0]["mismatches"] == 1
    out["peak_rss_mb"] = 1.0
    result = summarize({"setup_s": [{"wall": 1.0, "probes": [[0.1, 0.2]]}],
                         "setup_layers": {}}, out, False)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(0.5)


def test_golden_check_counts_skipped_flips_and_changed_outcomes(
        tmp_path, monkeypatch):
    golden = dataclasses.replace(workloads.GOLDEN["fig3"], params={
        "pairs": [["chainer_like", "alexnet"]], "bitflips": [10],
        "trainings": 1})
    root = str(tmp_path / "golden")
    check = workloads.golden_check(golden, workloads.fresh_dir(root), None)
    assert check == {"trials": 1, "failed": 0, "mismatches": 0,
                     "digests_checked": False}
    _, records, injections = workloads.golden_run(
        golden, workloads.fresh_dir(root))
    assert injections == [(10, 10)]
    recorded = {r.trial_id: workloads.outcome_digest(r) for r in records}
    assert workloads.golden_check(golden, workloads.fresh_dir(root),
                                  recorded)["mismatches"] == 0
    changed = {trial_id: "0" * 16 for trial_id in recorded}
    assert workloads.golden_check(golden, workloads.fresh_dir(root),
                                  changed)["mismatches"] == 1
    # an injector that claims its flips but applies none
    from repro.injector import CheckpointCorrupter
    from repro.injector.corrupter import CorruptionResult
    monkeypatch.setattr(
        CheckpointCorrupter, "corrupt", lambda self, path=None:
        CorruptionResult(log=None, attempts=10, successes=0))
    assert workloads.golden_check(golden, workloads.fresh_dir(root),
                                  None)["mismatches"] == 1


def test_golden_digests_hold_where_recorded(tmp_path):
    for kind, golden in workloads.GOLDEN.items():
        recorded = workloads.golden_record(kind)
        if recorded is None:
            pytest.skip("no golden digests recorded for this numeric key")
        root = workloads.fresh_dir(str(tmp_path / kind))
        assert workloads.golden_check(golden, root, recorded) == {
            "trials": 3, "failed": 0, "mismatches": 0,
            "digests_checked": True}


def test_serve_journals_every_trial_exactly_once(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["serve-ceiling"],
                                   params={"trials": 40})
    out = _run(workload, tmp_path)
    _assert_correct(out, 40)
    metrics = out["layers"]
    assert metrics["runner.journal_appends"] == 40
    assert metrics["serve.claims"] >= 5  # plan + 40 / 8 shards
    assert metrics["serve.shard_done_calls"] > 0
    assert metrics["telemetry.events"] > 0
    assert metrics["telemetry.bytes"] > 0
    assert metrics["injector.calls"] == 0
    assert metrics["nn.kernel.Conv2D.fwd_s"] == 0


def test_mismatches_catch_missing_duplicate_and_wrong_outcomes():
    spec = workloads.WORKLOADS["serve-ceiling"].spec(SEED).replace(
        params={"trials": 3})
    tasks = spec.build_tasks()
    expected = workloads.null_digests(tasks)
    from repro.experiments.runner import TrialRecord

    def record(task, outcome=None, status="ok"):
        outcome = outcome or workloads.null_outcome(task.payload)
        return TrialRecord(trial_id=task.trial_id, kind=task.kind,
                           status=status, payload=task.payload,
                           outcome=outcome,
                           outcome_class=outcome["outcome_class"])

    good = [record(task) for task in tasks]
    assert workloads.mismatches(good, expected) == 0
    assert workloads.mismatches(good + good[:1], expected) == 1
    assert workloads.mismatches(good[1:], expected) == 1
    wrong = {"curve": [0.0, 0.0], "outcome_class": "masked"}
    assert workloads.mismatches([record(tasks[0], wrong)] + good[1:],
                                expected) == 1
    # a failed trial is counted as failed, not as a mismatch as well
    assert workloads.mismatches([record(tasks[0], status="failed")]
                                + good[1:], expected) == 0


def test_per_layer_metrics_match_the_benchmark_definition(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["serve-ceiling"],
                                   params={"trials": 8})
    out = _run(workload, tmp_path)
    emitted = set(out["layers"]) | {"frameworks.save_s", "frameworks.saves"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert emitted == {metric["name"] for metric in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} \
        == set(workloads.WORKLOADS) - {"fig3-pool", "serve-ceiling"}


def test_without_the_program_sources_the_command_fails(tmp_path):
    shutil.copytree(os.path.join(ROOT, "trialbench"),
                    tmp_path / "trialbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "trialbench/run.py", "--workload", "fig3-seq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
