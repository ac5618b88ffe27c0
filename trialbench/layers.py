"""Which public call each layer is timed around, and how spans become
per-layer metrics.

Every ``<layer>_s`` metric is *self* time: the layer's spans minus the part
of them that other timed spans nested inside cover (``frameworks.load``
excludes the ``hdf5.open`` it performs).  So on an in-process workload the
``_s`` metrics plus ``runner.unattributed_s`` add up to ``runner.wall_s``.
Counts are exact call counts.  Spans from forked children (pool trials,
serve workers) are summed across processes, so their busy time can exceed
the wall time.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from repro import hdf5
from repro.batched import stacking
from repro.experiments import common
from repro.experiments.runner import BATCH_TRIAL_KINDS, TRIAL_KINDS, Journal
from repro.frameworks.base import FrameworkFacade
from repro.injector import CheckpointCorrupter
from repro.nn import functional as F
from repro.nn.model import Model
from repro.nn.profiler import profile_model
from repro.nn.trainer import BatchedTrainer, Trainer
from repro.serve.scheduler import FairScheduler, ServeWorker
from repro.serve.store import CampaignStore
from repro.telemetry.core import Pipeline

from . import stats
from .tracing import Tracer

#: span name -> self-time metric; these are the "timed layers" whose self
#: times, with ``runner.unattributed_s``, account for the campaign wall time
TIMED = {
    "common.copy": "common.copy_s",
    "common.dataset": "common.dataset_s",
    "common.model_build": "common.model_build_s",
    "common.resume": "common.resume_s",
    "injector.corrupt": "injector.corrupt_s",
    "hdf5.open": "hdf5.open_s",
    "frameworks.load": "frameworks.load_s",
    "frameworks.save": "frameworks.save_s",
    "nn.train": "nn.train_s",
    "nn.eval": "nn.eval_s",
    "batched.stack": "batched.stack_s",
    "batched.train": "batched.train_s",
    "batched.eval": "batched.eval_s",
    "runner.journal": "runner.journal_s",
    "serve.claim": "serve.claim_s",
    "serve.plan": "serve.plan_s",
    "serve.mark_done": "serve.mark_done_s",
    "telemetry.emit": "telemetry.emit_s",
}

#: span name -> call-count metric
COUNTS = {
    "common.copy": "common.copies",
    "common.dataset": "common.datasets",
    "common.model_build": "common.model_builds",
    "common.resume": "common.resumes",
    "injector.corrupt": "injector.calls",
    "hdf5.open": "hdf5.opens",
    "frameworks.load": "frameworks.loads",
    "frameworks.save": "frameworks.saves",
    "nn.train": "nn.epochs",
    "nn.eval": "nn.evals",
    "batched.train": "batched.epochs",
    "batched.chunk": "batched.chunks",
    "runner.journal": "runner.journal_appends",
    "serve.claim": "serve.claims",
    "telemetry.emit": "telemetry.events",
}

#: layer classes of alexnet, vgg16 and resnet50 that carry measurable time
KERNEL_CLASSES = ("Conv2D", "BatchNorm2D", "ReLU", "MaxPool2D", "Dropout",
                  "Dense")

#: steps profiled per model for the kernel breakdown
KERNEL_STEPS = 3


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls; undo with ``tracer.uninstall()``."""
    tracer.patch_function(
        common.corrupted_copy, "common.copy",
        lambda path, args, kwargs: {"bytes": os.path.getsize(path)})
    tracer.patch_function(common.make_dataset, "common.dataset")
    tracer.patch_function(common.build_session_model, "common.model_build")
    tracer.patch_function(common.resume_training, "common.resume")
    tracer.patch_function(common.resume_training_batched, "common.resume")
    tracer.patch_method(
        CheckpointCorrupter, "corrupt", "injector.corrupt",
        lambda result, args, kwargs: {"attempts": result.attempts,
                                      "successes": result.successes})
    tracer.patch_method(hdf5.File, "__init__", "hdf5.open")
    tracer.patch_method(FrameworkFacade, "load_checkpoint", "frameworks.load")
    tracer.patch_method(FrameworkFacade, "save_checkpoint", "frameworks.save")
    tracer.patch_method(Trainer, "run_epoch", "nn.train")
    tracer.patch_method(Model, "evaluate", "nn.eval")
    tracer.patch_function(stacking.stack_models, "batched.stack")
    tracer.patch_function(stacking.stack_optimizers, "batched.stack")
    tracer.patch_method(BatchedTrainer, "run_epoch", "batched.train")
    tracer.patch_method(BatchedTrainer, "_evaluate", "batched.eval")
    tracer.patch_method(Journal, "append", "runner.journal")
    for kind in list(TRIAL_KINDS):
        # a pool child exits right after its one trial: spool there
        tracer.patch(TRIAL_KINDS, kind, lambda func: tracer.traced(
            "runner.trial", func, after=tracer.flush_in_child))
    for kind in list(BATCH_TRIAL_KINDS):
        tracer.patch(BATCH_TRIAL_KINDS, kind, lambda entry: (
            dataclasses.replace(entry, func=tracer.traced(
                "batched.chunk", entry.func,
                lambda result, args, kwargs: {"size": len(args[0])}))))
    tracer.patch_method(FairScheduler, "next_work", "serve.claim")
    tracer.patch_counter(CampaignStore, "shard_done",
                         "serve.shard_done_calls")
    tracer.patch_method(CampaignStore, "build_plan", "serve.plan")
    tracer.patch_method(CampaignStore, "maybe_mark_done", "serve.mark_done")
    tracer.patch_method(ServeWorker, "_execute", "serve.unit")
    tracer.patch_method(Pipeline, "emit", "telemetry.emit")


def layer_metrics(spans: list[dict], counters: dict[str, int],
                  root_pid: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced campaign.

    *wall_s* is the campaign's wall time; ``runner.unattributed_s`` is that
    minus the self time of the timed layers' spans in the process that ran
    the campaign (*root_pid*) — for in-process workloads, all of them.
    """
    selfs = stats.self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def busy(name: str, pid: int | None = None) -> float:
        return sum(selfs[s["id"]] for s in by_name.get(name, ())
                   if pid is None or s["pid"] == pid)

    def total(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    metrics: dict[str, float] = {}
    for name, metric in TIMED.items():
        metrics[metric] = busy(name)
    for name, metric in COUNTS.items():
        metrics[metric] = len(by_name.get(name, ()))
    metrics["common.copy_bytes"] = total("common.copy", "bytes")
    attempts = total("injector.corrupt", "attempts")
    metrics["injector.flips"] = total("injector.corrupt", "successes")
    metrics["injector.success_ratio"] = (
        metrics["injector.flips"] / attempts if attempts else 0.0)
    chunks = by_name.get("batched.chunk", [])
    metrics["batched.mean_chunk"] = (
        sum(s.get("size", 0) for s in chunks) / len(chunks) if chunks
        else 0.0)
    metrics["batched.fallbacks"] = sum(1 for s in chunks if s.get("error"))
    metrics["serve.shard_done_calls"] = counters.get(
        "serve.shard_done_calls", 0)
    idle = 0.0
    for worker in by_name.get("serve.worker", ()):
        pid = worker["pid"]
        idle += (worker["end"] - worker["start"]
                 - sum(s["end"] - s["start"]
                       for name in ("serve.claim", "serve.unit")
                       for s in by_name.get(name, ()) if s["pid"] == pid))
    metrics["serve.idle_s"] = idle
    metrics["runner.wall_s"] = wall_s
    metrics["runner.unattributed_s"] = wall_s - sum(
        busy(name, root_pid) for name in TIMED)
    return metrics


def trial_metrics(durations: list[float],
                  attempts: list[int]) -> dict[str, float]:
    """Per-trial duration percentiles (with their sample count) and retries
    from the runner's own journal records."""
    p50 = stats.percentile(durations, 50)
    tail = stats.tail_percentile(durations)
    return {
        "runner.trial_p50_s": p50.value,
        "runner.trial_tail_s": tail.value,
        "runner.trial_tail_pct": tail.pct,
        "runner.trial_samples": p50.samples,
        "runner.retries": sum(a - 1 for a in attempts),
    }


def kernel_metrics(specs: list, trials: int) -> dict[str, float]:
    """Forward/backward seconds per layer class over :data:`KERNEL_STEPS`
    training steps of each model in *specs*, through
    :func:`repro.nn.profiler.profile_model`.

    ``trials > 1`` profiles a stack of that many replicas, the trial-axis
    kernels a batched workload runs.
    """
    metrics = {f"nn.kernel.{cls}.{way}": 0.0
               for cls in KERNEL_CLASSES for way in ("fwd_s", "bwd_s")}
    for spec in specs:
        train, _ = common.make_dataset(spec)
        batch = train.images[:spec.scale.batch_size]
        labels = train.labels[:spec.scale.batch_size]
        if trials > 1:
            model = stacking.stack_models(
                [common.build_session_model(spec) for _ in range(trials)])
            batch = np.broadcast_to(batch, (trials,) + batch.shape)
            loss_grad = F.softmax_cross_entropy_with_grad_stacked
        else:
            model = common.build_session_model(spec)
            loss_grad = F.softmax_cross_entropy_with_grad
        with profile_model(model) as report:
            for _ in range(KERNEL_STEPS):
                logits = model.forward(batch, training=True)
                _, grad = loss_grad(logits, labels)
                model.backward(grad)
        for timing in report.timings.values():
            if timing.kind in KERNEL_CLASSES:
                metrics[f"nn.kernel.{timing.kind}.fwd_s"] += \
                    timing.forward_seconds
                metrics[f"nn.kernel.{timing.kind}.bwd_s"] += \
                    timing.backward_seconds
    return metrics
