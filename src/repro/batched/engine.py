"""The batched trial-execution engine: stack N replicas, train them once.

This is the compute core of ``--batch-trials``: callers load N independently
corrupted checkpoints into N ordinary (model, optimizer) pairs — through
exactly the same facade path a sequential trial uses, so the corrupted bytes
entering the stack are identical by construction — and this module stacks
them and drives one :class:`repro.nn.BatchedTrainer` over the shared
forward/backward pass.

A chunk's trials are stacked as k contiguous sub-stacks
(:func:`split_count`: at most the process's CPU share,
:mod:`repro.batched.cpu`), which the trainer runs side by side on k
threads, with OpenBLAS pinned to ``share // k`` threads each.  numpy
releases the interpreter lock inside its kernels, so the sub-stacks
overlap on separate CPUs.  Slice t of a stack of any width is bitwise the
sequential trial, so the split changes no outcome.
"""

from __future__ import annotations

import numpy as np

from ..nn.model import Model
from ..nn.optim import Optimizer
from ..nn.trainer import BatchedTrainer, TrainingHistory
from .cpu import blas_threads, cpu_share, limit_blas_threads
from .stacking import stack_models, stack_optimizers

#: Input values a sub-stack's training step must read (its trials x the
#: mini-batch x one image's values) for a split to pay.  Below it a step
#: is mostly interpreter work between numpy calls too short to release the
#: interpreter lock for long, and the threads queue for the lock.  At
#: smoke width (16x16x3 images, 768 values), 8 trials split in two ran
#: 0.5-0.8x as fast at mini-batch 1 (3,072 values per sub-stack),
#: 0.6-1.2x at 4 (12,288), 0.9-1.7x at 8 (24,576), 1.5-2.1x at 16 and 32.
SPLIT_MIN_STEP_VALUES = 16_384


def split_count(trials: int, step_values: int) -> int:
    """How many sub-stacks a chunk of *trials* trials is cut into, when
    one trial's training step reads *step_values* input values: as many
    as the CPU share allows while each gets
    :data:`SPLIT_MIN_STEP_VALUES`, and at most one per trial.

    A BLAS whose thread count cannot be pinned keeps the chunk whole: its
    own thread pool on every sub-stack would oversubscribe the CPUs.
    """
    if blas_threads() is None:
        return 1
    return max(1, min(cpu_share(), trials,
                      trials * step_values // SPLIT_MIN_STEP_VALUES))


def run_stacked_training(
    models: list[Model],
    optimizers: list[Optimizer],
    train_images: np.ndarray,
    train_labels: np.ndarray,
    epochs: int,
    *,
    start_epoch: int = 0,
    batch_size: int = 32,
    x_test: np.ndarray | None = None,
    labels_test: np.ndarray | None = None,
    probes: list | None = None,
) -> tuple[BatchedTrainer, list[TrainingHistory]]:
    """Stack *models*/*optimizers* and train them for *epochs* together.

    Returns the trainer (whose :meth:`~repro.nn.BatchedTrainer.trial_arrays`
    yields each trial's final weights, pruned or not) and the per-trial
    histories.  The replica lists are consumed by stacking — treat them as
    dead after this call.
    """
    if len(models) != len(optimizers):
        raise ValueError(
            f"{len(models)} models but {len(optimizers)} optimizers"
        )
    step_values = batch_size * (train_images[0].size if len(train_images)
                                else 0)
    groups = _contiguous_groups(len(models),
                                split_count(len(models), step_values))
    trainer = BatchedTrainer(
        [stack_models(models[lo:hi]) for lo, hi in groups],
        [stack_optimizers(optimizers[lo:hi]) for lo, hi in groups],
        batch_size=batch_size, probes=probes)
    trainer.epoch = start_epoch
    with limit_blas_threads(cpu_share() // len(groups)):
        histories = trainer.fit(train_images, train_labels, epochs,
                                x_test=x_test, labels_test=labels_test)
    return trainer, histories


def _contiguous_groups(trials: int, count: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` bounds of *count* contiguous groups covering *trials*,
    sizes differing by at most one (larger groups first)."""
    size, extra = divmod(trials, count)
    bounds, lo = [], 0
    for index in range(count):
        hi = lo + size + (index < extra)
        bounds.append((lo, hi))
        lo = hi
    return bounds
