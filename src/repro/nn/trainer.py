"""Deterministic training loop with per-epoch metrics and collapse detection."""

from __future__ import annotations

import contextlib
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry
from . import functional as F
from .model import Model
from .optim import Optimizer
from .rng import stream


@dataclass
class EpochMetrics:
    """Metrics of one completed epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_loss: float | None = None
    test_accuracy: float | None = None
    collapsed: bool = False


@dataclass
class TrainingHistory:
    """Accumulated epoch metrics plus collapse bookkeeping."""

    epochs: list[EpochMetrics] = field(default_factory=list)

    def append(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)

    @property
    def collapsed(self) -> bool:
        return any(m.collapsed for m in self.epochs)

    def accuracies(self, split: str = "test") -> list[float]:
        key = "test_accuracy" if split == "test" else "train_accuracy"
        return [getattr(m, key) for m in self.epochs]

    def final_accuracy(self, split: str = "test") -> float | None:
        values = [v for v in self.accuracies(split) if v is not None]
        return values[-1] if values else None


class Trainer:
    """Mini-batch SGD training with deterministic shuffling.

    Shuffling for epoch *e* is drawn from the named stream
    ``("shuffle", e)`` — a pure function of the global seed and the epoch —
    so resuming from a checkpoint at epoch 20 replays exactly the batches an
    uninterrupted run would have seen (the property the paper's
    deterministic-training methodology depends on).
    """

    def __init__(self, model: Model, optimizer: Optimizer,
                 batch_size: int = 32,
                 stop_on_collapse: bool = True,
                 epoch_callback: Callable[[int, "Trainer"], None] | None = None,
                 scheduler=None,
                 augmenter=None,
                 health_probe=None):
        self.model = model
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.stop_on_collapse = stop_on_collapse
        self.epoch_callback = epoch_callback
        self.scheduler = scheduler
        self.augmenter = augmenter  # callable(images, epoch) -> images
        # duck-typed repro.health.ModelHealthProbe: observe(model, opt, epoch)
        self.health_probe = health_probe
        self.history = TrainingHistory()
        self.epoch = 0

    def run_epoch(self, x: np.ndarray, labels: np.ndarray) -> EpochMetrics:
        """Train one epoch; returns its metrics (not yet evaluated on test)."""
        self.epoch += 1
        if self.scheduler is not None:
            # schedules are functions of the epoch number, so a restart at
            # epoch k resumes the schedule rather than restarting it
            self.scheduler.apply(self.epoch)
        for layer in self.model.layers():
            layer.on_epoch_start(self.epoch)
        order = stream("shuffle", self.epoch).permutation(x.shape[0])
        if self.augmenter is not None:
            # augmentation is keyed by epoch, so restarts replay it exactly
            x = self.augmenter(x, self.epoch)
        losses: list[float] = []
        correct = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, x.shape[0], self.batch_size):
                idx = order[start:start + self.batch_size]
                batch = x[idx]
                batch_labels = labels[idx]
                logits = self.model.forward(batch, training=True)
                loss, grad = F.softmax_cross_entropy_with_grad(
                    logits, batch_labels
                )
                losses.append(loss)
                correct += int(
                    np.sum(np.argmax(logits, axis=1) == batch_labels)
                )
                self.model.backward(grad)
                self.optimizer.step(self.model)
        train_loss = float(np.mean(losses)) if losses else float("nan")
        collapsed = not np.isfinite(train_loss)
        if collapsed:
            # distinguish transient loss overflow from weight corruption
            collapsed = True
        elif self.model.has_nonfinite_parameters():
            collapsed = True
        return EpochMetrics(
            epoch=self.epoch,
            train_loss=train_loss,
            train_accuracy=correct / x.shape[0],
            collapsed=collapsed,
        )

    def fit(self, x: np.ndarray, labels: np.ndarray,
            epochs: int,
            x_test: np.ndarray | None = None,
            labels_test: np.ndarray | None = None) -> TrainingHistory:
        """Train for *epochs* epochs, evaluating after each one."""
        with telemetry.span("train", epochs=epochs,
                            batch_size=self.batch_size) as span:
            for _ in range(epochs):
                epoch_start = time.perf_counter()
                metrics = self.run_epoch(x, labels)
                if x_test is not None and not metrics.collapsed:
                    with np.errstate(over="ignore", invalid="ignore",
                                     divide="ignore"):
                        test_loss, test_acc = self.model.evaluate(
                            x_test, labels_test, self.batch_size
                        )
                    metrics.test_loss = test_loss
                    metrics.test_accuracy = test_acc
                    if not np.isfinite(test_loss):
                        metrics.collapsed = True
                self.history.append(metrics)
                telemetry.event(
                    "epoch", epoch=metrics.epoch,
                    train_loss=metrics.train_loss,
                    train_accuracy=metrics.train_accuracy,
                    test_loss=metrics.test_loss,
                    test_accuracy=metrics.test_accuracy,
                    collapsed=metrics.collapsed,
                    duration=time.perf_counter() - epoch_start,
                )
                if self.health_probe is not None:
                    # read-only, RNG-free: probed runs stay bit-identical
                    self.health_probe.observe(self.model, self.optimizer,
                                              self.epoch)
                if self.epoch_callback is not None:
                    self.epoch_callback(self.epoch, self)
                if metrics.collapsed and self.stop_on_collapse:
                    break
            span.set(epochs_run=len(self.history.epochs),
                     final_accuracy=self.history.final_accuracy(),
                     collapsed=self.history.collapsed)
        return self.history


# ---------------------------------------------------------------------------
# Batched multi-trial training
# ---------------------------------------------------------------------------

class _TrialModelView:
    """Read-only Model-like slice of one live trial in a stacked model.

    Duck-typed for :class:`repro.health.ModelHealthProbe` — it only needs
    ``named_parameters()``/``named_state()``, and slice *position* of every
    stacked array is bitwise the corresponding sequential trial's array.
    """

    def __init__(self, model: Model, position: int):
        self._model = model
        self._position = position

    def named_parameters(self):
        return {key: value[self._position]
                for key, value in self._model.named_parameters().items()}

    def named_state(self):
        return {key: value[self._position]
                for key, value in self._model.named_state().items()}


class _TrialOptimizerView:
    """Optimizer slice companion to :class:`_TrialModelView`: per-trial slot
    buffers, shared scalars (``step_count``) passed through unchanged."""

    def __init__(self, optimizer: Optimizer, position: int):
        self._optimizer = optimizer
        self._position = position

    def state_arrays(self):
        out = {}
        for key, value in self._optimizer.state_arrays().items():
            array = np.asarray(value)
            out[key] = array[self._position] if array.ndim else array
        return out


class _SubStack:
    """One contiguous group of a :class:`BatchedTrainer`'s trials, stacked
    into one model and one optimizer.

    Its methods are numpy work on its own arrays only, so the trainer runs
    several sub-stacks side by side on threads (numpy releases the
    interpreter lock inside its kernels).
    """

    def __init__(self, model: Model, optimizer: Optimizer, first: int):
        trials = None
        for layer in model.layers():
            if layer.trials is not None:
                trials = layer.trials
                break
        if trials is None:
            raise ValueError(
                "model has no trial axis; stack it with "
                "repro.batched.stack_models first"
            )
        self.model = model
        self.optimizer = optimizer
        #: original trial index occupying each live stack position
        self.active = list(range(first, first + trials))

    def train_epoch(self, x: np.ndarray, labels: np.ndarray,
                    order: np.ndarray, batch_size: int, epoch: int
                    ) -> tuple[list[list[float]], np.ndarray, np.ndarray]:
        """One epoch of steps over *x* in *order*: per-position mini-batch
        losses, correct counts and non-finite weight verdicts."""
        for layer in self.model.layers():
            layer.on_epoch_start(epoch)
        live = len(self.active)
        losses: list[list[float]] = [[] for _ in range(live)]
        correct = np.zeros(live, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, x.shape[0], batch_size):
                idx = order[start:start + batch_size]
                batch = x[idx]
                batch_labels = labels[idx]
                stacked = np.broadcast_to(batch, (live,) + batch.shape)
                logits = self.model.forward(stacked, training=True)
                batch_losses, grad = F.softmax_cross_entropy_with_grad_stacked(
                    logits, batch_labels
                )
                for pos in range(live):
                    losses[pos].append(float(batch_losses[pos]))
                correct += np.sum(
                    np.argmax(logits, axis=-1) == batch_labels, axis=-1
                )
                self.model.backward(grad)
                self.optimizer.step(self.model)
        return losses, correct, self.nonfinite()

    def evaluate(self, x: np.ndarray, labels: np.ndarray,
                 batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked mirror of ``Model.evaluate``: per-position (loss,
        accuracy)."""
        live = len(self.active)
        outputs = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, x.shape[0], batch_size):
                batch = x[start:start + batch_size]
                stacked = np.broadcast_to(batch, (live,) + batch.shape)
                outputs.append(self.model.forward(stacked, training=False))
            logits = np.concatenate(outputs, axis=1)
            probs = F.softmax(logits)
            return (F.cross_entropy_stacked(probs, labels),
                    F.accuracy_stacked(logits, labels))

    def nonfinite(self) -> np.ndarray:
        """Per-position mirror of ``Model.has_nonfinite_parameters``."""
        live = len(self.active)
        mask = np.zeros(live, dtype=bool)
        for layer in self.model.layers():
            for group in (layer.params, layer.state):
                for value in group.values():
                    flat = value.astype(np.float64).reshape(live, -1)
                    mask |= ~np.isfinite(flat).all(axis=1)
        return mask

    def slice_arrays(self,
                     position: int) -> dict[tuple[str, str], np.ndarray]:
        out: dict[tuple[str, str], np.ndarray] = {}
        for layer in self.model.layers():
            for group in (layer.params, layer.state):
                for key, value in group.items():
                    out[(layer.name, key)] = value[position].copy()
        return out

    def prune(self, keep: np.ndarray
              ) -> dict[int, dict[tuple[str, str], np.ndarray]]:
        """Drop the positions *keep* rejects; returns their final arrays,
        keyed by original trial index.

        Survivor slices are fancy-index copies — their bytes are untouched,
        which is what keeps post-prune training bit-identical to sequential
        runs of the surviving trials.
        """
        dropped = {trial: self.slice_arrays(position)
                   for position, trial in enumerate(self.active)
                   if not keep[position]}
        survivors = int(keep.sum())
        for layer in self.model.layers():
            for group in (layer.params, layer.state, layer.grads):
                for key, value in group.items():
                    group[key] = value[keep]
            layer.trials = survivors
        for slots in self.optimizer.slot_dicts():
            for key, value in slots.items():
                slots[key] = value[keep]
        self.active = [trial for trial, kept in zip(self.active, keep)
                       if kept]
        return dropped


class BatchedTrainer:
    """Train T stacked weight replicas through one shared pass per batch.

    Each model must have been stacked by :func:`repro.batched.stack_models`
    (every concrete layer carries ``layer.trials`` and a leading trial axis
    on its arrays).  Semantics mirror :class:`Trainer` *per trial*: the same
    shuffle stream, the same loss/accuracy accounting, the same collapse
    rule (non-finite train loss or any non-finite weight/state), the same
    skip-eval-then-stop behaviour for collapsed trials.  The only difference
    is mechanical: a collapsed trial is *pruned* from the stack (fancy-index
    slicing, which copies survivors' bytes verbatim) instead of breaking the
    loop, so survivors keep training while dead trials stop consuming
    compute — the batched analogue of ``stop_on_collapse``.

    *models* and *optimizers* are equal-length lists of sub-stacks:
    contiguous groups of the trials, in trial order, each stacked on its
    own (one sub-stack is the plain case).  Each epoch and each evaluation
    runs the sub-stacks side by side — the first on the calling thread,
    every other one on a thread of its own, all joined before :meth:`fit`
    returns.  The threads run only the sub-stacks' numpy work; metrics,
    probes, callbacks and telemetry stay on the calling thread.  Slice t of
    a stack of any width is bitwise the sequential trial, so the split
    changes no outcome.

    ``probes`` takes one health probe per original trial; each is observed
    through a per-trial slice view, so probe histories are bit-identical to
    sequentially probed runs.  Schedulers and augmenters are not supported —
    campaign resume paths use neither; callers needing them fall back to the
    sequential :class:`Trainer`.
    """

    def __init__(self, models: list[Model], optimizers: list[Optimizer],
                 batch_size: int = 32,
                 probes: list | None = None,
                 epoch_callback: Callable[[int, "BatchedTrainer"],
                                          None] | None = None):
        if len(models) != len(optimizers):
            raise ValueError(
                f"{len(models)} models but {len(optimizers)} optimizers"
            )
        self.stacks: list[_SubStack] = []
        trials = 0
        for stack_model, stack_optimizer in zip(models, optimizers):
            self.stacks.append(_SubStack(stack_model, stack_optimizer, trials))
            trials += len(self.stacks[-1].active)
        if probes is not None and len(probes) != trials:
            raise ValueError(
                f"got {len(probes)} probes for {trials} trials"
            )
        self.batch_size = batch_size
        self.probes = probes
        self.epoch_callback = epoch_callback
        self.trials = trials
        self.histories = [TrainingHistory() for _ in range(trials)]
        #: final (params, state) slices of pruned trials, keyed by original
        #: trial index — captured at prune time so collapsed trials' weights
        #: stay available for the bit-identity oracle
        self.snapshots: dict[int, dict[tuple[str, str], np.ndarray]] = {}
        self.epoch = 0
        #: runs the sub-stacks beyond the first while :meth:`fit` runs
        self._pool: ThreadPoolExecutor | None = None

    @property
    def active(self) -> list[int]:
        """Original trial index occupying each live position (sub-stacks
        in order)."""
        return [trial for stack in self.stacks for trial in stack.active]

    # -- core loop ---------------------------------------------------------
    def run_epoch(self, x: np.ndarray,
                  labels: np.ndarray) -> list[EpochMetrics]:
        """One epoch over all live trials; returns per-position metrics."""
        self.epoch += 1
        order = stream("shuffle", self.epoch).permutation(x.shape[0])
        results = self._each_stack(lambda stack: stack.train_epoch(
            x, labels, order, self.batch_size, self.epoch))
        metrics = []
        for losses, correct, nonfinite in results:
            for pos, trial_losses in enumerate(losses):
                train_loss = (float(np.mean(trial_losses)) if trial_losses
                              else float("nan"))
                collapsed = (not np.isfinite(train_loss)
                             or bool(nonfinite[pos]))
                metrics.append(EpochMetrics(
                    epoch=self.epoch,
                    train_loss=train_loss,
                    train_accuracy=int(correct[pos]) / x.shape[0],
                    collapsed=collapsed,
                ))
        return metrics

    def fit(self, x: np.ndarray, labels: np.ndarray, epochs: int,
            x_test: np.ndarray | None = None,
            labels_test: np.ndarray | None = None) -> list[TrainingHistory]:
        """Train for *epochs*; returns one history per original trial."""
        with telemetry.span("train", epochs=epochs,
                            batch_size=self.batch_size,
                            trials=self.trials,
                            sub_stacks=len(self.stacks)) as span, \
                self._threads():
            for _ in range(epochs):
                if not self.active:
                    break
                epoch_start = time.perf_counter()
                metrics = self.run_epoch(x, labels)
                if x_test is not None and not all(m.collapsed
                                                  for m in metrics):
                    test_losses, test_accs = self._evaluate(
                        x_test, labels_test
                    )
                    for pos, m in enumerate(metrics):
                        if m.collapsed:
                            continue
                        m.test_loss = float(test_losses[pos])
                        m.test_accuracy = float(test_accs[pos])
                        if not np.isfinite(m.test_loss):
                            m.collapsed = True
                active = self.active
                for pos, m in enumerate(metrics):
                    self.histories[active[pos]].append(m)
                telemetry.event(
                    "epoch", epoch=self.epoch,
                    active_trials=len(active),
                    collapsed_trials=sum(m.collapsed for m in metrics),
                    duration=time.perf_counter() - epoch_start,
                )
                if self.probes is not None:
                    for stack in self.stacks:
                        for pos, trial in enumerate(stack.active):
                            self.probes[trial].observe(
                                _TrialModelView(stack.model, pos),
                                _TrialOptimizerView(stack.optimizer, pos),
                                self.epoch,
                            )
                if self.epoch_callback is not None:
                    self.epoch_callback(self.epoch, self)
                keep = np.array([not m.collapsed for m in metrics],
                                dtype=bool)
                if not keep.all():
                    self._prune(keep)
            span.set(
                epochs_run=max((len(h.epochs) for h in self.histories),
                               default=0),
                collapsed_trials=sum(h.collapsed for h in self.histories),
            )
        return self.histories

    # -- helpers -----------------------------------------------------------
    @contextlib.contextmanager
    def _threads(self):
        """Threads for the sub-stacks beyond the first, kept for the whole
        block and all joined when it exits, also on an exception.  They
        start on first use, so a single sub-stack starts none.  Short-lived
        threads (one per epoch and per evaluation) raised table5-batched
        peak RSS by a quarter in 2 of 8 runs (324 and 330 MB against
        259-270 MB)."""
        with ThreadPoolExecutor(max_workers=max(1, len(self.stacks) - 1),
                                thread_name_prefix="sub-stack") as pool:
            self._pool = pool
            try:
                yield
            finally:
                self._pool = None

    def _each_stack(self, job: Callable[[_SubStack], object]) -> list:
        """``job(stack)`` for every live sub-stack, results in order: the
        first on the calling thread, the others on the :meth:`fit`
        threads (outside :meth:`fit`, all on the calling thread)."""
        stacks = [stack for stack in self.stacks if stack.active]
        if self._pool is None or len(stacks) <= 1:
            return [job(stack) for stack in stacks]
        futures = [self._pool.submit(contextvars.copy_context().run, job,
                                     stack)
                   for stack in stacks[1:]]
        results = [job(stacks[0])]
        return results + [future.result() for future in futures]

    def _evaluate(self, x: np.ndarray,
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked mirror of ``Model.evaluate``: per-trial (loss, accuracy)
        over the live positions."""
        results = self._each_stack(
            lambda stack: stack.evaluate(x, labels, self.batch_size))
        return (np.concatenate([losses for losses, _ in results]),
                np.concatenate([accuracies for _, accuracies in results]))

    def trial_arrays(self, trial: int) -> dict[tuple[str, str], np.ndarray]:
        """Final weights + state of one trial, live or pruned."""
        if trial in self.snapshots:
            return self.snapshots[trial]
        for stack in self.stacks:
            if trial in stack.active:
                return stack.slice_arrays(stack.active.index(trial))
        raise ValueError(
            f"trial {trial} is not among this trainer's {self.trials}")

    def _prune(self, keep: np.ndarray) -> None:
        """Drop collapsed trials (*keep* False, one entry per live
        position) from their sub-stacks."""
        lo = 0
        for stack in self.stacks:
            hi = lo + len(stack.active)
            if not keep[lo:hi].all():
                self.snapshots.update(stack.prune(keep[lo:hi]))
            lo = hi
