"""Campaign execution engine: parallel, journaled, crash-safe trial running.

The paper's protocol is embarrassingly parallel — every experiment cell is
N independent inject-and-resume trainings (§V-A: 250 per cell).  This module
turns a harness's trial list into a *campaign*:

* trials run as *chunks* — one trial, or a batch of same-group trials —
  either in-process (``workers=1``) or in forked children (``workers>1``,
  or any ``trial_timeout``); every trial is a pure function of its payload,
  so all modes are bit-identical;
* every terminal outcome is appended to a JSONL *journal* — an append-only
  record of (trial id, kind, payload, outcome, status, attempts, duration,
  worker) that survives ``kill -9`` mid-campaign;
* a killed campaign resumes by replaying the journal and skipping trials
  that already have a terminal record;
* each trial gets a configurable timeout and bounded retry; a trial that
  keeps hanging or crashing is journaled ``failed`` and the campaign moves
  on instead of aborting (graceful degradation).

Harnesses register *trial kinds* — top-level functions from JSON payload to
JSON outcome — with :func:`trial_kind`; worker processes look the function
up by name, so tasks stay picklable and journal records stay replayable.
A kind may additionally register a *batched* executor with
:func:`batch_trial_kind`: under ``batch_trials > 1`` the runner chunks
same-group trials and amortizes their shared training pass
(:mod:`repro.batched`), still journaling one ordinary record per trial —
with any number of workers.
"""

from __future__ import annotations

import json
import logging
import os
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Iterable

from .. import telemetry
from ..analysis.campaign import CampaignStats
from ..batched.cpu import cpu_share, limit_blas_threads, trial_processes
from ..health.outcome import classify_trial_record

log = logging.getLogger("repro.experiments.runner")

# ---------------------------------------------------------------------------
# Trial kinds
# ---------------------------------------------------------------------------

#: name -> function(payload dict) -> outcome dict.  Worker processes resolve
#: trial functions through this registry, keeping tasks JSON-serializable.
TRIAL_KINDS: dict[str, Callable[[dict], dict]] = {}


def trial_kind(name: str) -> Callable[[Callable[[dict], dict]],
                                      Callable[[dict], dict]]:
    """Register a top-level trial function under *name*."""

    def register(func: Callable[[dict], dict]) -> Callable[[dict], dict]:
        TRIAL_KINDS[name] = func
        return func

    return register


def get_trial_kind(name: str) -> Callable[[dict], dict]:
    try:
        return TRIAL_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown trial kind {name!r}; registered: {sorted(TRIAL_KINDS)}"
        ) from None


@dataclass(frozen=True)
class _BatchKind:
    """A batched executor for one trial kind plus its grouping rule."""

    func: Callable[[list[dict]], list[dict]]
    group_key: Callable[[dict], str]


#: name -> batched executor.  A batch kind amortizes shared work (the
#: training pass) across a chunk of same-kind trials; only payloads with
#: equal ``group_key`` may share a chunk.  Kinds without an entry here run
#: sequentially even under ``batch_trials > 1``.
BATCH_TRIAL_KINDS: dict[str, _BatchKind] = {}


def batch_trial_kind(name: str, *, group_key: Callable[[dict], str]) -> \
        Callable[[Callable[[list[dict]], list[dict]]],
                 Callable[[list[dict]], list[dict]]]:
    """Register a batched executor for trial kind *name*.

    The function receives the payloads of one chunk — all sharing a
    ``group_key`` — and must return one outcome dict per payload, in order,
    each bit-identical to what the sequential kind would have produced for
    that payload (the contract ``tests/batched`` enforces).
    """

    def register(func: Callable[[list[dict]], list[dict]]) -> \
            Callable[[list[dict]], list[dict]]:
        BATCH_TRIAL_KINDS[name] = _BatchKind(func=func, group_key=group_key)
        return func

    return register


# ---------------------------------------------------------------------------
# Tasks and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialTask:
    """One unit of campaign work.

    ``trial_id`` must be unique within the campaign *and* stable across
    re-invocations — it is the resume key.  ``payload`` must be
    JSON-serializable and fully determine the trial's outcome (trials are
    pure functions; that is what makes ``workers=N`` bit-identical to
    ``workers=1``).
    """

    trial_id: str
    kind: str
    payload: dict


@dataclass
class TrialRecord:
    """One journal line: the terminal outcome of a trial."""

    trial_id: str
    kind: str
    status: str  # "ok" | "failed"
    outcome: dict | None = None
    error: str | None = None
    attempts: int = 1
    timed_out: bool = False
    duration: float = 0.0
    worker: int = 0
    payload: dict = field(default_factory=dict)
    #: canonical taxonomy verdict (repro.health.outcome.OUTCOMES); stamped
    #: by the runner on every fresh record.  Optional with a None default
    #: so journals written before the classifier existed still replay.
    outcome_class: str | None = None
    #: severity-``error`` count from the opt-in post-injection structural
    #: validation (``--validate-checkpoints``); ``None`` when the trial did
    #: not validate, so old journals replay unchanged.
    structural_findings: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def classify(self) -> str:
        """Stamp (and return) the canonical outcome classification."""
        if self.outcome_class is None:
            self.outcome_class = classify_trial_record(self.status,
                                                       self.outcome)
        return self.outcome_class

    def finalize(self) -> str:
        """Stamp every derived field on a fresh record.

        Lifts the trial's ``structural_findings`` count (when the trial ran
        post-injection checkpoint validation) onto the record so journal
        consumers don't have to dig through outcome dicts, then classifies.
        """
        if isinstance(self.outcome, dict):
            findings = self.outcome.get("structural_findings")
            if findings is not None:
                self.structural_findings = int(findings)
        return self.classify()

    def to_json_line(self) -> str:
        # allow_nan keeps NaN accuracies (collapsed trainings) round-trippable
        # through Python's json, which reads NaN/Infinity back natively.
        return json.dumps(asdict(self), allow_nan=True, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "TrialRecord":
        return cls(**json.loads(line))


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------

class Journal:
    """Append-only JSONL journal of terminal trial records.

    Every append is flushed and fsynced, so after ``kill -9`` the journal
    holds every completed trial plus at most one torn final line, which
    :meth:`load` tolerates (a torn write can only be the last line of an
    append-only file).
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

    def append(self, record: TrialRecord) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(record.to_json_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def repair(self) -> int:
        """Truncate a torn trailing line; returns the bytes removed.

        A crash mid-append leaves a partial line with no trailing newline
        (the newline is the last byte of every complete append).  It must
        be cut *before* new appends, or the next record would concatenate
        onto the torn prefix and corrupt itself.
        """
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "rb+") as handle:
            data = handle.read()
            if not data or data.endswith(b"\n"):
                return 0
            cut = data.rfind(b"\n") + 1
            handle.truncate(cut)
            return len(data) - cut

    def load(self) -> list[TrialRecord]:
        """All parseable records, skipping a torn trailing line."""
        if not os.path.exists(self.path):
            return []
        records: list[TrialRecord] = []
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TrialRecord.from_json_line(line))
            except (json.JSONDecodeError, TypeError):
                if index == len(lines) - 1:
                    continue  # torn final write from a crash — expected
                raise ValueError(
                    f"{self.path}:{index + 1}: corrupt journal line"
                ) from None
        return records

    def completed_ids(self) -> set[str]:
        return {r.trial_id for r in self.load()}


# ---------------------------------------------------------------------------
# Campaign runner
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    """Everything a harness needs to aggregate a finished campaign."""

    records: list[TrialRecord]  # in task order, replayed + fresh merged
    stats: CampaignStats

    def outcomes_by_id(self) -> dict[str, TrialRecord]:
        return {r.trial_id: r for r in self.records}

    def record_dicts(self) -> list[dict]:
        """Journal-shaped dicts for :mod:`repro.analysis.campaign` helpers
        (:func:`~repro.analysis.campaign.group_records` etc.)."""
        return [asdict(r) for r in self.records]


def run_campaign(tasks: Iterable[TrialTask], *, workers: int = 1,
                 journal: str | Journal | None = None, resume: bool = False,
                 trial_timeout: float | None = None,
                 retries: int = 1, batch_trials: int = 1) -> CampaignResult:
    """Execute *tasks*, returning records in task order.

    Parameters
    ----------
    workers:
        ``1`` runs every chunk of trials in-process, one after another
        (unless a timeout is set, which needs a child process to kill);
        ``>1`` forks up to that many children at once.
    journal:
        JSONL path (or :class:`Journal`).  When given, every terminal record
        is appended as it happens.
    resume:
        Replay the journal first and skip trials that already have a
        terminal record.
    trial_timeout:
        Seconds before an attempt is killed and counted as a timeout (a
        batched chunk gets this much per trial).
    retries:
        Extra attempts after the first failure before the trial is
        journaled ``failed``.
    batch_trials:
        ``> 1`` cuts batchable trials (same kind, same
        :func:`batch_trial_kind` group key) into chunks of up to that many
        and runs each chunk through the kind's batched executor — in-process
        or in a forked worker, like any other chunk — journaling one record
        per trial as usual.  A chunk that fails is re-run trial by trial.
    """
    tasks = list(tasks)
    seen: set[str] = set()
    for task in tasks:
        if task.trial_id in seen:
            raise ValueError(f"duplicate trial_id {task.trial_id!r}")
        seen.add(task.trial_id)

    if isinstance(journal, str):
        journal = Journal(journal)
    if journal is not None:
        journal.repair()  # cut a torn tail before any new append

    replayed: dict[str, TrialRecord] = {}
    if resume:
        if journal is None:
            raise ValueError("resume=True requires a journal")
        replayed = {r.trial_id: r for r in journal.load()}

    todo = [t for t in tasks if t.trial_id not in replayed]
    log.debug("campaign: %d tasks (%d to run, %d replayed), workers=%d",
              len(tasks), len(todo), len(replayed), max(1, workers))
    start = time.monotonic()
    with telemetry.span("campaign", workers=max(1, workers),
                        total=len(tasks), skipped=len(replayed),
                        batch_trials=max(1, batch_trials)) as campaign:
        fresh = _execute(_cut_chunks(todo, batch_trials), journal,
                         max(1, workers), trial_timeout, retries)
        wall_time = time.monotonic() - start

        by_id = dict(replayed)
        by_id.update(fresh)
        records = [by_id[t.trial_id] for t in tasks]
        stats = CampaignStats.from_records(
            [asdict(r) for r in records],
            wall_time=wall_time, workers=max(1, workers),
            executed=len(fresh), skipped=len(tasks) - len(todo),
        )
        campaign.set(executed=stats.executed, ok=stats.ok,
                     failed=stats.failed, retries=stats.retries,
                     timeouts=stats.timeouts)
    telemetry.flush_metrics()  # parent-side counters join the event stream
    return CampaignResult(records=records, stats=stats)


# -- the executor -----------------------------------------------------------

def _dispatch_payload(task: TrialTask) -> dict:
    """The payload copy handed to a trial function.

    ``trial_id`` rides along so emitters deep inside the trial — the
    injector's ``flip`` provenance, the health probe's per-epoch snapshots
    — can stamp the trial identity onto their telemetry (batched execution
    shares one pid across N trials, so pid alone cannot attribute events).
    The journaled record's ``payload`` stays the task's own, unchanged.
    """
    return {**task.payload, "trial_id": task.trial_id}


@dataclass
class _Chunk:
    """The executor's unit of work: one trial, or (``batched``) a cut of
    same-group trials run through the kind's batched executor.

    Only a single trial is ever retried — a failed batch is split instead
    — so ``attempt`` and ``timed_out`` are per-trial bookkeeping.
    """

    tasks: list[TrialTask]
    batched: bool = False
    attempt: int = 1
    timed_out: bool = False  # some attempt so far timed out
    first_started: float | None = None
    run_time: float = 0.0  # summed wall time of the attempts so far
    span: object = telemetry.NOOP_SPAN  # "trial", or "trial_batch"
    # the attempt in flight
    started: float = 0.0
    slot: int = 0
    process: object = None
    conn: object = None
    deadline: float | None = None


def _cut_chunks(tasks: list[TrialTask], batch_trials: int) -> list[_Chunk]:
    """Cut *tasks* into chunks, ordered by each chunk's first task.

    Under ``batch_trials > 1`` a kind with a :func:`batch_trial_kind`
    executor is grouped by (kind, group key), task order kept within a
    group, and each group cut into consecutive chunks of up to
    ``batch_trials`` (a ragged tail is an ordinary smaller chunk).  Every
    other task is a chunk of its own.
    """
    chunks: list[_Chunk] = []
    open_chunks: dict[tuple[str, str], _Chunk] = {}
    for task in tasks:
        batch_kind = (BATCH_TRIAL_KINDS.get(task.kind) if batch_trials > 1
                      else None)
        if batch_kind is None:
            chunks.append(_Chunk([task]))
            continue
        key = (task.kind, batch_kind.group_key(task.payload))
        chunk = open_chunks.get(key)
        if chunk is None or len(chunk.tasks) == batch_trials:
            chunk = open_chunks[key] = _Chunk([], batched=True)
            chunks.append(chunk)
        chunk.tasks.append(task)
    return chunks


def _run_chunk(chunk: _Chunk) -> list[dict]:
    """Run *chunk* in this process: one outcome per task, in order.

    The registries are read here, at dispatch, not at import, so an entry
    swapped after this module loaded (a benchmark's timing wrapper) is
    the one that runs.  OpenBLAS runs at most this process's CPU share of
    threads for the chunk (a lone process keeps its count).
    """
    kind = chunk.tasks[0].kind
    payloads = [_dispatch_payload(task) for task in chunk.tasks]
    with telemetry.activate(chunk.span), limit_blas_threads(cpu_share()):
        if not chunk.batched:
            return [get_trial_kind(kind)(payloads[0])]
        outcomes = BATCH_TRIAL_KINDS[kind].func(payloads)
    if len(outcomes) != len(payloads):
        raise ValueError(f"batch executor returned {len(outcomes)} outcomes "
                         f"for {len(payloads)} trials")
    return outcomes


def _child_main(conn, chunk: _Chunk, workers: int) -> None:
    """Forked entry point: run *chunk*, ship its outcomes over the pipe.

    The chunk's span comes through ``fork`` with the rest of the parent's
    memory; :func:`_run_chunk` activates it, so every span the trials open
    (``inject``, ``train``, ``hdf5.open``) is a descendant of the
    parent-side ``trial``/``trial_batch`` span in the merged event stream.
    Up to *workers* children run at once, so each gets that fraction of
    the CPUs.
    """
    try:
        with trial_processes(workers):
            outcomes = _run_chunk(chunk)
        conn.send(("ok", outcomes))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(limit=8)))
        except Exception:
            pass
    finally:
        telemetry.flush_metrics()  # worker counters join the merged stream
        conn.close()


def _execute(chunks: list[_Chunk], journal: Journal | None, workers: int,
             trial_timeout: float | None,
             retries: int) -> dict[str, TrialRecord]:
    """Run *chunks* to one terminal record per trial.

    With ``workers == 1`` and no timeout every chunk runs in this process,
    one after another.  Otherwise every attempt forks a child, up to
    *workers* at a time: a crash or hang kills the child, never the
    campaign, and a timeout is a simple ``terminate()``.

    One failure rule covers both.  A batched chunk that raises, crashes
    or misses its deadline (``trial_timeout`` per trial) is split into
    single trials at the front of the queue, which costs them no attempt.
    A single trial that fails is retried up to *retries* times, then
    journaled ``failed``.
    """
    forked = workers > 1 or trial_timeout is not None
    ctx = get_context("fork")
    queue = deque(chunks)
    running: list[_Chunk] = []
    free_slots = list(range(workers - 1, -1, -1))
    results: dict[str, TrialRecord] = {}
    start = time.monotonic()
    busy_seconds = 0.0  # summed attempt wall time, for worker utilization

    def finish(chunk: _Chunk, task: TrialTask, status: str,
               outcome: dict | None, error: str | None,
               duration: float) -> None:
        """Build, count, trace and journal one terminal record."""
        record = TrialRecord(
            trial_id=task.trial_id, kind=task.kind, status=status,
            outcome=outcome, error=error, attempts=chunk.attempt,
            timed_out=chunk.timed_out, duration=duration, worker=chunk.slot,
            payload=task.payload,
        )
        record.finalize()
        telemetry.count(f"runner.trials_{status}")
        telemetry.count(f"runner.outcome_{record.outcome_class}")
        if not chunk.batched:
            chunk.span.set(
                status=status, attempts=chunk.attempt, worker=chunk.slot,
                timed_out=chunk.timed_out,
                queue_wait=chunk.first_started - start,
                run_time=chunk.run_time, outcome=record.outcome_class,
            )
            chunk.span.finish(status)
        log.debug("trial %s: %s after %d attempt(s) in %.3fs (worker %d)",
                  task.trial_id, status, chunk.attempt, duration, chunk.slot)
        results[task.trial_id] = record
        if journal is not None:
            journal.append(record)

    def settle(chunk: _Chunk, status: str, value, now: float,
               timed_out: bool = False) -> None:
        """Turn one finished attempt into records, a split or a retry."""
        nonlocal busy_seconds
        busy_seconds += now - chunk.started
        chunk.run_time += now - chunk.started
        free_slots.append(chunk.slot)
        if status == "ok" and chunk.batched:
            # per-trial attribution inside a shared training pass is
            # meaningless, but the journal's durations must still sum to
            # the time actually spent
            chunk.span.set(fallback=False, run_time=chunk.run_time)
            chunk.span.finish("ok")
            for task, outcome in zip(chunk.tasks, value):
                finish(chunk, task, "ok", outcome, None,
                       chunk.run_time / len(chunk.tasks))
        elif status == "ok":
            finish(chunk, chunk.tasks[0], "ok", value[0], None,
                   now - chunk.first_started)
        elif chunk.batched:
            log.warning("batch of %d %r trials failed; re-running them one "
                        "by one:\n%s", len(chunk.tasks), chunk.tasks[0].kind,
                        value)
            telemetry.count("runner.batch_fallbacks")
            chunk.span.set(fallback=True)
            chunk.span.finish("failed")
            queue.extendleft(_Chunk([task]) for task in reversed(chunk.tasks))
        else:
            chunk.timed_out = chunk.timed_out or timed_out
            if chunk.attempt <= retries:
                telemetry.count("runner.retries")
                chunk.attempt += 1
                queue.appendleft(chunk)
            else:
                finish(chunk, chunk.tasks[0], "failed", None, value,
                       now - chunk.first_started)

    while queue or running:
        while queue and free_slots:
            chunk = queue.popleft()
            now = time.monotonic()
            chunk.slot = free_slots.pop()
            chunk.started = now
            if chunk.first_started is None:
                # the span covers first dispatch -> terminal record, across
                # retries; the trials' own spans nest under it
                chunk.first_started = now
                first = chunk.tasks[0]
                chunk.span = (
                    telemetry.start_span("trial_batch", kind=first.kind,
                                         size=len(chunk.tasks))
                    if chunk.batched else
                    telemetry.start_span("trial", trial_id=first.trial_id,
                                         kind=first.kind))
            if not forked:
                try:
                    status, value = "ok", _run_chunk(chunk)
                except Exception:
                    status, value = "error", traceback.format_exc(limit=8)
                settle(chunk, status, value, time.monotonic())
                continue
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            chunk.process = ctx.Process(target=_child_main,
                                        args=(child_conn, chunk, workers))
            chunk.process.start()
            child_conn.close()
            chunk.conn = parent_conn
            chunk.deadline = (None if trial_timeout is None
                              else now + trial_timeout * len(chunk.tasks))
            running.append(chunk)
        if not running:
            continue

        ready = connection.wait([c.conn for c in running], timeout=0.05)
        now = time.monotonic()
        still: list[_Chunk] = []
        for chunk in running:
            # a child may exit between connection.wait and this check with
            # its result still buffered in the pipe — poll before trusting
            # the exit code, or a completed chunk gets retried as crashed.
            if chunk.conn in ready or chunk.conn.poll(0):
                try:
                    status, value = chunk.conn.recv()
                except (EOFError, OSError):
                    # child died without reporting (crash / os._exit)
                    status, value = "error", "worker died without a result"
                    telemetry.count("runner.worker_crashes")
                chunk.process.join()
                chunk.conn.close()
                settle(chunk, status, value, now)
            elif chunk.process.exitcode is not None:
                # exited without sending anything
                chunk.conn.close()
                telemetry.count("runner.worker_crashes")
                settle(chunk, "error",
                       f"worker exited with code {chunk.process.exitcode} "
                       "before reporting a result", now)
            elif chunk.deadline is not None and now > chunk.deadline:
                chunk.process.terminate()
                chunk.process.join()
                chunk.conn.close()
                telemetry.count("runner.timeouts")
                settle(chunk, "error",
                       f"trial timed out after {now - chunk.started:.1f}s",
                       now, timed_out=True)
            else:
                still.append(chunk)
        running = still

    elapsed = time.monotonic() - start
    if elapsed > 0:
        telemetry.gauge("runner.worker_utilization",
                        busy_seconds / (workers * elapsed))
    telemetry.count("runner.busy_seconds", busy_seconds)
    return results
