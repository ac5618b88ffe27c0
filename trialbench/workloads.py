"""The four workloads: how each builds its plan, runs one timed round, and
checks its outcomes.

Every workload drives the program only through its public entry points:
``CampaignSpec.build_tasks`` (the harnesses' registered ``build_plan``),
``run_campaign``, and ``CampaignStore`` + ``run_worker``.  The seed goes
into ``CampaignSpec.seed``, which sets both the baseline training seed and
the injection seeds; the program sees only the plans built from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments import table5_single_bitflip as table5
from repro.experiments.common import SCALES, BaselineCache, spec_from_payload
from repro.experiments.runner import Journal, TrialRecord, TrialTask, \
    run_campaign, trial_kind
from repro.injector import CheckpointCorrupter
from repro.serve import CampaignSpec, CampaignStore, plan_builder
from repro.serve.scheduler import run_worker

from .env import numeric_key

#: the trial kind behind ``serve-ceiling``: near-free, fig3-shaped outcome
NULL_KIND = "trialbench-null"

#: how often the parent checks whether a serve campaign is done; the
#: campaign's wall time is known to this granularity
DONE_POLL_S = 0.01

#: a serve round that is not done by then is cut short, and its missing
#: trials count as mismatches
SERVE_TIMEOUT_S = 120.0


def nproc() -> int:
    """Worker count of the fork workloads: every CPU, and at least two so
    the fork paths run even on a one-CPU machine."""
    return max(2, os.cpu_count() or 1)


def smoke_copy(trainings: int) -> str:
    """Register (once) and name a copy of the ``smoke`` scale that differs
    only in its trials per cell."""
    name = f"smoke-x{trainings}"
    if name not in SCALES:
        SCALES[name] = dataclasses.replace(SCALES["smoke"], name=name,
                                           trainings=trainings)
    return name


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``reference`` workloads are checked against the same plan run
    sequentially in-process; ``fig3-seq`` against its own first round and
    ``serve-ceiling`` against the outcome each payload determines.
    ``serve`` workloads are submitted to a store and drained by forked
    ``run_worker`` processes instead of calling ``run_campaign``.
    """

    name: str
    kind: str
    scale: str
    params: dict = field(default_factory=dict)
    workers: int = 1
    batch_trials: int = 1
    reference: bool = False
    serve: bool = False

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(kind=self.kind, scale=self.scale, seed=seed,
                            params=self.params,
                            batch_trials=self.batch_trials)


FIG3_PARAMS = {"pairs": [list(pair) for pair in fig3.DEFAULT_PAIRS],
               "bitflips": list(fig3.DEFAULT_BITFLIPS),
               "trainings": 1}

WORKLOADS = {
    workload.name: workload for workload in (
        Workload("fig3-seq", "fig3", "smoke", FIG3_PARAMS),
        Workload("table5-batched", "table5", smoke_copy(8),
                 batch_trials=8, reference=True),
        Workload("fig3-pool", "fig3", "smoke", FIG3_PARAMS,
                 workers=nproc(), reference=True),
        # one worker: the same single process as fig3-seq, plus serve's
        # planning, claims, shard journals and telemetry
        Workload("fig3-serve", "fig3", "smoke", FIG3_PARAMS,
                 reference=True, serve=True),
        # by hand only: its throughput follows the disk's fsync latency
        Workload("serve-ceiling", NULL_KIND, "smoke", {"trials": 3000},
                 workers=nproc(), serve=True),
    )
}

#: the golden check of each trial kind: every model or checkpoint layout
#: its workload uses, at a fixed seed, run sequentially; the outcome
#: digests are recorded in ``GOLDEN_PATH`` per :func:`numeric_key`
GOLDEN_SEED = 1000
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
GOLDEN = {
    "fig3": Workload("golden-fig3", "fig3", "smoke",
                     dict(FIG3_PARAMS, bitflips=[1000])),
    "table5": Workload("golden-table5", "table5", smoke_copy(1),
                       {"frameworks": list(table5.DEFAULT_FRAMEWORKS),
                        "models": ["alexnet"]}),
}


# -- the serve-ceiling trial kind ----------------------------------------

def null_outcome(payload: dict) -> dict:
    """A fig3-shaped outcome (two-epoch curve, verdict) that is a pure
    function of the payload, so every journaled record can be checked."""
    digest = hashlib.sha256(
        f"{payload['seed']}/{payload['index']}".encode()).digest()
    return {"curve": [digest[0] / 256, digest[1] / 256],
            "outcome_class": "masked" if digest[2] % 8 else "degraded"}


@trial_kind(NULL_KIND)
def null_trial(payload: dict) -> dict:
    return null_outcome(payload)


@plan_builder(NULL_KIND)
def null_plan(spec: CampaignSpec, cache) -> list[TrialTask]:
    return [TrialTask(trial_id=f"{NULL_KIND}/{spec.seed}/{index}",
                      kind=NULL_KIND,
                      payload={"seed": spec.seed, "index": index})
            for index in range(spec.params["trials"])]


# -- outcomes --------------------------------------------------------------

def outcome_digest(record: TrialRecord) -> str:
    """Digest of what a trial concluded: status, outcome (curve or finals,
    bit for bit) and ``outcome_class``; runtime fields are left out."""
    blob = json.dumps([record.status, record.outcome, record.outcome_class],
                      sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def null_digests(tasks: list[TrialTask]) -> dict[str, str]:
    """The digest every ``serve-ceiling`` trial must journal."""
    digests = {}
    for task in tasks:
        outcome = null_outcome(task.payload)
        digests[task.trial_id] = outcome_digest(TrialRecord(
            trial_id=task.trial_id, kind=task.kind, status="ok",
            outcome=outcome, outcome_class=outcome["outcome_class"]))
    return digests


def plan_digest(digests: dict[str, str]) -> str:
    """One digest over every trial's outcome digest, keyed by trial id."""
    blob = json.dumps(sorted(digests.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def mismatches(records: list, expected: dict[str, str]) -> int:
    """How many trials of *expected* are not journaled exactly once, or are
    journaled ``ok`` with another outcome digest.  A trial journaled
    ``failed`` counts as failed, not also as a mismatch."""
    return len(mismatched(records, expected))


def mismatched(records: list, expected: dict[str, str]) -> set[str]:
    """The trial ids :func:`mismatches` counts."""
    by_id: dict[str, list] = {}
    for record in records:
        by_id.setdefault(record.trial_id, []).append(record)
    return {trial_id for trial_id, digest in expected.items()
            if len(got := by_id.get(trial_id, [])) != 1
            or (got[0].status == "ok" and outcome_digest(got[0]) != digest)}


# -- set-up ----------------------------------------------------------------

def setup(workload: Workload, seed: int, root: str) -> None:
    """Cold set-up into the empty directory *root*: baseline training,
    checkpoint saves and plan build; serve workloads then create a store and
    submit the campaign, as a user does before starting workers."""
    plan(workload, seed, root)
    if workload.serve:
        CampaignStore(os.path.join(root, "store")).submit(workload.spec(seed))


def plan(workload: Workload, seed: int, cache_root: str) -> list[TrialTask]:
    """The workload's plan against an already warm baseline cache."""
    return workload.spec(seed).build_tasks(BaselineCache(cache_root))


def model_specs(tasks: list[TrialTask]) -> list:
    """The distinct session specs a plan trains, in plan order."""
    seen: dict[str, object] = {}
    for task in tasks:
        spec = task.payload.get("spec")
        if spec is not None:
            seen.setdefault(json.dumps(spec, sort_keys=True),
                            spec_from_payload(spec))
    return list(seen.values())


def reference_digests(tasks: list[TrialTask]) -> dict[str, str]:
    """Outcome digests of *tasks* run sequentially in-process, one trial at
    a time: the path every other mode must match bit for bit."""
    result = run_campaign(tasks, workers=1, batch_trials=1)
    return {r.trial_id: outcome_digest(r) for r in result.records}


# -- the golden check ------------------------------------------------------

def golden_run(golden: Workload, root: str) -> tuple[list, list, list]:
    """Set *golden* up in the empty directory *root* and run it
    sequentially in-process: its tasks, its records and the ``(attempts,
    successes)`` of every injection, in order."""
    setup(golden, GOLDEN_SEED, root)
    tasks = plan(golden, GOLDEN_SEED, root)
    injections = []
    corrupt = CheckpointCorrupter.corrupt

    def counted(self, *args, **kwargs):
        result = corrupt(self, *args, **kwargs)
        injections.append((result.attempts, result.successes))
        return result

    CheckpointCorrupter.corrupt = counted
    try:
        result = run_campaign(tasks, workers=1, batch_trials=1)
    finally:
        CheckpointCorrupter.corrupt = corrupt
    return tasks, result.records, injections


def golden_check(golden: Workload, root: str,
                 recorded: dict[str, str] | None) -> dict:
    """Run *golden* and count its wrong trials: an injection that did not
    flip exactly the bits its payload asks for (table5 flips one), or an
    outcome other than the *recorded* digest.  Without a record for this
    machine's numeric key only the injections are checked."""
    tasks, records, injections = golden_run(golden, root)
    planned = [(flips, flips) for flips in
               (task.payload.get("flips", 1) for task in tasks)]
    wrong = {task.trial_id for task, got, want
             in zip(tasks, injections, planned) if got != want}
    if len(injections) != len(tasks):
        wrong = {task.trial_id for task in tasks}
    if recorded is not None:
        wrong |= mismatched(records, recorded)
    return {"trials": len(tasks),
            "failed": sum(1 for r in records if r.status != "ok"),
            "mismatches": len(wrong), "digests_checked": recorded is not None}


def _golden_file() -> dict:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def golden_record(kind: str) -> dict[str, str] | None:
    """The recorded digests of *kind*'s golden check for this machine's
    numeric key, if any."""
    return _golden_file().get(numeric_key(), {}).get(kind)


def record_golden(work: str) -> str:
    """Run every golden check and store its digests under this machine's
    numeric key in ``GOLDEN_PATH``; returns the key."""
    recorded = _golden_file()
    entry = recorded.setdefault(numeric_key(), {})
    for kind, golden in GOLDEN.items():
        root = fresh_dir(os.path.join(work, kind))
        _, records, _ = golden_run(golden, root)
        shutil.rmtree(root)
        if any(r.status != "ok" for r in records):
            raise RuntimeError(f"golden {kind} run has failed trials")
        entry[kind] = {r.trial_id: outcome_digest(r) for r in records}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return numeric_key()


# -- timed rounds -----------------------------------------------------------

def tree_cpu() -> float:
    """User + system CPU seconds of this process and its waited children."""
    times = os.times()
    return times.user + times.system + times.children_user \
        + times.children_system


@dataclass
class Round:
    """One timed campaign: wall time, CPU time and its journal records."""

    wall: float
    cpu: float
    records: list
    telemetry_bytes: int = 0

    @property
    def ok(self) -> int:
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def failed(self) -> int:
        return len(self.records) - self.ok

    def summary(self, planned: int, mismatches: int) -> dict:
        """The round as the result needs it: *planned* trials attempted,
        of which ``failed`` were journaled failed and *mismatches* are
        missing, duplicated or wrong."""
        return {"wall": self.wall, "cpu": self.cpu, "trials": planned,
                "ok": self.ok, "failed": self.failed,
                "mismatches": mismatches}


def campaign_round(workload: Workload, seed: int, tasks: list[TrialTask],
                   journal_path: str) -> Round:
    """Run the plan once through ``run_campaign``, journaled, as the CLI
    does with ``--journal``; the clock covers the call."""
    kwargs = workload.spec(seed).runner_kwargs()
    cpu = tree_cpu()
    start = time.perf_counter()
    result = run_campaign(tasks, workers=workload.workers,
                          journal=journal_path, **kwargs)
    wall = time.perf_counter() - start
    return Round(wall=wall, cpu=tree_cpu() - cpu, records=result.records)


def serve_round(workload: Workload, seed: int, root: str, cache_root: str,
                tracer=None) -> Round:
    """Submit the campaign to a fresh store (untimed), then time forked
    ``run_worker`` processes, reading baselines from *cache_root*, draining
    it until the campaign is done.

    Workers poll rather than drain-and-exit: a draining worker that finds
    the plan lease held by another would leave at once.
    """
    store = CampaignStore(root)
    cid = store.submit(workload.spec(seed))
    stop_file = os.path.join(root, "stop")
    ctx = get_context("fork")
    workers = [ctx.Process(target=_serve_worker,
                           args=(root, f"worker-{index}", stop_file,
                                 cache_root, tracer))
               for index in range(workload.workers)]
    cpu = tree_cpu()
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    try:
        while store.coarse_state(cid) not in ("done", "failed", "cancelled"):
            if not any(worker.is_alive() for worker in workers) or \
                    time.perf_counter() - start > SERVE_TIMEOUT_S:
                break
            time.sleep(DONE_POLL_S)
        wall = time.perf_counter() - start
    finally:
        with open(stop_file, "w"):
            pass
        for worker in workers:
            worker.join(timeout=60)
            if worker.is_alive():
                worker.terminate()
                worker.join()
    records = [record for shard_id in store.shard_ids(cid)
               for record in Journal(
                   store.shard_journal_path(cid, shard_id)).load()]
    return Round(wall=wall, cpu=tree_cpu() - cpu, records=records,
                 telemetry_bytes=sum(os.path.getsize(path) for path
                                     in store.telemetry_paths(cid)))


def _serve_worker(root: str, owner: str, stop_file: str, cache_root: str,
                  tracer) -> None:
    # the worker plans through the default baseline cache, which reads
    # this variable when it is used
    os.environ["REPRO_CACHE_DIR"] = cache_root
    if tracer is None:
        run_worker(root, owner=owner, stop_file=stop_file)
        return
    try:
        with tracer.span("serve.worker"):
            run_worker(root, owner=owner, stop_file=stop_file)
    finally:
        tracer.flush()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
