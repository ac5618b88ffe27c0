#!/usr/bin/env python3
"""Trial-throughput benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 trialbench/run.py --workload fig3-seq --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``trialbench/README.md``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any outcome is wrong.

The run is split into child processes of this one, so that set-up and
the reference runs do not count toward the timed run's CPU time and peak
RSS: ``prepare`` (one cold set-up, the sequential reference and the golden
check), ``measure`` (the timed rounds, then the traced round) and, between
the timed rounds, more ``setup`` children.  Every timed round and set-up
is bracketed by probes of the host's speed, and the timed metrics are
reported in reference seconds (see ``hostspeed``).  All files go to
``.trialbench/`` under the checkout, temporary files included, and are
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("fig3-seq", "table5-batched", "fig3-pool", "fig3-serve",
                  "serve-ceiling")

#: cold set-ups per run, the median reported: one in ``prepare``, the others
#: after timed rounds, so that they sample the same stretch of the host's
#: speed as the rounds do
SETUP_REPEATS = 4

#: each probe of the host's speed around a timed round takes at least this
#: share of the round's time (see ``hostspeed``)
PROBE_SHARE = 0.05

#: the whole run must end within this many seconds
RUN_BUDGET_S = 170.0


def _import_program() -> None:
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- child phases -----------------------------------------------------------

def phase_prepare(state: dict) -> dict:
    """One cold set-up, then the sequential reference and the golden
    check."""
    _import_program()
    from trialbench import layers, workloads
    from trialbench.tracing import Tracer

    workload = workloads.WORKLOADS[state["workload"]]
    seed, work = state["seed"], state["work"]
    tracer = None
    if state["trace"]:
        tracer = Tracer(os.path.join(work, "spool-setup"))
        layers.install(tracer)
    root, setup_s = cold_setup(workload, seed, work, keep=True)
    setup_layers = {}
    if tracer is not None:
        tracer.uninstall()
        spans, counters = tracer.collect()
        metrics = layers.layer_metrics(spans, counters, os.getpid(), 0.0)
        setup_layers = {key: metrics[key] for key in
                        ("frameworks.save_s", "frameworks.saves")}
    reference = None
    if workload.reference:
        reference = workloads.reference_digests(
            workloads.plan(workload, seed, root))
    golden = None
    if workload.kind in workloads.GOLDEN:
        golden_root = workloads.fresh_dir(os.path.join(work, "golden"))
        golden = workloads.golden_check(
            workloads.GOLDEN[workload.kind], golden_root,
            workloads.golden_record(workload.kind))
        shutil.rmtree(golden_root)
    return {"setup_s": setup_s, "cache_root": root, "reference": reference,
            "golden": golden, "setup_layers": setup_layers}


def phase_setup(state: dict) -> dict:
    """One more cold set-up, removed again."""
    _import_program()
    from trialbench import workloads

    _, setup_s = cold_setup(workloads.WORKLOADS[state["workload"]],
                            state["seed"], state["work"], keep=False)
    return {"setup_s": setup_s}


def cold_setup(workload, seed: int, work: str,
               keep: bool) -> tuple[str, dict]:
    """Time one set-up from an empty directory; returns the directory
    (removed unless *keep*) and the set-up's wall seconds with the host
    probes taken around it."""
    from trialbench import hostspeed, workloads

    os.sync()  # earlier files' dirty pages must not flush during set-up
    root = workloads.fresh_dir(os.path.join(work, f"setup-{os.getpid()}"))
    before = hostspeed.probe()
    start = time.perf_counter()
    workloads.setup(workload, seed, root)
    setup_s = time.perf_counter() - start
    after = hostspeed.probe()
    if not keep:
        shutil.rmtree(root)
    return root, {"wall": setup_s, "probes": [before, after]}


def phase_measure(state: dict) -> dict:
    """Timed rounds for ``seconds``; with tracing, one more traced round."""
    _import_program()
    from trialbench import workloads

    workload = workloads.WORKLOADS[state["workload"]]
    seed, work = state["seed"], state["work"]
    between = None
    if state.get("pipe"):
        paused, resume = state["pipe"]

        def between():  # the parent runs a set-up, then lets us go on
            os.write(paused, b"p")
            os.read(resume, 1)

    result = measure(workload, seed, state["cache_root"], state["seconds"],
                     work, state["reference"], state["trace"], between)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = usage / 1024  # ru_maxrss is in KiB on Linux
    return result


def measure(workload, seed: int, cache_root: str | None, seconds: float,
            work: str, reference: dict | None, trace: bool,
            between=None) -> dict:
    """The timed part of a run, in this process (tests call it directly).

    ``between()`` is called after every timed round; the time it takes does
    not count toward *seconds*.
    """
    _import_program()
    from trialbench import hostspeed, layers, workloads
    from trialbench.tracing import Tracer
    from repro.experiments.runner import run_campaign

    tasks = workloads.plan(workload, seed, cache_root)
    # lazy imports, first-touch pages and BLAS start-up happen once per
    # process: pay them before the clock (forked children inherit them)
    run_campaign(tasks[:workload.batch_trials], workers=1,
                 batch_trials=workload.batch_trials)
    expected = reference
    if workload.kind == workloads.NULL_KIND:
        expected = workloads.null_digests(tasks)

    def one_round(index: int, tracer=None):
        if workload.serve:
            root = workloads.fresh_dir(os.path.join(work, f"serve-{index}"))
            done = workloads.serve_round(workload, seed, root, cache_root,
                                         tracer)
            shutil.rmtree(root)
        else:
            journal = os.path.join(work, f"journal-{index}.jsonl")
            done = workloads.campaign_round(workload, seed, tasks, journal)
            os.remove(journal)
        wrong = (workloads.mismatches(done.records, expected)
                 if expected is not None else 0)
        return done, wrong

    rounds: list[dict] = []
    durations: list[float] = []
    attempts: list[int] = []
    digests: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    probe_s = 0.0  # a share of the last round's time, once there is one
    while True:
        # every round fsyncs its journal records (serve: every store file
        # too); start it, and the probe, with no writeback pending
        os.sync()
        before = hostspeed.probe(probe_s)
        done, wrong = one_round(len(rounds))
        probe_s = PROBE_SHARE * done.wall
        after = hostspeed.probe(probe_s)
        digests = {r.trial_id: workloads.outcome_digest(r)
                   for r in done.records}
        if expected is None:
            expected = digests  # fig3-seq: every round matches the first
        rounds.append(dict(done.summary(len(tasks), wrong),
                           probes=[before, after]))
        durations += [r.duration for r in done.records]
        attempts += [r.attempts for r in done.records]
        if between is not None:
            paused = time.perf_counter()
            between()
            deadline += time.perf_counter() - paused
        if time.perf_counter() >= deadline:
            break
    out = {"rounds": rounds, "plan_digest": workloads.plan_digest(digests)}
    if not trace:
        return out

    tracer = Tracer(os.path.join(work, "spool"))
    layers.install(tracer)
    os.sync()
    try:
        with tracer.span("runner.campaign"):
            done, wrong = one_round(len(rounds), tracer)
    finally:
        tracer.uninstall()
    spans, counters = tracer.collect()
    out["traced_round"] = done.summary(len(tasks), wrong)
    metrics = layers.layer_metrics(spans, counters, os.getpid(), done.wall)
    metrics["telemetry.bytes"] = done.telemetry_bytes
    metrics.update(layers.trial_metrics(durations, attempts))
    metrics.update(layers.kernel_metrics(workloads.model_specs(tasks),
                                         workload.batch_trials))
    cpus = os.cpu_count() or 1
    metrics["proc.cpu_util"] = statistics.median(
        r["cpu"] / (r["wall"] * cpus) for r in rounds)
    untraced = statistics.median(r["ok"] / r["wall"] for r in rounds)
    traced = done.ok / done.wall
    metrics["trace.untraced_tps"] = untraced
    metrics["trace.traced_tps"] = traced
    metrics["trace.overhead_frac"] = untraced / traced - 1
    out["layers"] = metrics
    return out


# -- the parent -------------------------------------------------------------

def run_phase(phase: str, state: dict, deadline: float, tag: str = "",
              between=None) -> dict:
    """Run one phase in a child interpreter and return its JSON output.

    With *between*, the child stops after each timed round by writing a
    byte to a pipe; this process then calls ``between()`` and lets it go
    on.
    """
    work = state["work"]
    state_path = os.path.join(work, f"{phase}{tag}-in.json")
    out_path = os.path.join(work, f"{phase}{tag}-out.json")
    fds: tuple[int, ...] = ()
    if between is not None:
        paused_r, paused_w = os.pipe()
        resume_r, resume_w = os.pipe()
        fds = (paused_w, resume_r)
        state = dict(state, pipe=fds)
    with open(state_path, "w", encoding="utf-8") as handle:
        json.dump(state, handle)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp,
               REPRO_CACHE_DIR=os.path.join(work, "default-cache"))
    # its own session, so that no pool child or serve worker it forked can
    # outlive it, also when it is cut off by the deadline
    with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--phase", phase,
             "--state", state_path, "--out", out_path],
            env=env, stdout=sys.stderr, start_new_session=True,
            pass_fds=fds) as child:
        try:
            if between is not None:
                for fd in fds:
                    os.close(fd)
                with os.fdopen(paused_r, "rb", 0) as paused, \
                        os.fdopen(resume_w, "wb", 0) as resume:
                    while True:
                        left = deadline - time.monotonic()
                        if not select.select([paused], [], [],
                                             max(0.0, left))[0]:
                            raise subprocess.TimeoutExpired(child.args, left)
                        if not paused.read(1):
                            break  # the child has closed its end: done
                        between()
                        resume.write(b"g")
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def declared_units() -> dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def run_slowdown(setups: list[dict],
                 rounds: list[dict]) -> tuple[float, float]:
    """The host's (wall, CPU) slowdown over a run, from every probe taken
    around its set-ups and rounds (see ``hostspeed``)."""
    from trialbench import hostspeed

    return hostspeed.slowdown([hostspeed.Probe(*probe)
                               for item in setups + rounds
                               for probe in item["probes"]])


def timings(setups: list[dict], rounds: list[dict],
            reference: bool) -> dict[str, float]:
    """The timed metrics, medians over the rounds and set-ups of a run: in
    reference seconds (divided by the run's slowdown) or, without
    *reference*, as the clock read."""
    wall, cpu = run_slowdown(setups, rounds) if reference else (1.0, 1.0)
    return {
        "trials_per_s": statistics.median(
            r["ok"] / r["wall"] for r in rounds) * wall,
        "cpu_s_per_trial": statistics.median(
            r["cpu"] / r["trials"] for r in rounds) / cpu,
        "setup_s": statistics.median(s["wall"] for s in setups) / wall,
    }


def summarize(prepared: dict, measured: dict, trace: bool) -> dict:
    """The result object: correctness counts plus this mode's metrics."""
    from trialbench import stats

    rounds = list(measured["rounds"])
    if "traced_round" in measured:
        rounds.append(measured["traced_round"])
    if prepared.get("golden"):
        rounds.append(prepared["golden"])
    attempted = sum(r["trials"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wrong = sum(r["mismatches"] for r in rounds)
    failed_frac = stats.failed_frac(attempted, failed, wrong)
    if trace:
        metrics = dict(measured["layers"])
        metrics.update(prepared["setup_layers"])
    else:
        metrics = dict(timings(prepared["setup_s"], measured["rounds"],
                               reference=True),
                       peak_rss_mb=measured["peak_rss_mb"],
                       ok_frac=1.0 - failed_frac)
    units = declared_units()
    return {
        "correct": failed + wrong == 0,
        "attempted": attempted,
        "failed": min(attempted, failed + wrong),
        "metrics": {name: {"value": value,
                           "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="run the golden checks and record their "
                             "outcome digests for this machine's numeric "
                             "key in trialbench/golden.json")
    parser.add_argument("--phase", choices=("prepare", "setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase is not None:
        with open(args.state, encoding="utf-8") as handle:
            state = json.load(handle)
        phase = {"prepare": phase_prepare, "setup": phase_setup,
                 "measure": phase_measure}[args.phase]
        result = phase(state)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0

    if args.workload is None and not args.record_golden:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(ROOT, ".trialbench", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.record_golden:
        os.environ.update(TMPDIR=work, REPRO_CACHE_DIR=os.path.join(
            work, "default-cache"))
        _import_program()
        from trialbench import workloads
        try:
            key = workloads.record_golden(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded golden digests for: {key}")
        return 0

    state = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": bool(args.trace),
             "work": work}
    try:
        prepared = run_phase("prepare", state, deadline)
        setups = [prepared["setup_s"]]

        def setup_between():
            if len(setups) < SETUP_REPEATS:
                setups.append(run_phase("setup", state, deadline,
                                        tag=str(len(setups)))["setup_s"])

        measured = run_phase("measure", {
            **state, "cache_root": prepared["cache_root"],
            "reference": prepared["reference"]}, deadline,
            between=None if args.trace else setup_between)
        while not args.trace and len(setups) < SETUP_REPEATS:
            setup_between()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark phase failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # this run's deletions must not slow the next one

    _import_program()
    from trialbench.env import environment
    prepared["setup_s"] = setups
    result = summarize(prepared, measured, bool(args.trace))
    failed_frac = result["failed"] / result["attempted"]
    print(f"workload {args.workload}: {len(measured['rounds'])} timed "
          f"round(s) of {measured['rounds'][0]['trials']} trials, "
          f"plan digest {measured['plan_digest']}")
    golden = prepared["golden"]
    if golden is not None:
        print(f"golden check: {golden['trials']} trials, "
              f"{golden['failed'] + golden['mismatches']} wrong; outcome "
              "digests " + ("checked" if golden["digests_checked"] else
                            "not recorded for this numeric key, not "
                            "checked"))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_frac':32s} {failed_frac:14.6g} frac")
    units = declared_units()
    clock = timings(setups, measured["rounds"], reference=False)
    for name, value in sorted(clock.items()):
        print(f"  {name + ' (clock)':32s} {value:14.6g} {units[name]}")
    print(f"  {'host slowdown (wall, CPU)':32s} " + " ".join(
        f"{x:14.6g}" for x in run_slowdown(setups, measured["rounds"])))
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
