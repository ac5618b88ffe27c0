"""Table V — Model sensitivity to 1 bit-flip (RWC).

One bit-flip (exponent MSB excluded, per §V-C) is injected into the
epoch-20 checkpoint; training resumes and its test-accuracy trajectory is
compared against the error-free restart.  RWC counts the trainings whose
trajectory is *exactly* unchanged — possible only because training is
deterministic.  Paper shape: a large majority of trainings restart with no
change.

The harness runs on the campaign engine (:mod:`repro.experiments.runner`):
each (framework, model, trial) triple is an independent journaled trial, so
the grid fans out over ``--workers`` processes and a killed run resumes
from its journal.  ``workers=1`` preserves the original sequential path;
trial outcomes are a pure function of the trial payload, so both paths are
bit-identical.
"""

from __future__ import annotations

import tempfile

from .. import telemetry
from ..analysis import count_rwc, group_records, render_table
from ..health import classify_curve
from ..injector import CheckpointCorrupter, InjectorConfig
from .common import (
    DEFAULT_CACHE,
    ExperimentResult,
    SessionSpec,
    corrupted_copy,
    get_scale,
    resume_training,
    resume_training_batched,
    spec_from_payload,
    spec_group_key,
    spec_to_payload,
    structural_findings_count,
    weights_root,
)
from .runner import TrialTask, batch_trial_kind, trial_kind

# submodule import (not the package) so registration works while
# repro.serve's own __init__ is still executing
from ..serve.spec import CampaignSpec, coerce_spec, plan_builder, run_spec

EXPERIMENT_ID = "table5"
TITLE = "Table V: Model sensitivity to 1 bit-flip (RWC)"

DEFAULT_FRAMEWORKS = ("chainer_like", "torch_like", "tf_like")
DEFAULT_MODELS = ("resnet50", "vgg16", "alexnet")

#: §V-C: "we omit the most significant bit of the exponent" — MSB-order bit 1.
SAFE_FIRST_BIT = 2


def _inject(payload: dict, workdir: str, tag: str) -> tuple[str, int | None]:
    """Flip one safe-range bit in a private checkpoint copy; returns the
    path and the structural-findings count (``None`` unless validated)."""
    spec = spec_from_payload(payload["spec"])
    path = corrupted_copy(payload["checkpoint"], workdir, tag)
    config = InjectorConfig(
        hdf5_file=path,
        injection_attempts=1,
        corruption_mode="bit_range",
        first_bit=SAFE_FIRST_BIT,
        float_precision=32,
        locations_to_corrupt=[weights_root(spec.framework)],
        use_random_locations=False,
        seed=payload["injection_seed"],
    )
    corrupter = CheckpointCorrupter(
        config, engine=payload.get("engine", "vectorized"))
    # stamp the flip provenance events with the trial identity: batched
    # chunks interleave many trials' events in one process stream
    with telemetry.tag_scope(trial_id=payload.get("trial_id")):
        corrupter.corrupt()
    findings = (structural_findings_count(path)
                if payload.get("validate_checkpoints") else None)
    return path, findings


def _trial_result(payload: dict, outcome, findings: int | None) -> dict:
    """The journal outcome for one trial's :class:`ResumeOutcome`."""
    finite = [a for a in outcome.accuracy_curve if a is not None]
    # tolerance 0: Table V's RWC is *exact* equality with the error-free
    # restart, so any finite drop counts as degraded
    verdict = classify_curve(outcome.accuracy_curve,
                             payload.get("baseline_restart"),
                             collapsed=outcome.collapsed, tolerance=0.0)
    result = {"finals": finite[-1:], "outcome_class": verdict.outcome}
    if findings is not None:
        result["structural_findings"] = findings
    return result


@trial_kind("table5")
def run_trial(payload: dict) -> dict:
    """One single-bit-flip trial: corrupt a private checkpoint copy, resume
    one epoch, report the restart accuracy.

    Interpretation of "Restarted With no Change in accuracy": the accuracy
    observed at the restart — i.e. after the first post-restart epoch —
    equals the error-free run's, exactly (deterministic training makes
    exact equality the expected outcome for absorbed flips).  Comparing
    after the *full* remaining schedule instead would conflate absorption
    with the chaotic amplification of training dynamics, which at reduced
    scale (1 %-granularity test accuracy) drives RWC toward zero for
    reasons unrelated to the flip's severity.
    """
    spec = spec_from_payload(payload["spec"])
    with tempfile.TemporaryDirectory() as workdir:
        path, findings = _inject(payload, workdir, "t5")
        outcome = resume_training(
            spec, path, epochs=1,
            health_probe=payload.get("health_probe", False),
            trial_id=payload.get("trial_id"))
    return _trial_result(payload, outcome, findings)


@batch_trial_kind("table5", group_key=spec_group_key)
def run_trial_batch(payloads: list[dict]) -> list[dict]:
    """One chunk of same-cell single-flip trials, resumed for their one
    restart epoch in a shared stacked pass — bit-identical per trial to
    :func:`run_trial`."""
    spec = spec_from_payload(payloads[0]["spec"])
    with tempfile.TemporaryDirectory() as workdir:
        injected = [_inject(payload, workdir, f"t5-{index}")
                    for index, payload in enumerate(payloads)]
        outcomes = resume_training_batched(
            spec, [path for path, _ in injected], epochs=1,
            health_probe=any(p.get("health_probe") for p in payloads),
            trial_ids=[p.get("trial_id") for p in payloads])
    return [_trial_result(payload, outcome, findings)
            for payload, outcome, (_, findings)
            in zip(payloads, outcomes, injected)]


def build_tasks(scale, seed, frameworks, models, cache,
                engine: str = "vectorized", health_probe: bool = False,
                validate_checkpoints: bool = False) -> \
        tuple[list[TrialTask], dict[tuple[str, str], object]]:
    """The campaign's trial list plus the per-cell baselines it references.

    Baselines are materialized up front (cached, so usually a no-op); the
    trial payloads then only carry paths and seeds, keeping workers from
    redundantly training the same baseline.
    """
    tasks: list[TrialTask] = []
    baselines: dict[tuple[str, str], object] = {}
    for model in models:
        for framework in frameworks:
            spec = SessionSpec(framework, model, scale, seed=seed)
            baseline = cache.get(spec)
            baselines[(model, framework)] = baseline
            for trial in range(scale.trainings):
                tasks.append(TrialTask(
                    trial_id=(f"table5/{scale.name}/{framework}/{model}/"
                              f"{seed}/{trial}"),
                    kind="table5",
                    payload={
                        "spec": spec_to_payload(spec),
                        "framework": framework,
                        "model": model,
                        "trial": trial,
                        "checkpoint": baseline.checkpoint_path,
                        "baseline_restart": baseline.resumed_curve[:1],
                        "injection_seed": seed * 5_000 + trial,
                        "engine": engine,
                        "health_probe": health_probe,
                        "validate_checkpoints": validate_checkpoints,
                    },
                ))
    return tasks, baselines


def make_spec(scale="tiny", seed: int = 42, frameworks=DEFAULT_FRAMEWORKS,
              models=DEFAULT_MODELS, **overrides) -> CampaignSpec:
    """The canonical :class:`CampaignSpec` for a Table V campaign."""
    return CampaignSpec(
        kind=EXPERIMENT_ID, scale=get_scale(scale).name, seed=seed,
        params={"frameworks": list(frameworks), "models": list(models)},
        **overrides)


def _grid(spec: CampaignSpec):
    """Decode the spec's parameter grid (defaults filled in)."""
    scale = get_scale(spec.scale)
    frameworks = tuple(spec.params.get("frameworks", DEFAULT_FRAMEWORKS))
    models = tuple(spec.params.get("models", DEFAULT_MODELS))
    return scale, frameworks, models


@plan_builder(EXPERIMENT_ID)
def build_plan(spec: CampaignSpec, cache) -> list[TrialTask]:
    """The registered spec -> trial-plan builder (pure in (spec, cache))."""
    scale, frameworks, models = _grid(spec)
    tasks, _ = build_tasks(scale, spec.seed, frameworks, models, cache,
                           engine=spec.engine,
                           health_probe=spec.health_probe,
                           validate_checkpoints=spec.validate_checkpoints)
    return tasks


def run(scale="tiny", seed: int = 42,
        frameworks=DEFAULT_FRAMEWORKS, models=DEFAULT_MODELS,
        cache=None, workers: int = 1, journal=None, resume: bool = False,
        trial_timeout: float | None = None,
        retries: int = 1, engine: str = "vectorized",
        health_probe: bool = False,
        validate_checkpoints: bool = False,
        batch_trials: int = 1, spec=None) -> ExperimentResult:
    """Regenerate Table V (RWC under one bit-flip) over the grid.

    Pass ``spec`` (a :class:`CampaignSpec`; ad-hoc dicts are deprecated)
    to pin the whole campaign in one object — the legacy keyword grid is
    folded into an equivalent spec otherwise, so both invocation styles
    build byte-identical trial plans.
    """
    if spec is None:
        spec = make_spec(scale=scale, seed=seed, frameworks=frameworks,
                         models=models, engine=engine,
                         health_probe=health_probe,
                         validate_checkpoints=validate_checkpoints,
                         retries=retries, trial_timeout=trial_timeout,
                         batch_trials=batch_trials)
    else:
        spec = coerce_spec(spec)
    cache = cache or DEFAULT_CACHE
    scale, frameworks, models = _grid(spec)
    trainings = scale.trainings
    campaign = run_spec(spec, cache=cache, workers=workers, journal=journal,
                        resume=resume)
    by_cell = group_records(campaign.record_dicts(), ("model", "framework"))

    headers = ["Model", "Trainings"]
    for framework in frameworks:
        headers.extend([f"{framework} RWC", "%"])

    rows = []
    for model in models:
        row: list[object] = [model, trainings]
        for framework in frameworks:
            baseline = cache.get(SessionSpec(framework, model, scale,
                                             seed=spec.seed))
            reference = baseline.resumed_curve[:1]
            curves = [record["outcome"]["finals"]
                      for record in by_cell.get((model, framework), ())
                      if record["status"] == "ok"]
            stats = count_rwc(reference, curves)
            row.append(stats.unchanged)
            row.append(round(100.0 * stats.unchanged / trainings, 1)
                       if trainings else float("nan"))
        rows.append(row)

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers, rows=rows,
        rendered=render_table(headers, rows, title=TITLE),
        extra={"scale": scale.name,
               "campaign": campaign.stats.as_dict(),
               "spec": spec.to_dict()},
    )
