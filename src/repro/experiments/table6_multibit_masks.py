"""Table VI — Multi-bit mask injection (DRAM error patterns).

The five multi-bit masks come from Bautista-Gomez et al.'s large-scale DRAM
study ([43] in the paper).  Each mask is XORed into 10 weights of ResNet50
on all three frameworks; each configuration is trained 10 times.  Reported:
average final accuracy (AvgI-Acc, collapsed trainings excluded, as in the
paper) and the number of trainings that produced an N-EV.

Runs on the campaign engine: one journaled trial per
(framework, mask, trial), parallelizable with ``workers`` and resumable
from the journal (see :mod:`repro.experiments.runner`).
"""

from __future__ import annotations

import math
import tempfile

from .. import telemetry
from ..analysis import group_records, mean_excluding_collapsed, render_table
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

EXPERIMENT_ID = "table6"
TITLE = "Table VI: Multi-bit mask applied to DL framework training"

#: (active bit count, mask) rows exactly as in the paper.
PAPER_MASKS: tuple[tuple[int, str], ...] = (
    (3, "10001010"),
    (4, "01101010"),
    (4, "10110010"),
    (5, "11110001"),
    (6, "11101101"),
)

DEFAULT_FRAMEWORKS = ("chainer_like", "torch_like", "tf_like")
DEFAULT_MODEL = "resnet50"
WEIGHTS_PER_TRAINING = 10


def _inject(payload: dict, workdir: str, tag: str) -> tuple[str, int | None]:
    """XOR the payload's mask into 10 weights of a private checkpoint copy;
    returns the path and the structural-findings count (``None`` unless
    validated)."""
    spec = spec_from_payload(payload["spec"])
    path = corrupted_copy(payload["checkpoint"], workdir, tag)
    config = InjectorConfig(
        hdf5_file=path,
        injection_attempts=WEIGHTS_PER_TRAINING,
        corruption_mode="bit_mask",
        bit_mask=payload["mask"],
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
    verdict = classify_curve(outcome.accuracy_curve,
                             payload.get("baseline_curve"),
                             collapsed=outcome.collapsed)
    result = {"final_accuracy": outcome.final_accuracy,
              "collapsed": outcome.collapsed,
              "outcome_class": verdict.outcome}
    if findings is not None:
        result["structural_findings"] = findings
    return result


@trial_kind("table6")
def run_trial(payload: dict) -> dict:
    """One masked-injection trial: XOR the mask into 10 weights of a private
    checkpoint copy, resume the remaining schedule."""
    spec = spec_from_payload(payload["spec"])
    with tempfile.TemporaryDirectory() as workdir:
        path, findings = _inject(payload, workdir, "t6")
        outcome = resume_training(
            spec, path, epochs=spec.scale.resume_epochs,
            health_probe=payload.get("health_probe", False),
            trial_id=payload.get("trial_id"))
    return _trial_result(payload, outcome, findings)


@batch_trial_kind("table6", group_key=spec_group_key)
def run_trial_batch(payloads: list[dict]) -> list[dict]:
    """One chunk of same-spec masked-injection trials resumed in a shared
    stacked pass — bit-identical per trial to :func:`run_trial`.  Table VI
    is the collapse-heavy campaign, so chunks routinely lose trials to NaN
    mid-batch; the batched trainer prunes them without perturbing the
    survivors."""
    spec = spec_from_payload(payloads[0]["spec"])
    with tempfile.TemporaryDirectory() as workdir:
        injected = [_inject(payload, workdir, f"t6-{index}")
                    for index, payload in enumerate(payloads)]
        outcomes = resume_training_batched(
            spec, [path for path, _ in injected],
            epochs=spec.scale.resume_epochs,
            health_probe=any(p.get("health_probe") for p in payloads),
            trial_ids=[p.get("trial_id") for p in payloads])
    return [_trial_result(payload, outcome, findings)
            for payload, outcome, (_, findings)
            in zip(payloads, outcomes, injected)]


def build_tasks(scale, seed, frameworks, model, masks, trainings, cache,
                engine: str = "vectorized", health_probe: bool = False,
                validate_checkpoints: bool = False) -> \
        tuple[list[TrialTask], dict[str, tuple]]:
    tasks: list[TrialTask] = []
    baselines: dict[str, tuple] = {}
    for framework in frameworks:
        spec = SessionSpec(framework, model, scale, seed=seed)
        baselines[framework] = (spec, cache.get(spec))
    for bits, mask in masks:
        _ = bits
        for framework in frameworks:
            spec, baseline = baselines[framework]
            for trial in range(trainings):
                tasks.append(TrialTask(
                    trial_id=(f"table6/{scale.name}/{framework}/{model}/"
                              f"{seed}/{mask}/{trial}"),
                    kind="table6",
                    payload={
                        "spec": spec_to_payload(spec),
                        "framework": framework,
                        "mask": mask,
                        "trial": trial,
                        "checkpoint": baseline.checkpoint_path,
                        "baseline_curve":
                            baseline.resumed_curve[:scale.resume_epochs],
                        "health_probe": health_probe,
                        # int(mask, 2), not hash(mask): string hashing is
                        # randomized per process, which would desync seeds
                        # between a journaled campaign and its resume.
                        "injection_seed": (seed * 7_000
                                           + int(mask, 2) % 1000 + trial),
                        "engine": engine,
                        "validate_checkpoints": validate_checkpoints,
                    },
                ))
    return tasks, baselines


def make_spec(scale="tiny", seed: int = 42, frameworks=DEFAULT_FRAMEWORKS,
              model: str = DEFAULT_MODEL, masks=PAPER_MASKS,
              **overrides) -> CampaignSpec:
    """The canonical :class:`CampaignSpec` for a Table VI campaign."""
    return CampaignSpec(
        kind=EXPERIMENT_ID, scale=get_scale(scale).name, seed=seed,
        params={"frameworks": list(frameworks), "model": model,
                "masks": [[bits, mask] for bits, mask in masks]},
        **overrides)


def _grid(spec: CampaignSpec):
    """Decode the spec's parameter grid (defaults filled in)."""
    scale = get_scale(spec.scale)
    frameworks = tuple(spec.params.get("frameworks", DEFAULT_FRAMEWORKS))
    model = spec.params.get("model", DEFAULT_MODEL)
    masks = [tuple(row) for row in spec.params.get("masks", PAPER_MASKS)]
    trainings = spec.params.get("trainings", min(scale.trainings, 10))
    return scale, frameworks, model, masks, trainings


@plan_builder(EXPERIMENT_ID)
def build_plan(spec: CampaignSpec, cache) -> list[TrialTask]:
    """The registered spec -> trial-plan builder (pure in (spec, cache))."""
    scale, frameworks, model, masks, trainings = _grid(spec)
    tasks, _ = build_tasks(scale, spec.seed, frameworks, model, masks,
                           trainings, cache, engine=spec.engine,
                           health_probe=spec.health_probe,
                           validate_checkpoints=spec.validate_checkpoints)
    return tasks


def run(scale="tiny", seed: int = 42, frameworks=DEFAULT_FRAMEWORKS,
        model: str = DEFAULT_MODEL, masks=PAPER_MASKS,
        cache=None, workers: int = 1, journal=None, resume: bool = False,
        trial_timeout: float | None = None,
        retries: int = 1, engine: str = "vectorized",
        health_probe: bool = False,
        validate_checkpoints: bool = False,
        batch_trials: int = 1, spec=None) -> ExperimentResult:
    """Regenerate Table VI (multi-bit DRAM masks).

    Pass ``spec`` (a :class:`CampaignSpec`; ad-hoc dicts are deprecated)
    to pin the whole campaign in one object — the legacy keyword grid is
    folded into an equivalent spec otherwise, so both invocation styles
    build byte-identical trial plans.
    """
    if spec is None:
        spec = make_spec(scale=scale, seed=seed, frameworks=frameworks,
                         model=model, masks=masks, engine=engine,
                         health_probe=health_probe,
                         validate_checkpoints=validate_checkpoints,
                         retries=retries, trial_timeout=trial_timeout,
                         batch_trials=batch_trials)
    else:
        spec = coerce_spec(spec)
    cache = cache or DEFAULT_CACHE
    scale, frameworks, model, masks, _ = _grid(spec)
    campaign = run_spec(spec, cache=cache, workers=workers, journal=journal,
                        resume=resume)
    by_cell = group_records(campaign.record_dicts(), ("framework", "mask"))

    headers = ["Bits", "Mask"]
    for framework in frameworks:
        headers.extend([f"{framework} AvgI-Acc", "N-EV"])

    rows: list[list[object]] = []
    # row 0: error-free accuracy (the paper's all-zero mask row)
    row0: list[object] = [0, "00000000"]
    for framework in frameworks:
        reference = cache.get(SessionSpec(framework, model, scale,
                                          seed=spec.seed)).resumed_curve
        final = reference[min(scale.resume_epochs, len(reference)) - 1]
        row0.extend([round(100.0 * final, 1), ""])
    rows.append(row0)

    for bits, mask in masks:
        row: list[object] = [bits, mask]
        for framework in frameworks:
            outcomes = [record["outcome"]
                        for record in by_cell.get((framework, mask), ())
                        if record["status"] == "ok"]
            finals = [o["final_accuracy"] for o in outcomes]
            collapsed_flags = [o["collapsed"] for o in outcomes]
            avg = mean_excluding_collapsed(finals, collapsed_flags)
            row.extend([
                round(100.0 * avg, 1) if not math.isnan(avg)
                else float("nan"),
                sum(collapsed_flags),
            ])
        rows.append(row)

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers, rows=rows,
        rendered=render_table(headers, rows, title=TITLE),
        extra={"scale": scale.name, "model": model,
               "weights_per_training": WEIGHTS_PER_TRAINING,
               "campaign": campaign.stats.as_dict(),
               "spec": spec.to_dict()},
    )
