"""Figure 3 — Sensitivity to different bit-flip rates.

Three framework/model pairs resume from the epoch-20 checkpoint with 1, 10,
100, or 1000 bit-flips injected (exponent MSB excluded, so nothing
collapses); each curve averages several trainings, plotted against the
error-free 100-epoch baseline.  Paper shape: no visible degradation at any
flip rate.

Runs on the campaign engine: one journaled trial per
(pair, flip rate, training), parallelizable with ``workers`` and resumable
from the journal (see :mod:`repro.experiments.runner`).  With
``batch_trials > 1`` same-pair trials are stacked into one shared training
pass (:mod:`repro.batched`), bit-identical per trial.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np

from .. import telemetry
from ..analysis import group_records, render_curves
from ..health import classify_curve, last_finite
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
from .table5_single_bitflip import SAFE_FIRST_BIT

# submodule import (not the package) so registration works while
# repro.serve's own __init__ is still executing
from ..serve.spec import CampaignSpec, coerce_spec, plan_builder, run_spec

EXPERIMENT_ID = "fig3"
TITLE = "Fig 3: Accuracy vs epochs at different bit-flip rates"

DEFAULT_PAIRS = (
    ("chainer_like", "alexnet"),
    ("torch_like", "vgg16"),
    ("tf_like", "resnet50"),
)
DEFAULT_BITFLIPS = (1, 10, 100, 1000)


def _inject(payload: dict, workdir: str, tag: str) -> tuple[str, int | None]:
    """Corrupt a private checkpoint copy per *payload*; returns the path and
    the structural-findings count (``None`` unless the payload asked for
    post-injection validation)."""
    spec = spec_from_payload(payload["spec"])
    path = corrupted_copy(payload["checkpoint"], workdir, tag)
    config = InjectorConfig(
        hdf5_file=path,
        injection_attempts=payload["flips"],
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
    verdict = classify_curve(outcome.accuracy_curve,
                             payload.get("baseline_curve"),
                             collapsed=outcome.collapsed)
    # None (collapsed epoch) -> NaN so the curve is JSON-journal-safe
    result = {"curve": [a if a is not None else float("nan")
                        for a in outcome.accuracy_curve],
              "outcome_class": verdict.outcome}
    if findings is not None:
        result["structural_findings"] = findings
    return result


@trial_kind("fig3")
def run_trial(payload: dict) -> dict:
    """One flip-rate trial: inject ``flips`` safe-range bit-flips into a
    private checkpoint copy, resume the curve schedule."""
    spec = spec_from_payload(payload["spec"])
    with tempfile.TemporaryDirectory() as workdir:
        path, findings = _inject(payload, workdir, "fig3")
        outcome = resume_training(
            spec, path, epochs=spec.scale.resume_epochs,
            health_probe=payload.get("health_probe", False),
            trial_id=payload.get("trial_id"))
    return _trial_result(payload, outcome, findings)


@batch_trial_kind("fig3", group_key=spec_group_key)
def run_trial_batch(payloads: list[dict]) -> list[dict]:
    """One chunk of same-spec flip-rate trials: corrupt each payload's
    private copy exactly as :func:`run_trial` would, then resume all
    replicas in one stacked training pass (:mod:`repro.batched`) —
    bit-identical per trial to the sequential kind."""
    spec = spec_from_payload(payloads[0]["spec"])
    with tempfile.TemporaryDirectory() as workdir:
        injected = [_inject(payload, workdir, f"fig3-{index}")
                    for index, payload in enumerate(payloads)]
        outcomes = resume_training_batched(
            spec, [path for path, _ in injected],
            epochs=spec.scale.resume_epochs,
            health_probe=any(p.get("health_probe") for p in payloads),
            trial_ids=[p.get("trial_id") for p in payloads])
    return [_trial_result(payload, outcome, findings)
            for payload, outcome, (_, findings)
            in zip(payloads, outcomes, injected)]


def _mean_curve(curves: list[list[float]]) -> list[float]:
    width = max(len(c) for c in curves)
    padded = np.full((len(curves), width), np.nan)
    for i, curve in enumerate(curves):
        padded[i, :len(curve)] = curve
    return [float(v) for v in np.nanmean(padded, axis=0)]


def build_tasks(scale, seed, pairs, bitflips, trainings, cache,
                engine: str = "vectorized", health_probe: bool = False,
                validate_checkpoints: bool = False) -> \
        tuple[list[TrialTask], dict[tuple[str, str], tuple]]:
    tasks: list[TrialTask] = []
    baselines: dict[tuple[str, str], tuple] = {}
    for framework, model in pairs:
        spec = SessionSpec(framework, model, scale, seed=seed)
        baseline = cache.get(spec)
        baselines[(framework, model)] = (spec, baseline)
        for flips in bitflips:
            for trial in range(trainings):
                tasks.append(TrialTask(
                    trial_id=(f"fig3/{scale.name}/{framework}/{model}/"
                              f"{seed}/{flips}/{trial}"),
                    kind="fig3",
                    payload={
                        "spec": spec_to_payload(spec),
                        "framework": framework,
                        "model": model,
                        "flips": flips,
                        "trial": trial,
                        "checkpoint": baseline.checkpoint_path,
                        "baseline_curve":
                            baseline.resumed_curve[:scale.resume_epochs],
                        "injection_seed": seed * 3_000 + flips * 17 + trial,
                        "engine": engine,
                        "health_probe": health_probe,
                        "validate_checkpoints": validate_checkpoints,
                    },
                ))
    return tasks, baselines


def make_spec(scale="tiny", seed: int = 42, pairs=DEFAULT_PAIRS,
              bitflips=DEFAULT_BITFLIPS, **overrides) -> CampaignSpec:
    """The canonical :class:`CampaignSpec` for a Fig 3 campaign.

    *overrides* go straight into the spec constructor (``engine``,
    ``batch_trials``, ``priority``, ...), so CLI flags map one-to-one.
    """
    return CampaignSpec(
        kind=EXPERIMENT_ID, scale=get_scale(scale).name, seed=seed,
        params={"pairs": [list(pair) for pair in pairs],
                "bitflips": list(bitflips)},
        **overrides)


def _grid(spec: CampaignSpec):
    """Decode the spec's parameter grid (defaults filled in)."""
    scale = get_scale(spec.scale)
    pairs = [tuple(pair) for pair in spec.params.get("pairs", DEFAULT_PAIRS)]
    bitflips = tuple(spec.params.get("bitflips", DEFAULT_BITFLIPS))
    trainings = spec.params.get("trainings", scale.curve_trainings)
    return scale, pairs, bitflips, trainings


@plan_builder(EXPERIMENT_ID)
def build_plan(spec: CampaignSpec, cache) -> list[TrialTask]:
    """The registered spec -> trial-plan builder (pure in (spec, cache))."""
    scale, pairs, bitflips, trainings = _grid(spec)
    tasks, _ = build_tasks(scale, spec.seed, pairs, bitflips, trainings,
                           cache, engine=spec.engine,
                           health_probe=spec.health_probe,
                           validate_checkpoints=spec.validate_checkpoints)
    return tasks


def run(scale="tiny", seed: int = 42, pairs=DEFAULT_PAIRS,
        bitflips=DEFAULT_BITFLIPS, cache=None, workers: int = 1,
        journal=None, resume: bool = False,
        trial_timeout: float | None = None,
        retries: int = 1, engine: str = "vectorized",
        health_probe: bool = False,
        validate_checkpoints: bool = False,
        batch_trials: int = 1, spec=None) -> ExperimentResult:
    """Regenerate Fig 3 (accuracy curves per flip rate).

    Pass ``spec`` (a :class:`CampaignSpec`; ad-hoc dicts are deprecated)
    to pin the whole campaign in one object — the legacy keyword grid is
    folded into an equivalent spec otherwise, so both invocation styles
    build byte-identical trial plans.
    """
    if spec is None:
        spec = make_spec(scale=scale, seed=seed, pairs=pairs,
                         bitflips=bitflips, engine=engine,
                         health_probe=health_probe,
                         validate_checkpoints=validate_checkpoints,
                         retries=retries, trial_timeout=trial_timeout,
                         batch_trials=batch_trials)
    else:
        spec = coerce_spec(spec)
    cache = cache or DEFAULT_CACHE
    scale, pairs, bitflips, _ = _grid(spec)
    campaign = run_spec(spec, cache=cache, workers=workers, journal=journal,
                        resume=resume)
    by_cell = group_records(campaign.record_dicts(),
                            ("framework", "model", "flips"))

    panels: dict[str, dict[str, list[float]]] = {}
    rows = []
    for framework, model in pairs:
        baseline = cache.get(SessionSpec(framework, model, scale,
                                         seed=spec.seed))
        series: dict[str, list[float]] = {
            "baseline": baseline.resumed_curve[: scale.resume_epochs],
        }
        for flips in bitflips:
            curves = [record["outcome"]["curve"]
                      for record in by_cell.get((framework, model, flips),
                                                ())
                      if record["status"] == "ok"]
            series[f"{flips} flips"] = _mean_curve(curves)
        panels[f"{framework}/{model}"] = series
        for name, curve in series.items():
            final = last_finite(curve)
            rows.append([
                f"{framework}/{model}", name,
                round(final, 4) if not math.isnan(final) else float("nan"),
            ])

    rendered = "\n\n".join(
        render_curves(series, title=f"{TITLE} — {panel}")
        for panel, series in panels.items()
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        headers=["panel", "series", "final accuracy"], rows=rows,
        rendered=rendered,
        extra={"scale": scale.name, "curves": panels,
               "campaign": campaign.stats.as_dict(),
               "spec": spec.to_dict()},
    )
