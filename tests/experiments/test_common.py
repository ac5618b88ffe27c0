"""Tests for the shared experiment infrastructure."""

import os

import numpy as np
import pytest

from repro import hdf5
from repro.data import synthetic_cifar10
from repro.experiments import common
from repro.experiments.common import (
    BaselineCache,
    SCALES,
    SessionSpec,
    corrupted_copy,
    get_scale,
    make_dataset,
    resume_training,
    weights_root,
)
from repro.nn.rng import seed_all


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("baselines")))


@pytest.fixture(scope="module")
def spec():
    return SessionSpec("chainer_like", "alexnet", SCALES["smoke"], seed=7)


@pytest.fixture(scope="module")
def baseline(cache, spec):
    return cache.get(spec)


class TestScales:
    def test_all_scales_present(self):
        assert set(SCALES) == {"smoke", "tiny", "small", "paper"}

    def test_paper_scale_matches_paper(self):
        paper = SCALES["paper"]
        assert paper.checkpoint_epoch == 20
        assert paper.total_epochs == 100
        assert paper.trainings == 250
        assert paper.prediction_images == 1000
        assert paper.width_mult["alexnet"] == 1.0

    def test_get_scale(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale(SCALES["tiny"]).name == "tiny"
        with pytest.raises(ValueError):
            get_scale("huge")


class TestBaselineCache:
    def test_artifacts_exist(self, baseline, spec):
        assert os.path.exists(baseline.checkpoint_path)
        assert os.path.exists(baseline.final_path)
        assert len(baseline.accuracy_curve) == spec.scale.total_epochs
        assert len(baseline.resumed_curve) == (
            spec.scale.total_epochs - spec.scale.checkpoint_epoch
        )

    def test_checkpoint_epoch_attr(self, baseline, spec):
        with hdf5.File(baseline.checkpoint_path, "r") as f:
            assert f.attrs["epoch"] == spec.scale.checkpoint_epoch
        with hdf5.File(baseline.final_path, "r") as f:
            assert f.attrs["epoch"] == spec.scale.total_epochs

    def test_cache_hit_returns_same_curve(self, cache, spec, baseline):
        again = cache.get(spec)
        assert again.accuracy_curve == baseline.accuracy_curve

    def test_different_seed_different_key(self, spec):
        other = SessionSpec("chainer_like", "alexnet", SCALES["smoke"],
                            seed=8)
        assert other.cache_key() != spec.cache_key()

    def test_policy_in_key(self, spec):
        other = SessionSpec("chainer_like", "alexnet", SCALES["smoke"],
                            seed=7, policy="float16")
        assert other.cache_key() != spec.cache_key()


class TestResume:
    def test_clean_resume_matches_baseline(self, baseline, spec):
        """Core invariant: the error-free restart replays the baseline."""
        outcome = resume_training(spec, baseline.checkpoint_path)
        assert not outcome.collapsed
        np.testing.assert_allclose(outcome.accuracy_curve,
                                   baseline.resumed_curve)

    def test_resume_partial_epochs(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1)
        assert len(outcome.accuracy_curve) == 1
        assert outcome.accuracy_curve[0] == pytest.approx(
            baseline.resumed_curve[0]
        )

    def test_keep_model(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1,
                                  keep_model=True)
        assert outcome.model is not None
        assert outcome.model.name == "alexnet"

    def test_corrupted_copy_is_independent(self, baseline, tmp_path):
        copy_path = corrupted_copy(baseline.checkpoint_path, str(tmp_path),
                                   "trial")
        with hdf5.File(copy_path, "r+") as f:
            f.datasets()[0].write_flat(0, 999.0)
        with hdf5.File(baseline.checkpoint_path, "r") as f:
            assert f.datasets()[0].read_flat(0) != 999.0


class TestMakeDataset:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(common, "_DATASETS", {})

    def test_repeat_call_returns_equal_read_only_arrays(self, spec):
        seed_all(spec.seed)
        train, test = make_dataset(spec)
        again_train, again_test = make_dataset(spec)
        fresh_train, fresh_test = synthetic_cifar10(
            spec.scale.train_size, spec.scale.test_size,
            spec.scale.model_image_size(spec.model))
        for split, again, fresh in ((train, again_train, fresh_train),
                                    (test, again_test, fresh_test)):
            for name in ("images", "labels"):
                array = getattr(split, name)
                assert getattr(again, name) is array  # built once
                assert array.tobytes() == getattr(fresh, name).tobytes()
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_another_seed_gives_different_data(self, spec):
        seed_all(spec.seed)
        first, _ = make_dataset(spec)
        seed_all(spec.seed + 1)
        second, _ = make_dataset(spec)
        assert first.images.tobytes() != second.images.tobytes()
        assert len(common._DATASETS) == 2

    def test_memo_stays_at_its_bound(self, spec):
        for offset in range(common.DATASET_MEMO_SIZE + 2):
            seed_all(spec.seed + offset)
            make_dataset(spec)
        assert len(common._DATASETS) == common.DATASET_MEMO_SIZE


def test_weights_root_known_frameworks():
    assert weights_root("chainer_like") == "predictor"
    assert weights_root("torch_like") == "state_dict"
    assert weights_root("tf_like") == "model_weights"
    with pytest.raises(KeyError):
        weights_root("unknown")


class TestFinalAccuracy:
    """Regression for the curve[-1] vs last-finite inconsistency: both the
    baseline builder and every resume path now share `last_finite`."""

    def test_baseline_final_skips_nan_tail(self, spec):
        from repro.experiments.common import Baseline, baseline_from_history

        class _Epoch:
            def __init__(self, acc):
                self.test_accuracy = acc

        class _History:
            epochs = [_Epoch(0.3), _Epoch(0.5), _Epoch(float("nan"))]

        built = baseline_from_history(spec, "ckpt.h5", "final.h5",
                                      _History())
        assert isinstance(built, Baseline)
        assert built.final_accuracy == 0.5  # not the NaN tail

    def test_resume_final_accuracy_is_last_finite(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1)
        assert outcome.final_accuracy == outcome.accuracy_curve[-1]


class TestResumeHealthProbe:
    def test_probe_disabled_by_default(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1)
        assert outcome.health == []

    def test_probe_snapshots_restart_state_plus_epochs(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=2,
                                  health_probe=True)
        # epoch-0 snapshot of the (possibly corrupted) checkpoint, then one
        # per trained epoch
        assert len(outcome.health) == 3
        assert outcome.health[0].epoch == spec.scale.checkpoint_epoch
        assert all(s.summary["nan_count"] == 0 for s in outcome.health)

    def test_probe_does_not_perturb_training(self, baseline, spec):
        plain = resume_training(spec, baseline.checkpoint_path, epochs=2)
        probed = resume_training(spec, baseline.checkpoint_path, epochs=2,
                                 health_probe=True)
        assert plain.accuracy_curve == probed.accuracy_curve
