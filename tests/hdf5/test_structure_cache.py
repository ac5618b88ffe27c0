"""Tests of the per-process parsed-structure cache behind ``hdf5.File``.

A fault campaign copies one baseline checkpoint N times and flips bits in
dataset payloads only.  The parser reads no payload byte, so every copy
parses to the baseline's tree; ``File`` reuses a cached tree exactly when a
file has the cached size and the cached non-payload bytes.  These tests pin
the invariant itself, the hit and miss rules, and the cache's bound.
"""

import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import hdf5, telemetry
from repro.hdf5 import file as file_mod
from repro.hdf5.reader import iter_datasets, parse_file


def write_checkpoint(path, scale=1.0):
    """A checkpoint-like file: nested groups, attributes, a scalar, and
    contiguous, chunked and compressed datasets."""
    with hdf5.File(path, "w") as f:
        f.attrs["epoch"] = 3
        f.attrs["framework"] = "torch_like"
        conv = f.create_group("layers/conv1")
        conv.attrs["kind"] = "Conv2D"
        conv.create_dataset(
            "W", data=scale * np.arange(24, dtype=np.float32).reshape(2, 12))
        conv.create_dataset("b", data=np.full(2, scale, dtype=np.float64))
        dense = f.create_group("layers/dense")
        dense.create_dataset(
            "W", data=scale * np.arange(40, dtype=np.float32).reshape(8, 5),
            chunks=(4, 5))
        dense.create_dataset(
            "b", data=np.linspace(0, scale, 16, dtype=np.float32),
            chunks=(8,), compression="gzip")
        opt = f.create_group("optimizer_state")
        opt.create_dataset("step", data=np.int64(7))
        opt["step"].attrs["units"] = np.arange(3, dtype=np.int32)
    return path


def payload_ranges(info, compressed=True):
    """Every dataset's payload byte range, from the parsed tree (without
    the compressed chunks' unless *compressed*)."""
    ranges = []
    for dataset in iter_datasets(info):
        if dataset.compressed and not compressed:
            continue
        if dataset.is_chunked:
            ranges += [(r.address, r.address + r.stored_size)
                       for r in dataset.chunk_records]
        else:
            ranges.append((dataset.data_offset,
                           dataset.data_offset + dataset.data_size))
    return ranges


def non_payload_offsets(raw):
    keep = np.ones(len(raw), dtype=bool)
    for start, end in payload_ranges(parse_file(raw)):
        keep[start:end] = False
    return np.flatnonzero(keep)


def signature(info):
    """A comparable rendering of a parsed tree (attribute values as bytes)."""
    def attrs(store):
        return sorted((name, a.value.dtype.str, a.value.shape,
                       a.value.tobytes()) for name, a in store.items())

    out = []

    def walk(group):
        out.append(("group", group.path, attrs(group.attrs)))
        for name in sorted(group.datasets):
            d = group.datasets[name]
            out.append(("dataset", d.path, d.dtype.str, d.shape,
                        d.data_offset, d.data_size, d.chunk_shape,
                        [(r.offsets, r.stored_size, r.filter_mask, r.address)
                         for r in d.chunk_records],
                        d.compressed, attrs(d.attrs)))
        for name in sorted(group.groups):
            walk(group.groups[name])

    walk(info)
    return out


@pytest.fixture(autouse=True)
def empty_cache(monkeypatch):
    monkeypatch.setattr(file_mod, "_STRUCTURES", [])


@pytest.fixture()
def opens():
    """The ``structure_reused`` flag of every read-mode ``hdf5.open``."""
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    try:
        yield lambda: [span["attrs"]["structure_reused"]
                       for span in sink.spans("hdf5.open")
                       if span["attrs"]["mode"] != "w"]
    finally:
        telemetry.shutdown()


@pytest.fixture()
def baseline(tmp_path):
    return write_checkpoint(str(tmp_path / "baseline.h5"))


def flipped_copy(baseline, path, seed=0, compressed=True):
    """A byte copy of *baseline* with every payload byte randomized (but
    the compressed chunks', unless *compressed*: random bytes do not
    inflate)."""
    raw = bytearray(Path(baseline).read_bytes())
    rng = np.random.default_rng(seed)
    for start, end in payload_ranges(parse_file(bytes(raw)), compressed):
        raw[start:end] = rng.integers(0, 256, end - start,
                                      dtype=np.uint8).tobytes()
    Path(path).write_bytes(raw)
    return path


class TestInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_payload_bytes_leave_the_tree_equal(self, baseline,
                                                       tmp_path, seed):
        copy = flipped_copy(baseline, str(tmp_path / "copy.h5"), seed)
        original = Path(baseline).read_bytes()
        randomized = Path(copy).read_bytes()
        assert original != randomized
        assert signature(parse_file(randomized)) == \
            signature(parse_file(original))


class TestHits:
    def test_copy_reads_its_own_contents(self, baseline, tmp_path, opens):
        copy = str(tmp_path / "copy.h5")
        shutil.copy(baseline, copy)
        with hdf5.File(baseline, "r"):
            pass
        with hdf5.File(copy, "r+") as f:
            f["layers/conv1/W"].write_flat(5, np.float32(-777.0))
        with hdf5.File(copy, "r") as f:
            got = f["layers/conv1/W"][...]
        expected = np.arange(24, dtype=np.float32).reshape(2, 12)
        expected[0, 5] = -777.0
        np.testing.assert_array_equal(got, expected)
        with hdf5.File(baseline, "r") as f:
            assert float(f["layers/conv1/W"].read_flat(5)) == 5.0
        assert opens() == [False, True, True, True]

    def test_copy_shares_the_parsed_tree(self, baseline, tmp_path):
        copy = flipped_copy(baseline, str(tmp_path / "copy.h5"),
                            compressed=False)
        with hdf5.File(baseline, "r") as f:
            parsed = f._info
        with hdf5.File(copy, "r") as f:
            assert f._info is parsed
            assert f.attrs["epoch"] == 3
            assert f["optimizer_state/step"].attrs["units"].tolist() == \
                [0, 1, 2]
        with hdf5.File(copy, "r+") as f:
            assert f._info is parsed

    def test_randomized_copy_is_a_hit_and_reads_its_own_contents(
            self, baseline, tmp_path, opens):
        self.check_randomized_copy(baseline, tmp_path, opens, "r")

    def test_randomized_copy_opened_rplus_is_a_hit(self, baseline, tmp_path,
                                                   opens):
        self.check_randomized_copy(baseline, tmp_path, opens, "r+")

    @staticmethod
    def check_randomized_copy(baseline, tmp_path, opens, mode):
        copy = flipped_copy(baseline, str(tmp_path / "copy.h5"), seed=3,
                            compressed=False)
        with hdf5.File(baseline, "r"):
            pass
        file_mod._STRUCTURES.clear()
        with hdf5.File(copy, "r") as plain:  # a fresh parse of the copy
            expected = {d.name: d[...] for d in plain.datasets()}
        with hdf5.File(baseline, "r"):
            pass  # the baseline is now the most recent entry ...
        with hdf5.File(copy, mode) as f:  # ... and serves the copy
            got = {d.name: f[d.name][...] for d in f.datasets()}
        assert opens() == [False, False, True, True]
        assert list(got) == list(expected)
        for name, value in expected.items():
            assert np.asarray(got[name]).tobytes() == \
                np.asarray(value).tobytes(), name

    def test_lookups_resolve_through_the_index(self, baseline):
        with hdf5.File(baseline, "r") as f:
            conv = f["layers/conv1"]
            assert isinstance(conv, hdf5.Group) and conv.name == "/layers/conv1"
            assert conv["W"].name == "/layers/conv1/W"
            assert conv["/layers/dense/b"].name == "/layers/dense/b"
            assert f["/optimizer_state/step"][...] == 7
            assert f[""] is f
            for missing in ("nope", "layers/conv1/W/x", "layers/conv9"):
                with pytest.raises(KeyError):
                    f[missing]
                assert missing not in f

    def test_parsed_attributes_are_read_only(self, baseline):
        with hdf5.File(baseline, "r") as f:
            units = f["optimizer_state/step"].attrs["units"]
        with pytest.raises(ValueError):
            units[0] = 99


class TestMisses:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(pick=st.integers(min_value=0), xor=st.integers(1, 255))
    def test_any_non_payload_byte_flip_is_a_miss(self, baseline, pick, xor):
        raw = Path(baseline).read_bytes()
        offsets = non_payload_offsets(raw)
        offset = int(offsets[pick % offsets.size])
        flipped = bytearray(raw)
        flipped[offset] ^= xor
        flipped = bytes(flipped)
        file_mod._STRUCTURES.clear()
        file_mod._structure_of(raw)
        try:
            fresh = signature(parse_file(flipped))
        except Exception as exc:  # the flip broke the metadata
            with pytest.raises(type(exc)):
                file_mod._structure_of(flipped)
            return
        entry, reused = file_mod._structure_of(flipped)
        assert not reused
        assert signature(entry.info) == fresh

    def test_different_size_is_a_miss(self, baseline, tmp_path, opens):
        other = str(tmp_path / "other.h5")
        with hdf5.File(other, "w") as f:
            f.attrs["epoch"] = 9
            f.create_dataset("different", data=np.ones(3, dtype=np.float64))
        with hdf5.File(baseline, "r"):
            pass
        with hdf5.File(other, "r") as f:
            assert f.attrs["epoch"] == 9
            np.testing.assert_array_equal(f["different"][...], np.ones(3))
        assert opens() == [False, False]

    def test_same_size_different_structure_reads_correctly(self, tmp_path,
                                                           opens):
        # the retired size-only guard handed the second file the first
        # file's tree: transposed shape, wrong name
        first = str(tmp_path / "first.h5")
        second = str(tmp_path / "second.h5")
        with hdf5.File(first, "w") as f:
            f.create_dataset("wide", data=np.arange(12, dtype=np.float32)
                             .reshape(3, 4))
        with hdf5.File(second, "w") as f:
            f.create_dataset("tall", data=np.arange(12, dtype=np.float32)
                             .reshape(4, 3))
        assert Path(first).read_bytes() != Path(second).read_bytes()
        assert len(Path(first).read_bytes()) == len(Path(second).read_bytes())
        with hdf5.File(first, "r") as f:
            assert list(f.keys()) == ["wide"]
        with hdf5.File(second, "r") as f:
            assert list(f.keys()) == ["tall"]
            assert f["tall"].shape == (4, 3)
            np.testing.assert_array_equal(
                f["tall"][...], np.arange(12).reshape(4, 3))
        assert opens() == [False, False]

    def test_write_mode_neither_reads_nor_fills_the_cache(self, tmp_path,
                                                          opens):
        write_checkpoint(str(tmp_path / "fresh.h5"))
        assert file_mod._STRUCTURES == []
        assert opens() == []


class TestBound:
    def test_cache_stays_at_its_bound_most_recent_first(self, tmp_path,
                                                        opens):
        bound = file_mod.STRUCTURE_CACHE_SIZE
        paths = []
        for index in range(bound + 3):
            path = str(tmp_path / f"f{index}.h5")
            with hdf5.File(path, "w") as f:
                f.create_dataset(f"d{index}", data=np.zeros(index + 1))
            paths.append(path)
            with hdf5.File(path, "r"):
                pass
            assert len(file_mod._STRUCTURES) == min(index + 1, bound)
        newest = [entry.info.datasets for entry in file_mod._STRUCTURES]
        assert [list(names) for names in newest] == \
            [[f"d{index}"] for index in reversed(range(3, bound + 3))]
        with hdf5.File(paths[-1], "r"), hdf5.File(paths[0], "r"):
            pass  # the newest is still cached; the oldest was evicted
        assert opens()[-2:] == [True, False]
        assert len(file_mod._STRUCTURES) == bound

    def test_threads_sharing_the_cache_read_their_own_files(self, tmp_path):
        # more structures than the bound, more threads than cores: the
        # cache may race to a duplicate entry or an extra parse, but never
        # to a wrong tree
        paths = []
        for index in range(file_mod.STRUCTURE_CACHE_SIZE + 2):
            path = str(tmp_path / f"f{index}.h5")
            with hdf5.File(path, "w") as f:
                f.create_dataset(f"d{index}",
                                 data=np.full(index + 1, index, np.int32))
            paths.append(path)
        errors = []

        def reader(offset):
            try:
                for step in range(40):
                    index = (offset + step) % len(paths)
                    with hdf5.File(paths[index], "r") as f:
                        assert f[f"d{index}"][...].tolist() == \
                            [index] * (index + 1)
            except Exception as exc:  # collected for the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(file_mod._STRUCTURES) <= file_mod.STRUCTURE_CACHE_SIZE
