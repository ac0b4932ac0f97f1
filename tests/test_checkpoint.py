"""Checkpoint format: byte-level layout, roundtrips, and model loading."""

import struct
import tracemalloc

import numpy as np
import pytest

import helpers
from tsgseg.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from tsgseg.config import resolve_config
from tsgseg.model import build_model
from tsgseg.tensor import Tensor


def sample_arrays() -> dict:
    rng = np.random.default_rng(0)
    return {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=4),
        "scalar": np.array(2.5),
    }


class TestFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        arrays = sample_arrays()
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].dtype == np.float32
            assert not loaded[name].flags.writeable
            np.testing.assert_allclose(loaded[name], arr.astype(np.float32))

    def test_storage_is_float32(self, tmp_path):
        path = tmp_path / "a.ckpt"
        value = np.array([1.0 + 1e-12])  # not representable at single precision
        save_checkpoint(path, {"x": value})
        assert float(load_checkpoint(path)["x"][0]) == 1.0

    def test_bytes_deterministic_and_name_sorted(self, tmp_path):
        arrays = sample_arrays()
        p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        save_checkpoint(p1, arrays)
        save_checkpoint(p2, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout_first_record(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, {"ab": np.array([[1.0, 2.0]])})
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        assert struct.unpack("<Q", raw[8:16]) == (2,)
        assert raw[16:18] == b"ab"
        assert struct.unpack("<Q", raw[18:26]) == (2,)  # rank
        assert struct.unpack("<2Q", raw[26:42]) == (1, 2)
        np.testing.assert_array_equal(np.frombuffer(raw[42:], dtype="<f4"),
                                      np.array([1.0, 2.0], dtype=np.float32))
        assert len(raw) == 50

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, sample_arrays())
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(raw[: len(raw) - 3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(clipped)

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}


class TestModelRoundtrip:
    def test_save_load_restores_forward(self, tmp_path):
        cfg = helpers.tiny_model_config(precision="single")
        model = build_model(cfg, seed=3, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_model(path, model)

        clone = build_model(cfg, seed=99, dtype=np.float32)
        load_model(path, clone)
        for (name, p), (name2, q) in zip(sorted(model.named_parameters()),
                                         sorted(clone.named_parameters())):
            assert name == name2
            np.testing.assert_array_equal(p.data, q.data)

        rng = np.random.default_rng(0)
        image = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        out_a = model(Tensor(image)).scores.data
        out_b = clone(Tensor(image)).scores.data
        np.testing.assert_array_equal(out_a, out_b)

    def test_double_precision_survives_at_float32(self, tmp_path):
        cfg = helpers.tiny_model_config()
        model = build_model(cfg, seed=4, dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        clone = build_model(cfg, seed=5, dtype=np.float64)
        load_model(path, clone)
        for (_, p), (_, q) in zip(sorted(model.named_parameters()),
                                  sorted(clone.named_parameters())):
            assert q.data.dtype == np.float64
            np.testing.assert_array_equal(p.data.astype(np.float32), q.data)

    def test_single_precision_load_copies_once(self, tmp_path):
        # Each value goes from the file's bytes straight into the parameter's
        # own array: the load's peak is the file, not the file plus a copy.
        cfg = resolve_config("desk", {"precision": "single"})
        path = tmp_path / "model.ckpt"
        save_model(path, build_model(cfg, seed=3))
        clone = build_model(cfg, seed=9)
        arrays = {name: p.data for name, p in clone.named_parameters()}
        nbytes = sum(a.nbytes for a in arrays.values())
        tracemalloc.start()
        try:
            load_model(path, clone)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * nbytes, peak / nbytes
        on_file = load_checkpoint(path)
        for name, p in clone.named_parameters():
            assert p.data is arrays[name]
            assert p.data.dtype == np.float32 and p.data.flags.writeable
            np.testing.assert_array_equal(p.data, on_file[name])

    def test_read_only_parameter_named_and_nothing_written(self, tmp_path):
        cfg = helpers.tiny_model_config()
        path = tmp_path / "model.ckpt"
        save_model(path, build_model(cfg, seed=3))
        model = build_model(cfg, seed=9)
        named = model.named_parameters()
        victim, frozen = named[len(named) // 2]
        frozen.data.flags.writeable = False
        before = {name: p.data.copy() for name, p in named}
        with pytest.raises(CheckpointError, match=f"{victim!r}.*read-only"):
            load_model(path, model)
        for name, p in named:
            np.testing.assert_array_equal(p.data, before[name])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_parameter_named_and_nothing_written(self, tmp_path, bad):
        # a checkpoint with one NaN loaded, and eval then scored the model
        cfg = helpers.tiny_model_config()
        arrays = {name: p.data.copy() for name, p in build_model(cfg, seed=3).named_parameters()}
        first, later = sorted(arrays)[len(arrays) // 2], sorted(arrays)[-1]
        arrays[first].flat[-1] = arrays[later].flat[0] = bad
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        model = build_model(cfg, seed=9)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        with pytest.raises(CheckpointError, match=f"{first!r}.*non-finite"):
            load_model(path, model)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_double_precision_load_widens(self, tmp_path):
        cfg = helpers.tiny_model_config()
        path = tmp_path / "model.ckpt"
        save_model(path, build_model(cfg, seed=3))
        clone = build_model(cfg, seed=9)
        load_model(path, clone)
        on_file = load_checkpoint(path)
        for name, p in clone.named_parameters():
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, on_file[name].astype(np.float64))

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg = helpers.tiny_model_config()
        model = build_model(cfg, seed=6)
        arrays = {name: p.data for name, p in model.named_parameters()}
        arrays["bogus.w"] = np.zeros(3)
        path = tmp_path / "extra.ckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointError, match="unknown"):
            load_model(path, model)

    def test_missing_parameter_rejected(self, tmp_path):
        cfg = helpers.tiny_model_config()
        model = build_model(cfg, seed=7)
        arrays = {name: p.data for name, p in model.named_parameters()}
        arrays.pop(sorted(arrays)[0])
        path = tmp_path / "partial.ckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointError, match="missing"):
            load_model(path, model)

    def test_shape_mismatch_leaves_model_untouched(self, tmp_path):
        cfg = helpers.tiny_model_config()
        model = build_model(cfg, seed=8)
        arrays = {name: p.data for name, p in model.named_parameters()}
        victim = sorted(arrays)[0]
        arrays[victim] = np.zeros(np.asarray(arrays[victim]).size + 1)
        path = tmp_path / "warped.ckpt"
        save_checkpoint(path, arrays)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        with pytest.raises(CheckpointError, match="shape"):
            load_model(path, model)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])


def _fuzz_cases(raw: bytes, seed: int, mutations: int = 300):
    """Every truncation of ``raw``, then seeded random byte mutations."""
    for n in range(len(raw)):
        yield raw[:n]
    rng = np.random.default_rng(seed)
    for _ in range(mutations):
        data = bytearray(raw)
        for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
            data[pos] = int(rng.integers(0, 256))
        yield bytes(data)


class TestHostileInput:
    def test_huge_name_length(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", 1 << 62) + b"\x00")
        with pytest.raises(CheckpointError, match="truncated.*name"):
            load_checkpoint(path)

    def test_huge_dims(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", 1) + b"w"
                         + struct.pack("<3Q", 2, 1 << 31, 1 << 31))
        with pytest.raises(CheckpointError, match="truncated.*values of w"):
            load_checkpoint(path)

    def test_empty_array_with_huge_dim(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", 1) + b"w"
                         + struct.pack("<3Q", 2, 0, 1 << 63))
        with pytest.raises(CheckpointError, match="dims"):
            load_checkpoint(path)

    def test_undecodable_name(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", 2) + b"\xff\xfe"
                         + struct.pack("<Q", 0) + b"\x00" * 4)
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_repeated_name(self, tmp_path):
        def record(value: float) -> bytes:
            return (struct.pack("<Q", 1) + b"w" + struct.pack("<2Q", 1, 1)
                    + struct.pack("<f", value))

        path = tmp_path / "a.ckpt"
        path.write_bytes(MAGIC + record(1.0) + record(2.0))
        with pytest.raises(CheckpointError, match="'w' is stored twice"):
            load_checkpoint(path)

    def test_fuzz_only_checkpoint_errors(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, {"b": np.arange(3.0), "w": np.ones((2, 2))})
        raw = path.read_bytes()
        fuzzed = tmp_path / "fuzzed.ckpt"
        for case in _fuzz_cases(raw, seed=0):
            fuzzed.write_bytes(case)
            try:
                load_checkpoint(fuzzed)
            except CheckpointError:
                pass
