"""Assembled model: variant wiring, gradient coverage, and cross-variant
weight compatibility."""

import contextlib
import dataclasses
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import helpers
import tsgseg.tensor as tensor_module
from tsgseg.config import ConfigError, RunConfig, resolve_config
from tsgseg.model import build_model, copy_matching_parameters
from tsgseg.tensor import ShapeError, Tensor, cross_entropy, no_grad
from tsgseg.train import SUITES, VARIANTS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_image(seed=0):
    return np.random.default_rng(seed).uniform(size=(16, 16, 3))


class TestConfig:
    def test_stage_grids(self):
        cfg = helpers.tiny_model_config()
        assert cfg.stage_grids() == [(4, 4), (2, 2), (1, 1)]
        assert cfg.num_stages == 3

    def test_kept_stages_and_decoder_scales(self):
        cfg = helpers.tiny_model_config()
        assert (cfg.kept_stages, cfg.decoder_scales) == (3, 3)
        for k in (1, 2, 3):
            cfg = helpers.tiny_model_config(**VARIANTS[f"single_scale_{k}"])
            assert (cfg.kept_stages, cfg.decoder_scales) == (k, 1)
            model = build_model(cfg, seed=0)
            assert len(model.backbone.stages) == k
            # the decoder receives one refined map
            features, bundles = model.backbone(Tensor(run_image()))
            refined, _ = model.fusion(features, bundles)
            assert len(refined) == 1

    def test_stage_list_alignment(self):
        with pytest.raises(ConfigError, match="equal length"):
            helpers.tiny_model_config(stage_heads=(2, 2))

    def test_readme_parameter_count(self):
        # The README's quick start states the desk model's size.
        stated = re.search(r"~(\d+)k parameters", README.read_text())
        assert stated is not None
        model = build_model(resolve_config("desk", {"precision": "single"}), seed=0,
                            dtype=np.float32)
        count = sum(p.data.size for p in model.parameters())
        assert count == 485_514
        assert round(count / 1000) == int(stated.group(1))

    def test_readme_names_every_setting_and_suite(self):
        text = README.read_text()
        names = [f.name for f in dataclasses.fields(RunConfig) if f.name != "preset"]
        missing = [n for n in names + sorted(SUITES) if f"`{n}`" not in text]
        assert missing == []


class TestForward:
    def test_shapes_and_gates(self):
        model = build_model(helpers.tiny_model_config(), seed=0)
        out = model(Tensor(run_image()))
        assert out.scores.shape == (16, 4)
        assert model.target_grid == (4, 4)
        # two encoder merge steps, decoder blocks 2 and 3 gated
        assert [g.gates.shape for g in out.encoder_gates] == [(4, 2), (16, 2)]
        assert [g.gates.shape for g in out.decoder_gates] == [(16, 3), (16, 3)]

    def test_fresh_model_predicts_uniform_classes(self):
        # Identical (zero-initialized) queries stay identical through every
        # block, so each patch scores all classes equally.
        model = build_model(helpers.tiny_model_config(), seed=1)
        out = model(Tensor(run_image(1)))
        spread = out.scores.data.max(axis=1) - out.scores.data.min(axis=1)
        np.testing.assert_allclose(spread, np.zeros(16), atol=1e-12)

    def test_every_parameter_receives_gradient(self):
        rng = np.random.default_rng(2)
        for variant in ("tsg", "fpn_sum", "plain_sum", "single_scale_2"):
            cfg = helpers.tiny_model_config(**VARIANTS[variant])
            model = build_model(cfg, seed=3)
            helpers.randomize_gate_mlps(model, rng)
            out = model(Tensor(run_image(2)))
            labels = rng.integers(0, 4, size=16)
            cross_entropy(out.scores, labels).backward()
            missing = [n for n, p in model.named_parameters() if p.grad is None]
            assert missing == [], f"{variant}: no gradient for {missing}"

    def test_no_grad_forward_drops_backbone_features_before_decoding(self):
        # a float32 batch-4 64x64 forward peaked at 4.34 MiB while the backbone's
        # features and bundles stayed alive through the decoder, 3.93 MiB without
        cfg = resolve_config("desk", {"precision": "single"})
        model = build_model(cfg, seed=0)
        images = Tensor(np.random.default_rng(4).uniform(size=(4, 64, 64, 3)).astype(np.float32))
        with no_grad():
            model(images)  # builds the upsampling weights
            tracemalloc.start()
            try:
                model(images)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4.15 * 2**20

    def test_deterministic_build(self):
        cfg = helpers.tiny_model_config()
        a = build_model(cfg, seed=7)
        b = build_model(cfg, seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)


def reachable(obj, kind: type, seen=None) -> list:
    """Every ``kind`` instance reachable from ``obj`` through attributes,
    lists, tuples and dict values, each once; the walk stops at them."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, kind):
        return [obj]
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for item in items for a in reachable(item, kind, seen)]


class TestPrecision:
    def test_single_precision_config_builds_float32(self):
        model = build_model(helpers.tiny_model_config(precision="single"), seed=0)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}

    def test_dtype_must_agree_with_precision(self):
        with pytest.raises(ConfigError, match="float32 disagrees with precision 'double'"):
            build_model(helpers.tiny_model_config(), seed=0, dtype=np.float32)

    @pytest.mark.parametrize("recording", [True, False])
    def test_double_image_into_single_model_raises(self, recording):
        # the first op that meets a parameter refuses the mixed operands,
        # rather than running the whole forward in float64
        model = build_model(helpers.tiny_model_config(precision="single"), seed=0)
        with contextlib.nullcontext() if recording else no_grad():
            with pytest.raises(TypeError, match="float32 and float64"):
                model(Tensor(run_image(3)))

    def test_single_precision_model_holds_no_float64_array(self):
        model = build_model(helpers.tiny_model_config(precision="single"), seed=0)
        arrays = reachable(model, np.ndarray)
        assert {a.dtype for a in arrays if a.dtype.kind == "f"} == {np.dtype(np.float32)}


class TestHeldTensors:
    # Module.cast casts the parameters alone, which is every tensor only if
    # modules hold nothing else.
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_every_held_tensor_is_a_parameter(self, variant, precision):
        cfg = helpers.tiny_model_config(precision=precision, **VARIANTS[variant])
        model = build_model(cfg, seed=0)
        held = reachable(model, Tensor)
        params = model.parameters()
        assert len(held) == len(params)
        assert {id(t) for t in held} == {id(p) for p in params}
        assert {p.data.dtype for p in params} == {np.dtype(cfg.dtype)}


class TestUpsampleWeights:
    @pytest.mark.parametrize("variant", ["tsg", "tsg_shared", "fpn_sum", "single_scale_2"])
    def test_built_once_per_model(self, variant, monkeypatch):
        # Once per process, in fact: a second model of the same config
        # builds no weight matrices, and a cleared cache gives the same scores.
        cfg = helpers.tiny_model_config(precision="single", **VARIANTS[variant])
        image = Tensor(np.stack([run_image(1), run_image(2)]), dtype=np.float32)
        calls = []
        real = tensor_module._interp_axis_weights
        monkeypatch.setattr(tensor_module, "_interp_axis_weights",
                            lambda *a: calls.append(a) or real(*a))
        tensor_module._weight_pair.cache_clear()
        build_model(cfg, seed=0)(image)
        built = len(calls)
        scores = build_model(cfg, seed=0)(image).scores.data
        assert built and len(calls) == built  # a second model of the config builds none
        tensor_module._weight_pair.cache_clear()
        np.testing.assert_array_equal(build_model(cfg, seed=0)(image).scores.data, scores)
        assert len(calls) == 2 * built

    def test_weights_are_not_parameters(self):
        cfg = helpers.tiny_model_config()
        names = [name for name, _ in build_model(cfg, seed=0).named_parameters()]
        assert not any("upsample" in name for name in names)


class TestVariants:
    def test_single_scale_keeps_prefix_stages(self):
        cfg = helpers.tiny_model_config(**VARIANTS["single_scale_2"])
        model = build_model(cfg, seed=4)
        assert len(model.backbone.stages) == 2
        out = model(Tensor(run_image(4)))
        assert out.encoder_gates == [] and out.decoder_gates == []
        assert out.scores.shape == (16, 4)

    def test_single_scale_features_match_full_backbone(self):
        # The hierarchy is feed-forward: truncating stages must not change
        # the features of the stages that remain.
        full = build_model(helpers.tiny_model_config(), seed=5)
        cfg = helpers.tiny_model_config(**VARIANTS["single_scale_2"])
        small = build_model(cfg, seed=99)
        copy_matching_parameters(full.backbone, small.backbone)
        img = Tensor(run_image(5))
        feats_full, _ = full.backbone(img)
        feats_small, _ = small.backbone(img)
        assert len(feats_small) == 2
        for a, b in zip(feats_full[:2], feats_small):
            np.testing.assert_allclose(a.data.data, b.data.data, atol=1e-12)

    def test_plain_sum_has_no_gate_parameters(self):
        cfg = helpers.tiny_model_config(**VARIANTS["plain_sum"])
        model = build_model(cfg, seed=6)
        names = [n for n, _ in model.named_parameters()]
        assert not any("head" in n or "integrator" in n for n in names)

    def test_shared_tsg_reduces_parameter_count(self):
        base = build_model(helpers.tiny_model_config(), seed=8)
        shared = build_model(helpers.tiny_model_config(shared_tsg=True), seed=8)
        assert len(shared.named_parameters()) < len(base.named_parameters())
        out = shared(Tensor(run_image(8)))
        assert [g.gates.shape for g in out.encoder_gates] == [(4, 2), (16, 2)]

    def test_single_requires_stage(self):
        with pytest.raises(ConfigError, match="single_stage"):
            helpers.tiny_model_config(encoder_fusion="single")


class TestWeightTransfer:
    def test_copy_into_subset_model(self):
        src = build_model(helpers.tiny_model_config(), seed=10)
        dst_cfg = helpers.tiny_model_config(**VARIANTS["fpn_sum"])
        dst = build_model(dst_cfg, seed=11)
        copied = copy_matching_parameters(src, dst)
        assert len(copied) == len(dst.named_parameters())
        src_params = dict(src.named_parameters())
        for name, p in dst.named_parameters():
            np.testing.assert_array_equal(p.data, src_params[name].data)

    def test_copy_is_by_value(self):
        src = build_model(helpers.tiny_model_config(), seed=12)
        dst = build_model(helpers.tiny_model_config(), seed=13)
        copy_matching_parameters(src, dst)
        name, p = dst.named_parameters()[0]
        p.data = p.data + 1.0
        assert not np.array_equal(p.data, dict(src.named_parameters())[name].data)

    def test_copy_keeps_the_destination_arrays_and_dtype(self):
        src = build_model(helpers.tiny_model_config(), seed=18)
        dst = build_model(helpers.tiny_model_config(precision="single"), seed=19)
        arrays = {name: p.data for name, p in dst.named_parameters()}
        copy_matching_parameters(src, dst)
        src_params = dict(src.named_parameters())
        for name, p in dst.named_parameters():
            assert p.data is arrays[name] and p.data.dtype == np.float32
            np.testing.assert_array_equal(
                p.data, src_params[name].data.astype(np.float32))
        image = Tensor(run_image(18), dtype=np.float32)
        assert dst(image).scores.dtype == np.float32

    @staticmethod
    def assert_unchanged(model, before):
        # a copy that fails writes nothing
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_missing_name_rejected(self):
        small = build_model(
            helpers.tiny_model_config(**VARIANTS["plain_sum"]), seed=14)
        full = build_model(helpers.tiny_model_config(), seed=15)
        before = {name: p.data.copy() for name, p in full.named_parameters()}
        with pytest.raises(KeyError):
            copy_matching_parameters(small, full)
        self.assert_unchanged(full, before)

    def test_shape_mismatch_rejected(self):
        a = build_model(helpers.tiny_model_config(), seed=16)
        b = build_model(helpers.tiny_model_config(d_f=6, d_a=6), seed=17)
        before = {name: p.data.copy() for name, p in b.named_parameters()}
        with pytest.raises(ShapeError):
            copy_matching_parameters(a, b)
        self.assert_unchanged(b, before)
