"""Config parsing, presets, validation, and round-tripping."""

import dataclasses

import numpy as np
import pytest

from tsgseg.config import (
    PRESETS,
    ConfigError,
    RunConfig,
    dataset_config,
    format_config,
    load_config_file,
    model_config,
    parse_config_text,
    resolve_config,
)
from tsgseg.model import build_model
from tsgseg.segbench import generate


class TestParse:
    def test_basic_lines(self):
        text = "steps = 50\n# a comment\nlr0 = 0.5  # trailing\n\nflip = true\n"
        assert parse_config_text(text) == {"steps": "50", "lr0": "0.5",
                                           "flip": "true"}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*learning_rate"):
            parse_config_text("steps = 50\nlearning_rate = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("steps = 50\nsteps = 60\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("steps 50\n")

    def test_bad_value_reports_line_and_file(self, tmp_path):
        with pytest.raises(ConfigError, match="^line 2: lr0: could not convert"):
            parse_config_text("steps = 50\nlr0 = abc\n")
        path = tmp_path / "bad.cfg"
        path.write_text("steps = 50\nflip = maybe\n")
        with pytest.raises(ConfigError) as exc:
            load_config_file(path)
        assert str(exc.value) == f"{path}: line 2: flip: not a boolean: 'maybe'"


class TestResolve:
    def test_desk_defaults(self):
        cfg = resolve_config("desk")
        assert cfg.preset == "desk"
        assert (cfg.height, cfg.width) == (64, 64)
        assert cfg.stage_dims == (32, 64, 128)
        assert cfg.precision == "double"
        assert cfg.encoder_fusion == "tsg" and cfg.decoder_fusion == "tsg"

    def test_presets_enumerated(self):
        assert PRESETS == ("desk",)
        for name in ("paper", "huge"):
            with pytest.raises(ConfigError, match="unknown preset"):
                resolve_config(name)

    def test_overrides_typed(self):
        cfg = resolve_config("desk", {
            "steps": "25", "lr0": "5e-4", "flip": "true",
            "stage_dims": "8,16,32", "size_mix": "0.5,0.25,0.25",
            "encoder_fusion": "single", "single_stage": "2", "precision": "single",
        })
        assert cfg.steps == 25 and cfg.lr0 == 5e-4 and cfg.flip is True
        assert cfg.stage_dims == (8, 16, 32)
        assert cfg.size_mix == (0.5, 0.25, 0.25)
        assert cfg.single_stage == 2
        assert cfg.precision == "single"

    def test_single_stage_none(self):
        assert resolve_config("desk", {"single_stage": "none"}).single_stage is None

    def test_non_string_overrides_pass_through(self):
        cfg = resolve_config("desk", {"steps": 7, "stage_dims": (4, 8, 16)})
        assert cfg.steps == 7 and cfg.stage_dims == (4, 8, 16)

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="boolean"):
            resolve_config("desk", {"flip": "maybe"})

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="precision"):
            resolve_config("desk", {"precision": "half"})
        with pytest.raises(ConfigError, match="equal length"):
            resolve_config("desk", {"stage_dims": "8,16"})
        with pytest.raises(ConfigError, match="single_stage"):
            resolve_config("desk", {"encoder_fusion": "single"})
        with pytest.raises(ConfigError, match="n_objects"):
            resolve_config("desk", {"n_objects_min": "9", "n_objects_max": "2"})
        with pytest.raises(ConfigError, match="positive"):
            resolve_config("desk", {"steps": "0"})
        with pytest.raises(ConfigError, match="steps"):
            resolve_config("desk", {"steps": "ten"})

    @pytest.mark.parametrize("key, overrides", [
        ("eval_interval", {"eval_interval": 0}),
        ("seed", {"seed": -1}),
        ("data_seed", {"data_seed": -1}),
        ("size_mix", {"size_mix": (0.5, 0.5)}),
        ("size_mix", {"size_mix": (1.2, -0.1, -0.1)}),
        ("size_mix", {"size_mix": (0.5, 0.25, 0.2)}),
        ("height", {"height": 60}),
        ("width", {"width": 72}),
        ("stage_heads", {"stage_heads": (3, 4, 4)}),
        ("decoder_heads", {"decoder_heads": 5}),
        ("num_classes", {"num_classes": 1}),
        ("encoder_fusion", {"encoder_fusion": "gated"}),
        ("decoder_fusion", {"decoder_fusion": "mean"}),
        ("single_stage", {"encoder_fusion": "single", "single_stage": 7}),
        ("single_stage", {"encoder_fusion": "single", "single_stage": 0}),
        ("stage_blocks", {"stage_blocks": (1, 0, 1)}),
        ("stage_dims", {"stage_dims": (32, 0, 128)}),
        ("decoder_blocks", {"decoder_blocks": 0}),
        ("train_samples", {"train_samples": 0}),
        ("val_samples", {"val_samples": 0}),
        ("d_f", {"d_f": 0}),
        ("d_a", {"d_a": 0}),
        ("tsg_hidden", {"tsg_hidden": 0}),
        ("noise", {"noise": -0.01}),
        ("n_objects_min", {"n_objects_min": -1}),
        ("mlp_ratio", {"mlp_ratio": -1.0}),
        ("mlp_ratio", {"mlp_ratio": 0.0}),
        ("mlp_ratio", {"mlp_ratio": float("inf")}),
        ("mlp_ratio", {"mlp_ratio": float("nan")}),
        ("lr0", {"lr0": -1e-3}),
        ("lr0", {"lr0": float("inf")}),
        ("lr0", {"lr0": float("nan")}),
        ("weight_decay", {"weight_decay": -0.01}),
        ("weight_decay", {"weight_decay": float("inf")}),
        ("weight_decay", {"weight_decay": float("nan")}),
        ("poly_power", {"poly_power": -0.9}),
        ("poly_power", {"poly_power": float("inf")}),
        ("poly_power", {"poly_power": float("nan")}),
        ("noise", {"noise": float("nan")}),
        ("noise", {"noise": float("inf")}),
        ("size_mix", {"size_mix": (float("nan"), 0.5, 0.5)}),
        ("size_mix", {"size_mix": (0.5, float("inf"), 0.5)}),
        ("single_stage", {"single_stage": 2}),
    ])
    def test_bad_value_named(self, key, overrides):
        with pytest.raises(ConfigError, match=key):
            resolve_config("desk", overrides)
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(RunConfig(), **overrides)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().steps = 5


class TestRoundtrip:
    def test_format_parse_resolve(self, tmp_path):
        cfg = resolve_config("desk", {"steps": "17", "flip": "true",
                                      "single_stage": "3",
                                      "encoder_fusion": "single"})
        path = tmp_path / "run.cfg"
        path.write_text(format_config(cfg))
        again = resolve_config(cfg.preset, load_config_file(path))
        assert again == cfg

    def test_none_formats_as_none(self):
        text = format_config(RunConfig())
        assert "single_stage = none" in text
        assert "flip = false" in text


class TestLowering:
    """The model and the dataset read the run config's own fields."""

    def test_model_config_fields(self):
        cfg = resolve_config("desk", {"height": "32", "width": "48",
                                      "stage_dims": "8,16,32",
                                      "stage_heads": "2,2,4",
                                      "stage_blocks": "1,1,1",
                                      "d_f": "16"})
        assert model_config(cfg) is cfg
        assert cfg.stage_grids() == [(8, 12), (4, 6), (2, 3)]
        model = build_model(cfg, seed=0)
        assert model.backbone.embed.pos.shape == (8 * 12, 8)
        assert [m.proj.w.shape for m in model.backbone.merges] == [(32, 16), (64, 32)]
        assert model.decoder.queries.shape == (cfg.num_classes, 16)

    def test_dataset_config_fields(self):
        cfg = resolve_config("desk", {"noise": "0.1", "n_objects_min": "3",
                                      "n_objects_max": "4", "height": "32"})
        assert dataset_config(cfg) is cfg
        for seed in range(5):
            sample = generate(seed, cfg)
            assert sample.image.shape == (32, 64, 3)
            assert sample.meta["num_classes"] == cfg.num_classes
            assert 3 <= len(sample.meta["objects"]) + sample.meta["dropped"] <= 4
