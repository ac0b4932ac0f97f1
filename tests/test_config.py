"""Config parsing, presets, validation, and round-tripping."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from tsgseg.config import (
    PRESETS,
    ConfigError,
    RunConfig,
    dataset_config,
    format_config,
    load_config_file,
    max_base_seed,
    model_config,
    parse_config_text,
    resolve_config,
    sample_seed,
)
from tsgseg.model import build_model
from tsgseg.segbench import generate
from tsgseg.train import VARIANTS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
        ("data_seed", {"data_seed": 2**108}),
        ("data_seed", {"data_seed": 2**108 - 1, "train_samples": 2**20}),
    ])
    def test_bad_value_named(self, key, overrides):
        with pytest.raises(ConfigError, match=key):
            resolve_config("desk", overrides)
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(RunConfig(), **overrides)

    @pytest.mark.parametrize("count", [2, 250, 2**20, 2**20 + 1, 3 << 20])
    def test_largest_base_seed_keys_every_sample(self, count):
        # the largest base seed's last sample has a Philox key; one more has not
        top = max_base_seed(count)
        np.random.Philox(key=sample_seed(top, count - 1))
        with pytest.raises(ValueError, match="2\\*\\*128"):
            np.random.Philox(key=sample_seed(top + 1, count - 1))
        assert resolve_config("desk", {"data_seed": top, "train_samples": count - 1,
                                       "val_samples": 1}).data_seed == top

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().steps = 5


class TestTypes:
    """A config holds only values that ``format_config`` writes in a form
    that reads back: a list, a fractional count or a bool count would build
    a run that ``tsgseg eval`` cannot reload."""

    @pytest.mark.parametrize("overrides, key, got", [
        ({"stage_dims": [32, 64, 128]}, "stage_dims", "list"),
        ({"stage_heads": (2, 4.0, 4)}, "stage_heads", "tuple"),
        ({"size_mix": [0.45, 0.2, 0.35]}, "size_mix", "list"),
        ({"steps": 2.5}, "steps", "float"),
        ({"steps": True}, "steps", "bool"),
        ({"seed": np.float64(3.0)}, "seed", "float64"),
        ({"lr0": True}, "lr0", "bool"),
        ({"lr0": np.float32(1e-3)}, "lr0", "float32"),
        ({"flip": 1}, "flip", "int"),
        ({"precision": 2}, "precision", "int"),
        ({"encoder_fusion": None}, "encoder_fusion", "NoneType"),
        ({"encoder_fusion": "single", "single_stage": 2.0}, "single_stage", "float"),
    ])
    def test_wrong_type_named(self, overrides, key, got):
        pattern = f"^{key} must be .*, got {got} "
        with pytest.raises(ConfigError, match=pattern):
            resolve_config("desk", overrides)
        with pytest.raises(ConfigError, match=pattern):
            dataclasses.replace(RunConfig(), **overrides)

    def test_numeric_forms_accepted(self):
        cfg = RunConfig(steps=np.int64(3), seed=np.uint32(5), mlp_ratio=2,
                        lr0=np.float64(1e-3), size_mix=(1, 0, 0))
        assert (cfg.steps, cfg.seed, cfg.mlp_ratio, cfg.size_mix) == (3, 5, 2.0, (1, 0, 0))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_variant_round_trips(self, variant, precision):
        cfg = resolve_config("desk", {**VARIANTS[variant], "precision": precision})
        raw = parse_config_text(format_config(cfg))
        assert resolve_config(raw.pop("preset"), raw) == cfg

    def test_benchmark_style_config_builds(self):
        # The overrides perfbench's worker passes for each workload.
        for size, steps, train, val in ((64, 10, 20, 4), (128, 2, 8, 2), (64, 12, 16, 4)):
            cfg = resolve_config("desk", {
                "precision": "single", "height": size, "width": size, "steps": steps,
                "eval_interval": steps, "seed": 7, "data_seed": 7,
                "train_samples": train, "val_samples": val})
            assert (cfg.height, cfg.steps, cfg.train_samples) == (size, steps, train)


class TestReadme:
    def test_key_groups_name_exactly_the_fields(self):
        groups = re.search(r"Key groups:(.*?)\)\.", README.read_text(), re.S)
        assert groups is not None
        named = re.findall(r"`([^`]*)`", groups.group(1))
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(RunConfig))


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
