"""Training loop, evaluation, gate export, and the ablation driver, all on
a miniature configuration that trains in well under a second."""

import dataclasses
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import helpers
import tsgseg.train as train_module
from tsgseg.checkpoint import save_model
from tsgseg.config import ConfigError, format_config, load_config_file, resolve_config
from tsgseg.decoder import labels_to_mask
from tsgseg.model import ForwardResult, build_model
from tsgseg.netpbm import read_pgm
from tsgseg.segbench import confusion_matrix, iou_from_confusion, sample_seed, save_sample
from tsgseg.tensor import Tensor, cross_entropy
from tsgseg.train import (
    ABLATE_HEADER,
    METRICS_HEADER,
    SUITES,
    VARIANTS,
    TrainAbort,
    ablate,
    build_split,
    dump_gates,
    evaluate_checkpoint,
    evaluate_model,
    patch_accuracy,
    predict_labels,
    train_run,
)

TINY = dict(
    height=16, width=16, patch_size=4, stage_dims=(4, 6, 8),
    stage_heads=(2, 2, 2), stage_blocks=(1, 1, 1), mlp_ratio=1.0,
    d_f=8, d_a=6, tsg_hidden=6, decoder_blocks=3, decoder_heads=2,
    num_classes=4, train_samples=6, val_samples=3, steps=4, batch_size=2,
    lr0=1e-3, eval_interval=2,
)


def tiny_config(**over):
    merged = dict(TINY)
    merged.update(over)
    return resolve_config("desk", merged)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_single_precision_process_never_loads_scipy_special(tmp_path):
    # a fresh interpreter, so no other test has imported scipy into it
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        from tsgseg.config import resolve_config
        from tsgseg.tensor import Tensor, gelu
        from tsgseg.train import build_split, evaluate_model, train_run
        cfg = resolve_config("desk", dict({TINY!r}, steps=2, precision="single"))
        model, _ = train_run(cfg, {str(tmp_path / "run")!r})
        evaluate_model(model, build_split(cfg, "val"), cfg.dtype)
        assert "scipy.special" not in sys.modules, "single precision loaded scipy.special"
        gelu(Tensor(np.ones(2)))
        assert "scipy.special" in sys.modules, "float64 gelu did not load scipy.special"
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSplits:
    def test_deterministic_and_disjoint(self):
        cfg = tiny_config()
        train = build_split(cfg, "train")
        val = build_split(cfg, "val")
        assert len(train) == 6 and len(val) == 3
        assert train[0].meta["seed"] == sample_seed(cfg.data_seed, 0)
        assert val[0].meta["seed"] == sample_seed(cfg.data_seed, 6)
        train_seeds = {s.meta["seed"] for s in train}
        val_seeds = {s.meta["seed"] for s in val}
        assert not train_seeds & val_seeds
        again = build_split(cfg, "train")
        np.testing.assert_array_equal(train[2].labels, again[2].labels)

    def test_unknown_split(self):
        with pytest.raises(ValueError):
            build_split(tiny_config(), "test")


class TestTrainRun:
    def test_outputs_and_metrics(self, tmp_path):
        cfg = tiny_config()
        model, summary = train_run(cfg, tmp_path)
        for name in ("config.resolved", "metrics.csv", "model.ckpt"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3  # eval at steps 2 and 4
        for row in lines[1:]:
            step, lr, loss, miou_val = row.split(",")
            assert int(step) in (2, 4)
            assert np.isfinite(float(lr)) and np.isfinite(float(loss))
            assert 0.0 <= float(miou_val) <= 1.0
        assert len(summary["loss_history"]) == cfg.steps
        # the resolved config parses back to the exact configuration
        raw = load_config_file(tmp_path / "config.resolved")
        preset = raw.pop("preset")
        assert resolve_config(preset, raw) == cfg

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        cfg = tiny_config()
        train_run(cfg, tmp_path / "a")
        train_run(cfg, tmp_path / "b")
        for name in ("metrics.csv", "model.ckpt", "config.resolved"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_zero_lr_freezes_parameters(self, tmp_path):
        cfg = tiny_config(lr0=0.0, steps=3, eval_interval=3)
        model, summary = train_run(cfg, tmp_path)
        fresh = build_model(cfg, seed=cfg.seed)
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     fresh.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        assert len(summary["loss_history"]) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_report(self, tmp_path, capsys):
        cfg = tiny_config(lr0=1e12, steps=50, eval_interval=50,
                          precision="single")
        with pytest.raises(TrainAbort, match="step"):
            train_run(cfg, tmp_path)
        assert "parameter norms:" in capsys.readouterr().err
        report = (tmp_path / "abort_report.txt").read_text()
        assert "non-finite loss at step" in report
        assert "parameter norms:" in report
        assert "decoder.queries" in report

    def test_last_step_evaluates_once(self, tmp_path, monkeypatch):
        # The in-loop report of the last step is the summary's report; the
        # unchanged model is not scored a second time.
        calls = []
        real = train_module.evaluate_model

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_module, "evaluate_model", counting)
        cfg = tiny_config(steps=3, eval_interval=3)
        model, summary = train_run(cfg, tmp_path)
        assert len(calls) == 1
        again = real(model, summary["val_samples"], summary["dtype"])
        assert summary["report"] == again
        last = (tmp_path / "metrics.csv").read_text().splitlines()[-1]
        assert last.endswith(f",{summary['report']['mIoU']!r}")

    def test_flip_augmentation_changes_trajectory(self, tmp_path):
        plain = train_run(tiny_config(), tmp_path / "plain")[1]
        flipped = train_run(tiny_config(flip=True), tmp_path / "flip")[1]
        assert plain["loss_history"] != flipped["loss_history"]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_trained_model_pins_no_optimizer_state(tmp_path, monkeypatch, variant):
    # A model kept after training holds no gradient, and views of the
    # optimizer's value buffer, so it keeps the array those views are cut
    # from; the gradients, moments and scratch must not be cut from it.
    made = []

    class Recorded(train_module.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train_module, "AdamW", Recorded)
    cfg = dataclasses.replace(tiny_config(steps=2, eval_interval=2), **VARIANTS[variant])
    model, _ = train_run(cfg, tmp_path)
    (opt,) = made
    for name, p in model.named_parameters():
        assert p.grad is None, name
        for state in (opt.grad, opt.m, opt.v, opt.scratch):
            block = state if state.base is None else state.base
            assert not np.shares_memory(p.data, block), name


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_no_gradient_outlives_its_step(tmp_path, monkeypatch, variant):
    # Each step's gradients are freed once the step has used them, so no
    # forward runs while the last step's gradient arrays are still held, and
    # the model train_run returns holds no gradient.
    made, held = [], []

    class Recorded(train_module.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def loss_of(scores, labels):
        held.append([name for name, p in made[0].named_params if p.grad is not None])
        return cross_entropy(scores, labels)

    monkeypatch.setattr(train_module, "AdamW", Recorded)
    monkeypatch.setattr(train_module, "cross_entropy", loss_of)
    cfg = dataclasses.replace(tiny_config(steps=3, eval_interval=3), **VARIANTS[variant])
    model, _ = train_run(cfg, tmp_path)
    assert held == [[], [], []]
    assert [name for name, p in model.named_parameters() if p.grad is not None] == []


class TestEvaluate:
    def test_fresh_model_scores_all_background(self):
        # Uniform class scores argmax to class 0 everywhere, so the expected
        # metrics follow directly from label counts.
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        samples = build_split(cfg, "val")
        report = evaluate_model(model, samples, np.float64)
        gt = np.concatenate([s.labels.ravel() for s in samples])
        classes_present = {int(c) for c in np.unique(gt)}
        expected = [(gt == 0).mean() if c == 0 else 0.0
                    for c in sorted(classes_present)]
        np.testing.assert_allclose(report["mIoU"],
                                   sum(expected) / len(expected), atol=1e-12)
        for c, iou in enumerate(report["per_class"]):
            if c == 0:
                np.testing.assert_allclose(iou, (gt == 0).mean())
            elif c in classes_present:
                assert iou == 0.0
            else:
                assert iou is None

    def test_empty_dataset_rejected(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        with pytest.raises(ValueError, match="empty"):
            evaluate_model(model, [], np.float64)

    def test_class_count_mismatch_rejected(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        samples = build_split(tiny_config(num_classes=3), "val")
        with pytest.raises(ValueError, match="classes"):
            evaluate_model(model, samples, np.float64)

    def test_chunked_scoring_matches_one_image_at_a_time(self):
        # Five images span a full chunk and a partial one; the pooled
        # confusion must equal the one built from unbatched forwards.
        cfg = tiny_config(val_samples=5)
        model = build_model(cfg, seed=4)
        rng = np.random.default_rng(0)
        for p in model.parameters():  # break the uniform fresh-model scores
            p.data = p.data + 0.2 * rng.standard_normal(p.shape)
        samples = build_split(cfg, "val")
        assert len(samples) > train_module.EVAL_CHUNK
        conf = np.zeros((cfg.num_classes,) * 2, dtype=np.int64)
        for s in samples:
            labels = np.argmax(model(Tensor(s.image)).scores.data, axis=-1)
            mask = labels_to_mask(labels, model.target_grid, s.labels.shape)
            conf += confusion_matrix(mask, s.labels, cfg.num_classes)
        per_class, mean = iou_from_confusion(conf)
        report = evaluate_model(model, samples, np.float64)
        assert report["per_class"] == per_class
        assert report["mIoU"] == mean

    def test_ties_go_to_lowest_class(self):
        # Each image's patch 0 scores all classes equally; patch 1 ties
        # classes 2 and 3 above the rest.
        samples = build_split(tiny_config(val_samples=5), "val")
        scores = np.zeros((16, 4))
        scores[1, 2:] = 1.0
        scores[2:, 3] = 1.0

        def model(images):
            return ForwardResult(scores=Tensor(np.stack([scores] * images.shape[0])))

        model.cfg = tiny_config()  # predict_labels scores at the model's precision
        labels = predict_labels(model, samples)
        assert labels.shape == (5, 16)
        np.testing.assert_array_equal(labels, [[0, 2] + [3] * 14] * 5)

    def test_mixed_image_sizes_rejected(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        samples = build_split(cfg, "val")
        samples[1] = build_split(tiny_config(height=32, width=32), "val")[1]
        with pytest.raises(ValueError, match="sizes"):
            evaluate_model(model, samples, np.float64)

    def test_patch_accuracy_fresh_model(self):
        cfg = tiny_config()
        from tsgseg.segbench import patch_labels
        model = build_model(cfg, seed=0)
        samples = build_split(cfg, "val")
        labels = [patch_labels(s.labels, cfg.patch_size, cfg.num_classes).ravel()
                  for s in samples]
        acc = patch_accuracy(model, samples, labels, np.float64)
        expected = np.concatenate(labels) == 0
        np.testing.assert_allclose(acc, expected.mean())

    def test_scoring_dtype_must_be_the_models(self, monkeypatch):
        # A single-precision model is scored in float32; a float64 request
        # is refused rather than silently running the model in float64.
        cfg = tiny_config(precision="single")
        model = build_model(cfg, seed=0)
        samples = build_split(cfg, "val")
        for score in (lambda: evaluate_model(model, samples, np.float64),
                      lambda: patch_accuracy(model, samples, [], np.float64)):
            with pytest.raises(ConfigError, match="float64 disagrees with precision 'single'"):
                score()
        seen = []
        real = model.__class__.__call__
        monkeypatch.setattr(model.__class__, "__call__",
                            lambda self, image: seen.append(image.dtype) or real(self, image))
        report = evaluate_model(model, samples, np.float32)
        assert seen and set(seen) == {np.dtype(np.float32)}
        assert 0.0 <= report["mIoU"] <= 1.0


class TestEvaluateCheckpoint:
    def test_report_csv(self, tmp_path):
        cfg = tiny_config()
        train_run(cfg, tmp_path / "run")
        data_dir = tmp_path / "data"
        os.makedirs(data_dir)
        for i, sample in enumerate(build_split(cfg, "val")):
            save_sample(str(data_dir), i, sample)
        report_path = tmp_path / "report.csv"
        report = evaluate_checkpoint(tmp_path / "run" / "model.ckpt",
                                     str(data_dir), report_path)
        lines = report_path.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1].startswith("mIoU,")
        np.testing.assert_allclose(float(lines[1].split(",")[1]), report["mIoU"])
        class_lines = [l for l in lines if l.startswith("iou_class_")]
        assert len(class_lines) == cfg.num_classes
        for bucket in ("small", "medium", "large"):
            assert any(l.startswith(f"iou_{bucket},") for l in lines)
        # every value is a plain number or empty (an absent class or bucket)
        for line in lines[1:]:
            _, value = line.split(",")
            assert value == "" or np.isfinite(float(value)), line

    def test_missing_config_rejected(self, tmp_path):
        cfg = tiny_config()
        train_run(cfg, tmp_path / "run")
        orphan = tmp_path / "orphan.ckpt"
        orphan.write_bytes((tmp_path / "run" / "model.ckpt").read_bytes())
        with pytest.raises(FileNotFoundError, match="config.resolved"):
            evaluate_checkpoint(orphan, str(tmp_path), tmp_path / "r.csv")

    def test_empty_data_dir_rejected(self, tmp_path):
        cfg = tiny_config()
        train_run(cfg, tmp_path / "run")
        os.makedirs(tmp_path / "nodata")
        with pytest.raises(ValueError, match="no samples"):
            evaluate_checkpoint(tmp_path / "run" / "model.ckpt",
                                str(tmp_path / "nodata"), tmp_path / "r.csv")


class TestDumpGates:
    def test_files_and_values(self, tmp_path):
        cfg = tiny_config()
        train_run(cfg, tmp_path / "run")
        sample = build_split(cfg, "val")[0]
        save_sample(str(tmp_path), 0, sample)
        out = tmp_path / "gates"
        written = dump_gates(tmp_path / "run" / "model.ckpt",
                             tmp_path / "sample_0000.ppm", out)
        # decoder blocks 2 and 3, three scales each: 3 scale maps + argmax + csv
        assert len(written) == 2 * 5
        for block in (2, 3):
            csv_lines = (out / f"gates_block{block}.csv").read_text().splitlines()
            assert csv_lines[0] == "patch,scale_1,scale_2,scale_3"
            assert len(csv_lines) == 1 + 16
            rows = np.array([[float(v) for v in l.split(",")[1:]]
                             for l in csv_lines[1:]])
            np.testing.assert_allclose(rows.sum(axis=1), np.ones(16), atol=1e-6)
            for s in range(3):
                pgm = read_pgm(out / f"gates_block{block}_scale{s + 1}.pgm")
                assert pgm.shape == (4, 4)
                np.testing.assert_array_equal(
                    pgm.ravel(), np.round(255 * rows[:, s]).astype(np.uint8))
            argmax = read_pgm(out / f"gates_block{block}_argmax.pgm")
            levels = np.round(np.linspace(0, 255, 3)).astype(np.uint8)
            np.testing.assert_array_equal(argmax.ravel(),
                                          levels[np.argmax(rows, axis=1)])

    def test_fresh_model_maps_uniform_gray(self, tmp_path):
        # zero-init gate heads emit 1/3 everywhere, so every scale map is a
        # flat round(255/3) image
        cfg = tiny_config()
        run = tmp_path / "run"
        os.makedirs(run)
        model = build_model(cfg, seed=0)
        save_model(run / "model.ckpt", model)
        (run / "config.resolved").write_text(format_config(cfg))
        save_sample(str(tmp_path), 0, build_split(cfg, "val")[0])
        out = tmp_path / "gates"
        dump_gates(run / "model.ckpt", tmp_path / "sample_0000.ppm", out)
        for block in (2, 3):
            for s in (1, 2, 3):
                pgm = read_pgm(out / f"gates_block{block}_scale{s}.pgm")
                assert (pgm == 85).all()

    def test_ungated_model_rejected(self, tmp_path):
        cfg = tiny_config(decoder_fusion="sum")
        train_run(cfg, tmp_path / "run")
        sample = build_split(cfg, "val")[0]
        save_sample(str(tmp_path), 0, sample)
        with pytest.raises(ValueError, match="gated"):
            dump_gates(tmp_path / "run" / "model.ckpt",
                       tmp_path / "sample_0000.ppm", tmp_path / "gates")

    def test_wrong_image_size_rejected(self, tmp_path):
        cfg = tiny_config()
        train_run(cfg, tmp_path / "run")
        other = tiny_config(height=32, width=32)
        save_sample(str(tmp_path), 0, build_split(other, "val")[0])
        with pytest.raises(ValueError, match="expects"):
            dump_gates(tmp_path / "run" / "model.ckpt",
                       tmp_path / "sample_0000.ppm", tmp_path / "gates")


class TestAblate:
    def test_suite_definitions(self):
        assert set(SUITES) == {"components", "scales", "tsg-variants"}
        assert SUITES["components"] == [
            "plain_sum", "fpn_sum", "tsge_only", "tsgd_only", "tsg"]
        assert SUITES["scales"] == [
            "single_scale_1", "single_scale_2", "single_scale_3",
            "plain_sum", "tsg"]
        assert SUITES["tsg-variants"] == ["tsg", "tsg_shared"]
        # every variant is a valid config, and every one is run by some suite
        for overrides in VARIANTS.values():
            cfg = dataclasses.replace(helpers.tiny_model_config(), **overrides)
            assert all(getattr(cfg, k) == v for k, v in overrides.items())
        for k in (1, 2, 3):
            cfg = dataclasses.replace(helpers.tiny_model_config(),
                                      **VARIANTS[f"single_scale_{k}"])
            assert (cfg.encoder_fusion, cfg.single_stage) == ("single", k)
        assert {name for suite in SUITES.values() for name in suite} == set(VARIANTS)

    def test_base_override_cannot_change_a_variant(self):
        # A base config with shared heads must not make the plain tsg rows
        # shared too, or tsg-variants would train one variant twice.
        base = resolve_config("desk", {"shared_tsg": True})
        assert dataclasses.replace(base, **VARIANTS["tsg"]).shared_tsg is False
        for name, overrides in VARIANTS.items():
            cfg = dataclasses.replace(base, **overrides)
            assert cfg.shared_tsg is (name == "tsg_shared")

    def test_small_grid_run(self, tmp_path):
        results = ablate("tsg-variants", tmp_path, seeds=(0,), steps=2,
                         overrides=dict(TINY))
        assert len(results) == 2
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == ABLATE_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("tsg,0,")
        assert lines[2].startswith("tsg_shared,0,")
        for name in ("tsg_seed0", "tsg_shared_seed0"):
            assert (tmp_path / name / "metrics.csv").exists()
            cfg_text = (tmp_path / name / "config.resolved").read_text()
            assert "precision = single" in cfg_text

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(ValueError, match="suite"):
            ablate("everything", tmp_path)

    @pytest.mark.parametrize("seeds", [(), (0, 0), (1, 2, 1)])
    def test_empty_or_repeated_seeds_rejected_before_output(self, tmp_path, seeds):
        # each seed names one run directory and one results row
        out = tmp_path / "grid"
        with pytest.raises(ValueError, match="seeds"):
            ablate("tsg-variants", out, seeds=seeds, steps=1, overrides=dict(TINY))
        assert not out.exists()

    @pytest.mark.parametrize("steps", [0, -5])
    def test_bad_step_count_rejected_before_any_run(self, tmp_path, steps):
        out = tmp_path / "grid"
        with pytest.raises(ConfigError, match="steps"):
            ablate("tsg-variants", out, seeds=(0,), steps=steps,
                   overrides=dict(TINY))
        assert not out.exists()

    def test_every_run_config_checked_before_any_run(self, tmp_path):
        # single_scale(3) needs three stages; a two-stage base fails only
        # on that variant, which comes third in the grid.
        over = dict(TINY, stage_dims=(4, 6), stage_heads=(2, 2), stage_blocks=(1, 1))
        with pytest.raises(ConfigError, match="single_stage"):
            ablate("scales", tmp_path, seeds=(0,), steps=1, overrides=over)
        assert list(tmp_path.iterdir()) == []
