"""End-to-end checks of the command-line interface.

Each test drives ``main(argv)`` directly with a miniature configuration so
the whole module stays fast.
"""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from tsgseg.checkpoint import load_checkpoint, save_checkpoint, save_model
from tsgseg.cli import main
from tsgseg.config import format_config, resolve_config
from tsgseg.model import build_model
from tsgseg.netpbm import read_pgm, write_pgm, write_ppm
from tsgseg.segbench import (
    count_samples,
    generate,
    load_sample,
    sample_seed,
    save_sample,
)
from tsgseg.train import SUITES

from test_train import tiny_config

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def tiny_config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(format_config(tiny_config()))
    return str(path)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, tiny_config_file):
    out = tmp_path_factory.mktemp("run")
    # a module-scoped fixture cannot take capsys
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main(["train", "--config", tiny_config_file,
                     "--out", str(out)]) == 0
    assert "final loss" in printed.getvalue()
    return out


class TestGenData:
    def test_writes_samples(self, tmp_path, tiny_config_file, capsys):
        out = tmp_path / "data"
        rc = main(["gen-data", "--seed", "7", "--count", "3",
                   "--out", str(out), "--config", tiny_config_file])
        assert rc == 0
        assert "wrote 3 samples" in capsys.readouterr().out
        assert count_samples(str(out)) == 3
        expected = generate(sample_seed(7, 0), tiny_config())
        np.testing.assert_array_equal(load_sample(str(out), 0).labels,
                                      expected.labels)

    def test_defaults_without_config(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["gen-data", "--seed", "1", "--count", "1", "--out", str(out)])
        assert rc == 0
        assert "wrote 1 samples" in capsys.readouterr().out
        assert load_sample(str(out), 0).image.shape == (64, 64, 3)

    @pytest.mark.parametrize("seed, count, flag", [("-1", "1", "--seed"),
                                                   ("1", "-3", "--count"),
                                                   ("1", "0", "--count")])
    def test_bad_flag_rejected_before_output(self, tmp_path, capsys, seed, count, flag):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--seed", seed, "--count", count, "--out", str(out)])
        assert exc.value.code == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_classes_rejected_before_output(self, tmp_path, capsys):
        # Labels are stored as 8-bit PGM.
        path = tmp_path / "wide.cfg"
        path.write_text("num_classes = 300\n")
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--seed", "1", "--count", "3", "--out", str(out),
                  "--config", str(path)])
        assert exc.value.code == 2
        assert "num_classes must be <= 256, got 300" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_run_artifacts(self, tiny_run, capsys):
        for name in ("config.resolved", "metrics.csv", "model.ckpt"):
            assert (tiny_run / name).exists()

    def test_seed_flag_applies(self, tmp_path, tiny_config_file, capsys):
        rc = main(["train", "--config", tiny_config_file, "--seed", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "final loss" in capsys.readouterr().out
        assert "seed = 9" in (tmp_path / "config.resolved").read_text()

    def test_seed_flag_wins_over_config_file(self, tmp_path, capsys):
        path = tmp_path / "seeded.cfg"
        path.write_text(format_config(tiny_config(seed=3)))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--seed", "11",
                     "--out", str(out)]) == 0
        assert "final loss" in capsys.readouterr().out
        resolved = (out / "config.resolved").read_text().splitlines()
        assert "seed = 11" in resolved and "seed = 3" not in resolved


class TestEval:
    def test_report_written(self, tmp_path, tiny_run, tiny_config_file, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--seed", "77", "--count", "2",
                     "--out", str(data), "--config", tiny_config_file]) == 0
        report = tmp_path / "report.csv"
        rc = main(["eval", "--ckpt", str(tiny_run / "model.ckpt"),
                   "--data", str(data), "--report", str(report)])
        assert rc == 0
        assert "mIoU" in capsys.readouterr().out
        assert report.read_text().startswith("metric,value\nmIoU,")


class TestGates:
    def test_maps_written(self, tmp_path, tiny_run, tiny_config_file, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--seed", "5", "--count", "1",
                     "--out", str(data), "--config", tiny_config_file]) == 0
        out = tmp_path / "gates"
        rc = main(["gates", "--ckpt", str(tiny_run / "model.ckpt"),
                   "--sample", str(data / "sample_0000.ppm"),
                   "--out", str(out)])
        assert rc == 0
        assert "wrote 10 files" in capsys.readouterr().out
        assert (out / "gates_block2_argmax.pgm").exists()
        assert (out / "gates_block3.csv").exists()


class TestAblate:
    def test_variant_suite_single_step(self, tmp_path, capsys):
        rc = main(["ablate", "--suite", "tsg-variants", "--out", str(tmp_path),
                   "--seeds", "0", "--steps", "1"])
        assert rc == 0
        assert "results.csv" in capsys.readouterr().out
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_every_suite_accepted(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("tsgseg.cli.ablate",
                            lambda suite, *args, **kwargs: calls.append(suite))
        for suite in SUITES:
            assert main(["ablate", "--suite", suite, "--out", str(tmp_path)]) == 0
        assert calls == list(SUITES)
        assert capsys.readouterr().out.count("complete; results in") == len(SUITES)

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["ablate", "--suite", "nope", "--out", str(tmp_path)])
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds, problem", [("a", "integers"), ("0,x", "integers"),
                                                ("-1", "integers"), ("", "integers"),
                                                (",", "integers"), ("0,0", "repeat")])
    def test_bad_seed_list_rejected_before_output(self, tmp_path, capsys, seeds, problem):
        out = tmp_path / "grid"
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--suite", "tsg-variants", "--out", str(out),
                  "--seeds", seeds])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and problem in err
        assert not out.exists()


def _one_object(fields: str) -> str:
    """Sample meta text for a 16x16 image holding one small object."""
    return f'{{"hw": [16, 16], "objects": [{{"bucket": "small", {fields}}}]}}'


class TestErrors:
    """Bad settings and missing files are usage errors: one line, exit 2."""

    def run_error(self, capsys, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    def test_bad_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("steps = abc\n")
        line = self.run_error(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "run")])
        assert line.startswith("tsgseg: error: ") and "line 1: steps" in line
        assert not (tmp_path / "run").exists()

    def test_train_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"steps = 1\n# \xff\n")
        line = self.run_error(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "run")])
        assert line.startswith(f"tsgseg: error: {path}: not UTF-8 text")
        assert not (tmp_path / "run").exists()

    def test_eval_on_config_that_is_not_utf8(self, tmp_path, tiny_run, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "model.ckpt").write_bytes((tiny_run / "model.ckpt").read_bytes())
        text = (tiny_run / "config.resolved").read_bytes()
        (run / "config.resolved").write_bytes(text[:10] + b"\xff" + text[11:])
        line = self.run_error(capsys, ["eval", "--ckpt", str(run / "model.ckpt"),
                                       "--data", str(tmp_path),
                                       "--report", str(tmp_path / "report.csv")])
        assert line.startswith(f"tsgseg: error: {run / 'config.resolved'}: not UTF-8 text")
        assert not (tmp_path / "report.csv").exists()

    def test_negative_train_seed(self, tmp_path, capsys):
        line = self.run_error(capsys, ["train", "--seed", "-1",
                                       "--out", str(tmp_path / "run")])
        assert line == "tsgseg: error: seed must be non-negative, got -1"
        assert not (tmp_path / "run").exists()

    def test_checkpoint_without_config(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"")
        line = self.run_error(capsys, ["eval", "--ckpt", str(ckpt), "--data", str(tmp_path),
                                       "--report", str(tmp_path / "report.csv")])
        assert line.startswith("tsgseg: error: no config.resolved next to")

    @pytest.mark.parametrize("key, after", [("positional", "stage_blocks"),
                                            ("integration_bias", "shared_tsg")])
    def test_eval_on_config_with_removed_key(self, tmp_path, tiny_run, capsys, key, after):
        # A config.resolved written while the key existed lists it after the
        # same neighbour.
        run = tmp_path / "old_run"
        run.mkdir()
        (run / "model.ckpt").write_bytes((tiny_run / "model.ckpt").read_bytes())
        lines = (tiny_run / "config.resolved").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{after} =")) + 1
        lines.insert(at, f"{key} = true")
        (run / "config.resolved").write_text("\n".join(lines) + "\n")
        line = self.run_error(capsys, ["eval", "--ckpt", str(run / "model.ckpt"),
                                       "--data", str(tmp_path),
                                       "--report", str(tmp_path / "report.csv")])
        assert line == (f"tsgseg: error: {run / 'config.resolved'}: "
                        f"line {at + 1}: unknown key {key!r}")
        assert not (tmp_path / "report.csv").exists()

    def test_eval_on_empty_data_dir(self, tmp_path, tiny_run, capsys):
        data = tmp_path / "empty"
        data.mkdir()
        line = self.run_error(capsys, ["eval", "--ckpt", str(tiny_run / "model.ckpt"),
                                       "--data", str(data),
                                       "--report", str(tmp_path / "report.csv")])
        assert line == f"tsgseg: error: no samples found in {data}"
        assert not (tmp_path / "report.csv").exists()

    def eval_error(self, capsys, tiny_run, data) -> str:
        report = data.parent / "report.csv"
        line = self.run_error(capsys, ["eval", "--ckpt", str(tiny_run / "model.ckpt"),
                                       "--data", str(data), "--report", str(report)])
        assert not report.exists()
        return line

    def test_eval_on_samples_of_wrong_size(self, tmp_path, tiny_run, capsys):
        data = tmp_path / "big"
        data.mkdir()
        for i in range(2):
            save_sample(str(data), i, generate(i, tiny_config(height=16 * (i + 1),
                                                              width=16 * (i + 1))))
        line = self.eval_error(capsys, tiny_run, data)
        assert line == "tsgseg: error: sample 1 is 32x32, model expects 16x16"

    def test_eval_on_samples_of_other_class_count(self, tmp_path, tiny_run, capsys):
        data = tmp_path / "seven"
        data.mkdir()
        save_sample(str(data), 0, generate(0, tiny_config(num_classes=7)))
        line = self.eval_error(capsys, tiny_run, data)
        assert line == "tsgseg: error: sample 0 has 7 classes, model has 4"

    def saved_pair(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for i in range(2):
            save_sample(str(data), i, generate(sample_seed(77, i), tiny_config()))
        return data

    def test_eval_on_truncated_meta(self, tmp_path, tiny_run, capsys):
        data = self.saved_pair(tmp_path)
        meta = data / "sample_0001.json"
        meta.write_text(meta.read_text()[:20])
        line = self.eval_error(capsys, tiny_run, data)
        assert line.startswith(f"tsgseg: error: {meta} is not valid JSON: ")

    @pytest.mark.parametrize("text,cause", [
        ("{}", "'hw' must be two integers, got None"),
        ("[1]", "expected a JSON object, got list"),
        ('{"hw": [64, 64], "objects": [{}]}', "object 0 has no 'kind' of ['ellipse', 'rect']"),
        ('{"hw": [8, 8], "objects": []}', "'hw' is [8, 8], its image is 16x16"),
        # evaluate_model compares num_classes with the model's, so a string
        # or a bool would read as a different count
        ('{"hw": [16, 16], "num_classes": "4", "objects": []}',
         "'num_classes' must be an integer, got '4'"),
        ('{"hw": [16, 16], "num_classes": true, "objects": []}',
         "'num_classes' must be an integer, got True"),
        (_one_object('"kind": "ellipse", "cy": "a", "cx": 2, "ry": 1, "rx": 1'),
         "object 0 (ellipse) 'cy' must be a finite number, got 'a'"),
        (_one_object('"kind": "ellipse", "cy": 2, "cx": 2, "ry": 0, "rx": 1'),
         "object 0 (ellipse) 'ry' must be a positive finite number, got 0"),
        (_one_object('"kind": "rect", "y0": 1.5, "x0": 0, "h": 2, "w": 2'),
         "object 0 (rect) 'y0' must be an integer, got 1.5"),
        # a rect that starts above the image, and one that runs past its edge
        (_one_object('"kind": "rect", "y0": -2, "x0": 0, "h": 4, "w": 2'),
         "object 0 (rect) needs 0 <= y0, h >= 1 and y0 + h <= 16, got y0 = -2, h = 4"),
        (_one_object('"kind": "rect", "y0": 0, "x0": 14, "h": 2, "w": 4'),
         "object 0 (rect) needs 0 <= x0, w >= 1 and x0 + w <= 16, got x0 = 14, w = 4"),
    ])
    def test_eval_on_meta_of_wrong_shape(self, tmp_path, tiny_run, capsys, text, cause):
        data = self.saved_pair(tmp_path)
        meta = data / "sample_0001.json"
        meta.write_text(text)
        line = self.eval_error(capsys, tiny_run, data)
        assert line == f"tsgseg: error: {meta} is not a sample description: {cause}"

    @pytest.mark.parametrize("name,cut", [("sample_0001.ppm", -1), ("sample_0000.pgm", 13)])
    def test_eval_names_a_corrupt_image(self, tmp_path, tiny_run, capsys, name, cut):
        # A truncated image, and a label map cut to its header.
        data = self.saved_pair(tmp_path)
        path = data / name
        path.write_bytes(path.read_bytes()[:cut])
        line = self.eval_error(capsys, tiny_run, data)
        assert line == f"tsgseg: error: {path}: truncated pixel data"

    def test_eval_on_label_outside_class_range(self, tmp_path, tiny_run, capsys):
        data = self.saved_pair(tmp_path)
        labels = read_pgm(str(data / "sample_0000.pgm")).copy()
        labels[0, 0] = 9
        write_pgm(str(data / "sample_0000.pgm"), labels)
        line = self.eval_error(capsys, tiny_run, data)
        assert line == "tsgseg: error: sample 0 has label 9, model has 4 classes"

    def test_eval_on_label_map_of_wrong_size(self, tmp_path, tiny_run, capsys):
        data = self.saved_pair(tmp_path)
        write_pgm(str(data / "sample_0000.pgm"), np.zeros((8, 8), dtype=np.uint8))
        line = self.eval_error(capsys, tiny_run, data)
        assert line == "tsgseg: error: sample 0 label map is 8x8, its image is 16x16"

    def test_gates_sample_of_wrong_size(self, tmp_path, tiny_run, capsys):
        sample = tmp_path / "wide.ppm"
        write_ppm(str(sample), np.zeros((16, 24, 3), dtype=np.uint8))
        line = self.run_error(capsys, ["gates", "--ckpt", str(tiny_run / "model.ckpt"),
                                       "--sample", str(sample),
                                       "--out", str(tmp_path / "gates")])
        assert line == f"tsgseg: error: {sample} is 16x24, model expects 16x16"
        assert not (tmp_path / "gates").exists()

    def test_gates_without_gated_decoder(self, tmp_path, capsys):
        cfg = tiny_config(decoder_fusion="sum")
        (tmp_path / "config.resolved").write_text(format_config(cfg))
        save_model(str(tmp_path / "model.ckpt"), build_model(cfg, cfg.seed, cfg.dtype))
        sample = tmp_path / "sample.ppm"
        write_ppm(str(sample), np.zeros((16, 16, 3), dtype=np.uint8))
        line = self.run_error(capsys, ["gates", "--ckpt", str(tmp_path / "model.ckpt"),
                                       "--sample", str(sample),
                                       "--out", str(tmp_path / "gates")])
        assert line == "tsgseg: error: model has no gated decoder fusion; nothing to dump"
        assert not (tmp_path / "gates").exists()

    def copied_run(self, tmp_path, tiny_run, edit=None, ckpt=None):
        """A copy of ``tiny_run`` with ``edit`` applied to its config text
        and ``ckpt`` as its checkpoint bytes."""
        run = tmp_path / "copy"
        run.mkdir()
        text = (tiny_run / "config.resolved").read_text()
        (run / "config.resolved").write_text(edit(text) if edit else text)
        (run / "model.ckpt").write_bytes(ckpt or (tiny_run / "model.ckpt").read_bytes())
        return run

    def test_eval_on_config_value_out_of_range(self, tmp_path, tiny_run, capsys):
        run = self.copied_run(tmp_path, tiny_run,
                              lambda t: re.sub(r"^steps = \d+$", "steps = 0", t, flags=re.M))
        line = self.eval_error(capsys, run, tmp_path / "data")
        assert line == (f"tsgseg: error: {run / 'config.resolved'}: "
                        f"steps must be positive, got 0")

    def test_train_config_value_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("steps = 0\n")
        line = self.run_error(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "run")])
        assert line == f"tsgseg: error: {path}: steps must be positive, got 0"
        assert not (tmp_path / "run").exists()

    def test_negative_train_seed_with_config(self, tmp_path, tiny_config_file, capsys):
        # the flag's value is not the file's: its error does not name the file
        line = self.run_error(capsys, ["train", "--config", tiny_config_file, "--seed", "-1",
                                       "--out", str(tmp_path / "run")])
        assert line == "tsgseg: error: seed must be non-negative, got -1"

    def test_eval_on_truncated_checkpoint(self, tmp_path, tiny_run, capsys):
        ckpt = (tiny_run / "model.ckpt").read_bytes()[:300]
        run = self.copied_run(tmp_path, tiny_run, ckpt=ckpt)
        line = self.eval_error(capsys, run, tmp_path / "data")
        assert line.startswith(f"tsgseg: error: {run / 'model.ckpt'}: truncated checkpoint "
                               f"while reading ")

    def test_gates_on_checkpoint_of_bad_magic(self, tmp_path, tiny_run, capsys):
        run = self.copied_run(tmp_path, tiny_run, ckpt=b"XXXXXXXX")
        sample = tmp_path / "sample.ppm"
        write_ppm(str(sample), np.zeros((16, 16, 3), dtype=np.uint8))
        line = self.run_error(capsys, ["gates", "--ckpt", str(run / "model.ckpt"),
                                       "--sample", str(sample),
                                       "--out", str(tmp_path / "gates")])
        assert line.startswith(f"tsgseg: error: {run / 'model.ckpt'}: bad magic "
                               f"b'XXXXXXXX'")

    def test_eval_on_checkpoint_of_another_model(self, tmp_path, tiny_run, capsys):
        # the checkpoint is sound, but config.resolved describes another model
        run = self.copied_run(tmp_path, tiny_run,
                              lambda t: t.replace("num_classes = 4\n", "num_classes = 6\n"))
        line = self.eval_error(capsys, run, tmp_path / "data")
        assert line.startswith(f"tsgseg: error: {run / 'model.ckpt'}: parameter ")
        assert "checkpoint shape" in line
        assert line.endswith(f"; the model was built from {run / 'config.resolved'}")

    # the forward overflows, which numpy reports as a RuntimeWarning
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "gates"])
    def test_checkpoint_whose_scores_overflow(self, tmp_path, tiny_run, tiny_config_file,
                                              capsys, command):
        # every value is finite, so load_model takes it, but a single
        # precision forward overflows and the class scores are not finite
        big = {name: a * np.float32(1e30)
               for name, a in load_checkpoint(tiny_run / "model.ckpt").items()}
        save_checkpoint(tmp_path / "big.ckpt", big)
        run = self.copied_run(
            tmp_path, tiny_run, lambda t: t.replace("precision = double", "precision = single"),
            ckpt=(tmp_path / "big.ckpt").read_bytes())
        data = tmp_path / "data"
        assert main(["gen-data", "--seed", "5", "--count", "5",
                     "--out", str(data), "--config", tiny_config_file]) == 0
        if command == "eval":
            line = self.eval_error(capsys, run, data)
        else:
            line = self.run_error(capsys, ["gates", "--ckpt", str(run / "model.ckpt"),
                                           "--sample", str(data / "sample_0000.ppm"),
                                           "--out", str(tmp_path / "gates")])
            assert not (tmp_path / "gates").exists()
        assert line == (f"tsgseg: error: {run / 'model.ckpt'}: the model's class scores "
                        f"are not finite; the model was built from {run / 'config.resolved'}")

    def test_gen_data_seed_beyond_sample_keys(self, tmp_path, capsys):
        # sample 0's key would be seed << 20, and a Philox key is below 2**128
        out = tmp_path / "data"
        line = self.run_error(capsys, ["gen-data", "--seed", str(2**128 - 1), "--count", "1",
                                       "--out", str(out)])
        assert line == (f"tsgseg: error: gen-data: --seed must be <= {2**108 - 1} for "
                        f"--count 1, got {2**128 - 1}")
        assert not out.exists()

    def test_gen_data_largest_seed(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-data", "--seed", str(2**108 - 1), "--count", "1",
                     "--out", str(out)]) == 0
        assert load_sample(str(out), 0).meta["seed"] == 2**128 - 2**20

    def test_train_config_data_seed_beyond_sample_keys(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text(f"data_seed = {2**108}\n")
        line = self.run_error(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "run")])
        assert line == (f"tsgseg: error: {path}: data_seed must be at most {2**108 - 1} "
                        f"for 250 samples, got {2**108}")
        assert not (tmp_path / "run").exists()

    def test_other_errors_keep_their_traceback(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("tsgseg.cli.ablate", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["ablate", "--suite", "tsg-variants", "--out", str(tmp_path)])


class TestArgs:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "required: command" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["train"])
        assert "required: --out" in capsys.readouterr().err


class TestBlasThreads:
    """Importing the package, as the ``tsgseg`` console script does before
    numpy loads, gives BLAS one thread per calling thread unless the
    environment already names a count."""

    def blas_vars(self, **preset) -> list[str]:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(preset, PYTHONPATH=str(SRC))
        script = f"import os, tsgseg; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_unset_counts_become_one(self):
        assert self.blas_vars() == ["1", "1", "1"]

    def test_given_count_kept(self):
        assert self.blas_vars(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]
