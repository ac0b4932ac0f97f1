"""Training loop, evaluation, gate-map export, and ablation suites.

Runs are driven by a RunConfig. Every run directory receives the resolved
config, a metrics CSV (one row per evaluation interval), and the final
checkpoint, and double-precision runs with equal seeds reproduce all three
byte for byte.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import numpy as np

from .checkpoint import CheckpointError, load_model, save_model
from .config import ConfigError, RunConfig, format_config, read_config, resolve_config
from .decoder import labels_to_mask
from .model import SegModel, build_model, check_precision
from .netpbm import read_ppm, write_pgm
from .optim import AdamW, poly_lr
from .segbench import (
    BUCKETS,
    SegSample,
    confusion_matrix,
    count_samples,
    generate,
    iou_from_confusion,
    load_sample,
    bucket_masks,
    patch_labels,
    sample_seed,
)
from .tensor import Tensor, cross_entropy, no_grad


class TrainAbort(RuntimeError):
    pass


METRICS_HEADER = "step,lr,loss,mIoU"
ABLATE_HEADER = "model,seed,mIoU,small,medium,large"
# Images per forward when scoring without gradients: a whole batch per
# graph, small enough that evaluation never holds more than a training step.
EVAL_CHUNK = 4


def build_split(cfg: RunConfig, split: str) -> list[SegSample]:
    """Deterministic train/val samples; val indices follow the train block."""
    if split == "train":
        lo, hi = 0, cfg.train_samples
    elif split == "val":
        lo, hi = cfg.train_samples, cfg.train_samples + cfg.val_samples
    else:
        raise ValueError(f"unknown split {split!r}")
    return [generate(sample_seed(cfg.data_seed, i), cfg) for i in range(lo, hi)]


def _param_norm_table(model: SegModel) -> str:
    lines = ["parameter norms:"]
    for name, p in model.named_parameters():
        lines.append(f"  {name}  l2={float(np.linalg.norm(p.data)):.6g}")
    return "\n".join(lines)


def _images(samples: list[SegSample], dtype) -> Tensor:
    """One (B, H, W, 3) batch; samples of different sizes cannot share one."""
    sizes = sorted({s.image.shape for s in samples})
    if len(sizes) > 1:
        raise ValueError(f"images of sizes {sizes} cannot be scored together")
    return Tensor(np.stack([s.image for s in samples]), dtype=dtype)


def _chunks(items: list) -> list[list]:
    return [items[lo:lo + EVAL_CHUNK] for lo in range(0, len(items), EVAL_CHUNK)]


def predict_labels(model: SegModel, samples: list[SegSample]) -> np.ndarray:
    """Each sample's (N,) patch labels: the highest-scoring class, ties to the
    lowest class index. Images are scored at the model's precision,
    EVAL_CHUNK at a time, without recording a graph."""
    dtype = model.cfg.dtype
    with no_grad():
        return np.concatenate([np.argmax(model(_images(chunk, dtype)).scores.data, axis=-1)
                               for chunk in _chunks(samples)])


def patch_accuracy(model: SegModel, samples, labels_flat, dtype) -> float:
    """Share of patches labeled right; ``dtype`` must be the model's."""
    check_precision(model.cfg, dtype, "patch_accuracy")
    pred = predict_labels(model, samples)
    return int((pred == np.stack(labels_flat)).sum()) / pred.size


def evaluate_model(model: SegModel, samples: list[SegSample], dtype) -> dict:
    """Pixel-level metrics over a sample list (confusions summed, then IoU).

    Size buckets aggregate the bucket-restricted confusion counts across
    samples before the IoU division. Labels come from ``predict_labels``;
    ``dtype`` must be the model's.
    """
    check_precision(model.cfg, dtype, "evaluate_model")
    if not samples:
        raise ValueError("evaluate: empty dataset")
    c = model.cfg.num_classes
    for i, sample in enumerate(samples):
        if sample.meta.get("num_classes", c) != c:
            raise ConfigError(
                f"sample {i} has {sample.meta['num_classes']} classes, model has {c}")
        top = int(sample.labels.max())
        if top >= c:
            raise ConfigError(f"sample {i} has label {top}, model has {c} classes")
    total = np.zeros((c, c), dtype=np.int64)
    per_bucket = {b: np.zeros((c, c), dtype=np.int64) for b in BUCKETS}
    for sample, labels in zip(samples, predict_labels(model, samples)):
        mask = labels_to_mask(labels, model.target_grid, sample.labels.shape)
        total += confusion_matrix(mask, sample.labels, c)
        for bucket, bmask in bucket_masks(sample.meta).items():
            if bmask.any():
                per_bucket[bucket] += confusion_matrix(
                    mask[bmask], sample.labels[bmask], c
                )
    per_class, mean = iou_from_confusion(total)
    report = {"mIoU": mean, "per_class": per_class}
    for bucket, conf in per_bucket.items():
        if conf.sum() == 0:
            report[bucket] = None
        else:
            report[bucket] = iou_from_confusion(conf)[1]
    return report


def train_run(cfg: RunConfig, out_dir) -> tuple[SegModel, dict]:
    """Train per config; write config.resolved, metrics.csv, model.ckpt.

    Each step sends its whole batch through one graph; a flipped draw mirrors
    the image and its patch-label grid, which keeps every patch's pixels and
    so its majority label. The validation report of the last step, which
    always evaluates, is the summary's report.
    """
    os.makedirs(out_dir, exist_ok=True)
    dtype = cfg.dtype
    model = build_model(cfg, seed=cfg.seed)
    train_samples = build_split(cfg, "train")
    val_samples = build_split(cfg, "val")
    grids = [patch_labels(s.labels, cfg.patch_size, cfg.num_classes)
             for s in train_samples]
    labels_flat = [grid.ravel() for grid in grids]
    opt = AdamW(model.named_parameters(), weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)

    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        fh.write(format_config(cfg))

    rows = [METRICS_HEADER]
    loss_history: list[float] = []
    for step in range(cfg.steps):
        lr = poly_lr(step, cfg.steps, cfg.lr0, cfg.poly_power)
        idx = rng.integers(0, len(train_samples), size=cfg.batch_size)
        images, labels = [], []
        for i in idx:
            image, grid = train_samples[i].image, grids[i]
            if cfg.flip and rng.random() < 0.5:
                image, grid = image[:, ::-1], grid[:, ::-1]
            images.append(image)
            labels.append(grid)
        loss = cross_entropy(model(Tensor(np.stack(images), dtype=dtype)).scores,
                             np.stack(labels).reshape(len(idx), -1))
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            table = _param_norm_table(model)
            report_path = os.path.join(out_dir, "abort_report.txt")
            with open(report_path, "w") as fh:
                fh.write(f"non-finite loss at step {step}, "
                         f"batch indices {list(map(int, idx))}\n{table}\n")
            print(table, file=sys.stderr)
            raise TrainAbort(
                f"non-finite loss at step {step} "
                f"(batch indices {list(map(int, idx))}); see {report_path}"
            )
        loss_history.append(loss_value)
        loss.backward()
        opt.step(lr)
        # freed before the next forward: a 128x128 step that kept them
        # through it could land in a heap mode about 35 MB higher
        opt.zero_grad()
        if (step + 1) % cfg.eval_interval == 0 or step + 1 == cfg.steps:
            report = evaluate_model(model, val_samples, dtype)
            rows.append(f"{step + 1},{lr!r},{loss_value!r},{report['mIoU']!r}")

    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    save_model(ckpt_path, model)
    summary = {
        "final_loss": loss_history[-1], "loss_history": loss_history,
        "report": report, "ckpt": ckpt_path,
        "train_samples": train_samples, "val_samples": val_samples,
        "labels_flat": labels_flat, "dtype": dtype,
    }
    return model, summary


def _load_run_model(ckpt_path) -> tuple[SegModel, RunConfig]:
    cfg_path = os.path.join(os.path.dirname(os.path.abspath(ckpt_path)),
                            "config.resolved")
    if not os.path.exists(cfg_path):
        raise FileNotFoundError(
            f"no config.resolved next to {ckpt_path}; cannot rebuild the model"
        )
    cfg = read_config(cfg_path)
    model = build_model(cfg, seed=cfg.seed)
    try:
        load_model(ckpt_path, model)
    except CheckpointError as exc:
        raise CheckpointError(f"{exc}; the model was built from {cfg_path}") from None
    return model, cfg


def _check_image_size(cfg: RunConfig, image: np.ndarray, name: str) -> None:
    h, w = image.shape[:2]
    if (h, w) != (cfg.height, cfg.width):
        raise ConfigError(f"{name} is {h}x{w}, model expects {cfg.height}x{cfg.width}")


def evaluate_checkpoint(ckpt_path, data_dir, report_path) -> dict:
    """CLI eval: restore a run's model, score a saved dataset, write CSV."""
    model, cfg = _load_run_model(ckpt_path)
    n = count_samples(data_dir)
    if n == 0:
        raise ConfigError(f"no samples found in {data_dir}")
    samples = [load_sample(data_dir, i) for i in range(n)]
    for i, sample in enumerate(samples):  # evaluate_model checks the classes
        _check_image_size(cfg, sample.image, f"sample {i}")
        (lh, lw), (h, w) = sample.labels.shape, sample.image.shape[:2]
        if (lh, lw) != (h, w):
            raise ConfigError(f"sample {i} label map is {lh}x{lw}, its image is {h}x{w}")
    report = evaluate_model(model, samples, cfg.dtype)
    lines = ["metric,value", f"mIoU,{report['mIoU']!r}"]
    for c, iou in enumerate(report["per_class"]):
        lines.append(f"iou_class_{c},{'' if iou is None else repr(iou)}")
    for bucket in BUCKETS:
        v = report[bucket]
        lines.append(f"iou_{bucket},{'' if v is None else repr(v)}")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return report


def dump_gates(ckpt_path, sample_path, out_dir) -> list[str]:
    """Write per-block gate maps for one image.

    For each decoder block after the first: one PGM per scale with gray
    value round(255 * gate), one PGM of the per-patch argmax scale (gray
    levels spread over [0, 255]), and one CSV of the raw gate rows.
    """
    model, cfg = _load_run_model(ckpt_path)
    if cfg.decoder_fusion != "tsg" or cfg.decoder_blocks < 2:
        raise ConfigError("model has no gated decoder fusion; nothing to dump")
    image = read_ppm(sample_path).astype(np.float64) / 255.0
    _check_image_size(cfg, image, str(sample_path))
    with no_grad():
        res = model(Tensor(image, dtype=cfg.dtype))
    os.makedirs(out_dir, exist_ok=True)
    gh, gw = model.target_grid
    written: list[str] = []
    for b, gates in enumerate(res.decoder_gates, start=2):
        g = gates.gates.data
        s_count = g.shape[-1]
        for s in range(s_count):
            path = os.path.join(out_dir, f"gates_block{b}_scale{s + 1}.pgm")
            write_pgm(path, np.round(255.0 * g[:, s]).astype(np.uint8).reshape(gh, gw))
            written.append(path)
        argmax = np.argmax(g, axis=1).reshape(gh, gw)
        levels = np.round(np.linspace(0, 255, s_count)).astype(np.uint8)
        path = os.path.join(out_dir, f"gates_block{b}_argmax.pgm")
        write_pgm(path, levels[argmax])
        written.append(path)
        path = os.path.join(out_dir, f"gates_block{b}.csv")
        with open(path, "w") as fh:
            fh.write("patch," + ",".join(f"scale_{s + 1}" for s in range(s_count)) + "\n")
            for n in range(g.shape[0]):
                fh.write(f"{n}," + ",".join(repr(float(v)) for v in g[n]) + "\n")
        written.append(path)
    return written


def _variant(encoder: str, decoder: str, single_stage: int | None = None,
             shared_tsg: bool = False) -> dict:
    return {"encoder_fusion": encoder, "decoder_fusion": decoder,
            "single_stage": single_stage, "shared_tsg": shared_tsg}


# Each ablation variant, by its results.csv name: the fusion settings it
# overrides on the run's base config. Every variant sets all four, so a base
# override of any of them cannot turn one variant into another.
VARIANTS = {
    "tsg": _variant("tsg", "tsg"),
    "tsg_shared": _variant("tsg", "tsg", shared_tsg=True),
    "fpn_sum": _variant("fpn", "sum"),
    "plain_sum": _variant("none", "sum"),
    "tsge_only": _variant("tsg", "sum"),
    "tsgd_only": _variant("none", "tsg"),
    **{f"single_scale_{k}": _variant("single", "sum", single_stage=k) for k in (1, 2, 3)},
}

# Each ablation suite: the VARIANTS it runs, in results.csv order.
SUITES = {
    "components": ["plain_sum", "fpn_sum", "tsge_only", "tsgd_only", "tsg"],
    "scales": ["single_scale_1", "single_scale_2", "single_scale_3", "plain_sum", "tsg"],
    "tsg-variants": ["tsg", "tsg_shared"],
}

ABLATE_STEPS = 300


def ablate(suite: str, out_dir, seeds=(0, 1, 2), steps: int | None = None,
           overrides: dict | None = None) -> list[dict]:
    """Train/evaluate the suite's model grid; write one summary CSV.

    Every run's config is built, and so checked, before the first run
    starts. ``seeds`` must be non-empty and free of repeats, since each
    seed names a run directory. ``steps`` defaults to ABLATE_STEPS.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from {sorted(SUITES)})")
    seeds = [int(seed) for seed in seeds]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"ablate: seeds must be a non-empty list without repeats, "
                         f"got {seeds}")
    if steps is None:
        steps = ABLATE_STEPS
    base = resolve_config("desk", overrides or {})
    # eval_interval = steps: final evaluation only
    runs = [(name, seed, replace(base, seed=seed, precision="single", steps=steps,
                                 eval_interval=steps, **VARIANTS[name]))
            for name in SUITES[suite] for seed in seeds]
    os.makedirs(out_dir, exist_ok=True)
    results: list[dict] = []
    lines = [ABLATE_HEADER]
    for name, seed, cfg in runs:
        _, summary = train_run(cfg, os.path.join(out_dir, f"{name}_seed{seed}"))
        report = summary["report"]
        results.append({"model": name, "seed": seed, "mIoU": report["mIoU"],
                        **{b: report[b] for b in BUCKETS}})
        lines.append(
            f"{name},{seed},{report['mIoU']!r},"
            + ",".join("" if report[b] is None else repr(report[b]) for b in BUCKETS)
        )
    with open(os.path.join(out_dir, "results.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return results
