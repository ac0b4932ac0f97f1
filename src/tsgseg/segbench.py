"""Synthetic multi-scale segmentation benchmark and metrics.

Samples are procedurally drawn scenes: a textured background (class 0) plus
rectangles and ellipses in class-specific colors, sampled from an explicit
size mixture so that small and large objects both occur. Object geometry is
stored in the per-sample meta, which fully determines the label map: the
rendered labels can be re-derived from meta alone.

Generation is keyed by a counter-based RNG, so a sample's content depends
only on (seed, config), never on how many samples were drawn before it.

The metrics here are plain confusion-matrix IoU plus the per-bucket pixel
masks (pixels owned by small, medium, or large objects) that the
size-bucketed columns of every evaluation report are scored on.
"""

from __future__ import annotations

import colorsys
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RunConfig, sample_seed  # noqa: F401 (re-exported)
from .netpbm import read_pgm, read_ppm, write_pgm, write_ppm

BUCKETS = ("small", "medium", "large")
SMALL_FRAC = 0.03  # object area <= 3% of the image counts as small
LARGE_FRAC = 0.20  # >= 20% counts as large
MAX_RETRIES = 10  # placement attempts per object before it is dropped


@dataclass
class SegSample:
    """One scene, its arrays in the source's dtypes: from ``generate`` a
    float64 image in [0, 1] and int64 labels, from ``load_sample`` the PPM's
    8-bit pixels and the PGM's uint8 labels. ``labels`` holds integers in
    [0, C); ``pixel_values`` gives either image as float64 in [0, 1]."""

    image: np.ndarray  # H x W x 3, float64 or uint8
    labels: np.ndarray  # H x W, int64 or uint8
    meta: dict = field(default_factory=dict)


def pixel_values(image: np.ndarray) -> np.ndarray:
    """An image's float64 values in [0, 1]: 8-bit pixels over 255, and a
    float image as it is."""
    return image.astype(np.float64) / 255.0 if image.dtype == np.uint8 else image


def class_color(cls: int, num_classes: int) -> tuple[float, float, float]:
    """Fixed palette: evenly spaced hues over the object classes."""
    hue = (cls - 1) / max(1, num_classes - 1)
    return colorsys.hsv_to_rgb(hue, 0.65, 0.85)


def _rect_mask(h: int, w: int, obj: dict) -> np.ndarray:
    m = np.zeros((h, w), dtype=bool)
    m[obj["y0"]:obj["y0"] + obj["h"], obj["x0"]:obj["x0"] + obj["w"]] = True
    return m


# The geometry keys ``object_mask`` reads for each object kind.
_SHAPE_KEYS = {"rect": ("y0", "x0", "h", "w"), "ellipse": ("cy", "cx", "ry", "rx")}


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


# What each geometry key must hold for ``object_mask`` to draw it: rect keys
# slice the pixel grid, and ellipse radii divide.
_GEOMETRY_RULES = {
    **dict.fromkeys(_SHAPE_KEYS["rect"], ("an integer", lambda v: type(v) is int)),
    **dict.fromkeys(("cy", "cx"), ("a finite number", _finite)),
    **dict.fromkeys(("ry", "rx"), ("a positive finite number",
                                   lambda v: _finite(v) and v > 0)),
}


def _ellipse_mask(h: int, w: int, obj: dict) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    dy = (yy + 0.5 - obj["cy"]) / obj["ry"]
    dx = (xx + 0.5 - obj["cx"]) / obj["rx"]
    return dy * dy + dx * dx <= 1.0

def object_mask(hw: tuple[int, int], obj: dict) -> np.ndarray:
    """Full (unoccluded) pixel mask of one meta object."""
    if obj["kind"] == "rect":
        return _rect_mask(hw[0], hw[1], obj)
    if obj["kind"] == "ellipse":
        return _ellipse_mask(hw[0], hw[1], obj)
    raise ValueError(f"unknown object kind {obj['kind']!r}")


def area_bucket(pixels: int, hw: tuple[int, int]) -> str:
    frac = pixels / (hw[0] * hw[1])
    if frac <= SMALL_FRAC:
        return "small"
    if frac >= LARGE_FRAC:
        return "large"
    return "medium"


def _draw_object(rng, cfg: RunConfig) -> dict | None:
    """Sample one object's geometry; None when it cannot fit."""
    h, w = cfg.height, cfg.width
    cls = int(rng.integers(1, cfg.num_classes))
    kind = "rect" if rng.random() < 0.5 else "ellipse"
    bucket = BUCKETS[rng.choice(3, p=list(cfg.size_mix))]
    lo, hi = {"small": (0.008, SMALL_FRAC), "medium": (0.06, 0.15),
              "large": (LARGE_FRAC, 0.32)}[bucket]
    area = rng.uniform(lo, hi) * h * w
    aspect = rng.uniform(0.5, 2.0)
    jitter = rng.uniform(-0.08, 0.08, size=3)
    obj = {"kind": kind, "cls": cls}
    if kind == "rect":
        oh = max(2, int(round(np.sqrt(area * aspect))))
        ow = max(2, int(round(np.sqrt(area / aspect))))
        if oh > h or ow > w:
            return None
        obj["y0"] = int(rng.integers(0, h - oh + 1))
        obj["x0"] = int(rng.integers(0, w - ow + 1))
        obj["h"], obj["w"] = oh, ow
        obj["bbox"] = [obj["y0"], obj["x0"], obj["y0"] + oh, obj["x0"] + ow]
    else:
        ry = np.sqrt(area * aspect / np.pi)
        rx = np.sqrt(area / (aspect * np.pi))
        if 2 * ry > h or 2 * rx > w:
            return None
        cy = rng.uniform(ry, h - ry)
        cx = rng.uniform(rx, w - rx)
        obj.update(cy=float(cy), cx=float(cx), ry=float(ry), rx=float(rx))
        obj["bbox"] = [int(np.floor(cy - ry)), int(np.floor(cx - rx)),
                       int(np.ceil(cy + ry)), int(np.ceil(cx + rx))]
    base = class_color(cls, cfg.num_classes)
    obj["color"] = [float(np.clip(base[i] + jitter[i], 0.05, 0.95)) for i in range(3)]
    return obj


def generate(seed: int, cfg: RunConfig) -> SegSample:
    """Render one sample, fully determined by (seed, cfg).

    Larger objects are painted first, so smaller ones stay visible on top;
    the meta object list is stored in paint order (later entries occlude
    earlier ones). Objects that cannot fit after bounded retries are
    dropped and counted in ``meta["dropped"]``.
    """
    h, w = cfg.height, cfg.width
    rng = np.random.Generator(np.random.Philox(key=seed))

    base_gray = rng.uniform(0.15, 0.35)
    grad = rng.uniform(-0.12, 0.12, size=2)
    n_objects = int(rng.integers(cfg.n_objects_min, cfg.n_objects_max + 1))
    objects: list[dict] = []
    dropped = 0
    for _ in range(n_objects):
        obj = None
        for _ in range(MAX_RETRIES):
            obj = _draw_object(rng, cfg)
            if obj is not None:
                break
        if obj is None:
            dropped += 1
        else:
            objects.append(obj)
    pixel_noise = rng.uniform(-cfg.noise, cfg.noise, size=(h, w, 3))

    for obj in objects:
        obj["area"] = int(object_mask((h, w), obj).sum())
        obj["bucket"] = area_bucket(obj["area"], (h, w))
    # Stable sort, largest first: small objects land on top of big ones.
    objects.sort(key=lambda o: -o["area"])

    yy, xx = np.mgrid[0:h, 0:w]
    ramp = (yy / h - 0.5) * grad[0] + (xx / w - 0.5) * grad[1]
    image = np.repeat((base_gray + ramp)[:, :, None], 3, axis=2)
    labels = np.zeros((h, w), dtype=np.int64)
    for obj in objects:
        m = object_mask((h, w), obj)
        labels[m] = obj["cls"]
        image[m] = obj["color"]
    image = np.clip(image + pixel_noise, 0.0, 1.0)

    meta = {
        "seed": int(seed), "hw": [h, w], "num_classes": cfg.num_classes,
        "objects": objects, "dropped": dropped,
    }
    return SegSample(image=image, labels=labels, meta=meta)


def id_map(meta: dict) -> np.ndarray:
    """Topmost-object index per pixel (1-based; 0 = background)."""
    h, w = meta["hw"]
    ids = np.zeros((h, w), dtype=np.int64)
    for i, obj in enumerate(meta["objects"]):
        ids[object_mask((h, w), obj)] = i + 1
    return ids


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """C x C counts, rows = ground truth, columns = prediction."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    p = np.asarray(pred).ravel()
    g = np.asarray(gt).ravel()
    if p.size and (p.min() < 0 or p.max() >= num_classes or g.min() < 0
                   or g.max() >= num_classes):
        raise ValueError("labels outside [0, num_classes)")
    # in int64: from 17 classes on, a uint8 label map's g * C + p would wrap
    counts = np.bincount(g.astype(np.int64) * num_classes + p,
                         minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def iou_from_confusion(counts: np.ndarray) -> tuple[list, float]:
    """Per-class IoU (None where the class never occurs) and their mean."""
    tp = np.diag(counts).astype(np.int64)
    union = counts.sum(axis=0) + counts.sum(axis=1) - tp
    per_class: list = []
    defined = []
    for c in range(counts.shape[0]):
        if union[c] == 0:
            per_class.append(None)
        else:
            v = float(tp[c] / union[c])
            per_class.append(v)
            defined.append(v)
    mean = float(np.mean(defined)) if defined else float("nan")
    return per_class, mean


def bucket_masks(meta: dict) -> dict[str, np.ndarray]:
    """Pixel masks owned by the topmost object of each size bucket."""
    ids = id_map(meta)
    buckets = {b: np.zeros(ids.shape, dtype=bool) for b in BUCKETS}
    for i, obj in enumerate(meta["objects"]):
        buckets[obj["bucket"]] |= ids == i + 1
    return buckets


def patch_labels(labels: np.ndarray, patch: int, num_classes: int) -> np.ndarray:
    """Majority pixel label per patch cell, ties to the lowest class index."""
    h, w = labels.shape
    if h % patch or w % patch:
        raise ValueError(f"labels {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    cells = labels.reshape(gh, patch, gw, patch).transpose(0, 2, 1, 3)
    cells = cells.reshape(gh * gw, patch * patch)
    counts = np.zeros((gh * gw, num_classes), dtype=np.int64)
    rows = np.repeat(np.arange(gh * gw), patch * patch)
    np.add.at(counts, (rows, cells.ravel()), 1)
    return np.argmax(counts, axis=1).reshape(gh, gw)


def save_sample(out_dir: str, index: int, sample: SegSample) -> None:
    """Write the sample's PPM, PGM and JSON files; 8-bit pixels are written
    as they are, and float pixels in [0, 1] rounded to 8 bits."""
    stem = os.path.join(out_dir, f"sample_{index:04d}")
    image = sample.image
    if image.dtype != np.uint8:
        image = np.round(image * 255.0).astype(np.uint8)
    write_ppm(stem + ".ppm", image)
    if sample.labels.max() > 255:
        raise ValueError("labels do not fit an 8-bit PGM")
    write_pgm(stem + ".pgm", sample.labels.astype(np.uint8))
    with open(stem + ".json", "w") as fh:
        json.dump(sample.meta, fh, indent=1)


def load_sample(dir_path: str, index: int) -> SegSample:
    stem = os.path.join(dir_path, f"sample_{index:04d}")
    image = read_ppm(stem + ".ppm")
    labels = read_pgm(stem + ".pgm")
    with open(stem + ".json") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{stem}.json is not valid JSON: {exc}") from None
    _check_meta(meta, stem + ".json", image.shape[:2])
    return SegSample(image=image, labels=labels, meta=meta)


def _check_meta(meta, path: str, image_hw: tuple[int, int]) -> None:
    """Raise ``ConfigError`` naming ``path`` unless ``meta`` is an object
    like the one ``save_sample`` writes: an ``hw`` of the image's two sizes,
    an integer ``num_classes`` if it has one, and an ``objects`` list whose
    entries hold every key ``object_mask`` and ``bucket_masks`` read, with
    geometry ``object_mask`` can draw and, for a rect, wholly inside the
    image."""
    def error(msg: str) -> ConfigError:
        return ConfigError(f"{path} is not a sample description: {msg}")

    if not isinstance(meta, dict):
        raise error(f"expected a JSON object, got {type(meta).__name__}")
    hw = meta.get("hw")
    if not (isinstance(hw, list) and len(hw) == 2
            and all(type(n) is int for n in hw)):
        raise error(f"'hw' must be two integers, got {hw!r}")
    if "num_classes" in meta and type(meta["num_classes"]) is not int:
        raise error(f"'num_classes' must be an integer, got {meta['num_classes']!r}")
    objects = meta.get("objects")
    if not isinstance(objects, list):
        raise error(f"'objects' must be a list, got {objects!r}")
    for i, obj in enumerate(objects):
        if not isinstance(obj, dict) or obj.get("kind") not in _SHAPE_KEYS:
            raise error(f"object {i} has no 'kind' of {sorted(_SHAPE_KEYS)}")
        if obj.get("bucket") not in BUCKETS:
            raise error(f"object {i} has no 'bucket' of {list(BUCKETS)}")
        missing = [k for k in _SHAPE_KEYS[obj["kind"]] if k not in obj]
        if missing:
            raise error(f"object {i} ({obj['kind']}) lacks {missing}")
        for key in _SHAPE_KEYS[obj["kind"]]:
            need, ok = _GEOMETRY_RULES[key]
            if not ok(obj[key]):
                raise error(f"object {i} ({obj['kind']}) '{key}' must be {need}, "
                            f"got {obj[key]!r}")
        if obj["kind"] == "rect":
            for start, size, n in (("y0", "h", image_hw[0]), ("x0", "w", image_hw[1])):
                lo, span = obj[start], obj[size]
                if not (lo >= 0 and span >= 1 and lo + span <= n):
                    raise error(f"object {i} (rect) needs 0 <= {start}, {size} >= 1 and "
                                f"{start} + {size} <= {n}, got {start} = {lo}, "
                                f"{size} = {span}")
    if tuple(hw) != tuple(image_hw):
        raise error(f"'hw' is {hw}, its image is {image_hw[0]}x{image_hw[1]}")


def count_samples(dir_path: str) -> int:
    """Number of sample images ``save_sample`` wrote: four digits, or more
    without a leading zero from index 10000 on."""
    return len([n for n in os.listdir(dir_path)
                if re.fullmatch(r"sample_(\d{4}|[1-9]\d{4,})\.ppm", n)])
