"""Synthetic dataset and metrics. Label maps are re-derived from sample
meta by a per-pixel rasterizer, and IoU numbers by per-pixel counting."""

import os

import numpy as np
import pytest

import oracles
from tsgseg.config import ConfigError, RunConfig
from tsgseg.segbench import (
    BUCKETS,
    SegSample,
    area_bucket,
    bucket_masks,
    class_color,
    confusion_matrix,
    count_samples,
    generate,
    id_map,
    iou_from_confusion,
    load_sample,
    object_mask,
    patch_labels,
    pixel_values,
    sample_seed,
    save_sample,
)

CFG = RunConfig(height=32, width=32, num_classes=4)


def miou(pred, gt, num_classes):
    """Per-class IoU and mean IoU the way every report computes them."""
    return iou_from_confusion(confusion_matrix(pred, gt, num_classes))


def bucket_ious(pred, gt, meta):
    """Mean IoU over each size bucket's pixels, as evaluation reports it;
    None for empty buckets."""
    out = {}
    for bucket, mask in bucket_masks(meta).items():
        out[bucket] = miou(pred[mask], gt[mask], meta["num_classes"])[1] if mask.any() else None
    return out


class TestGenerate:
    def test_deterministic(self):
        a = generate(7, CFG)
        b = generate(7, CFG)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.image, b.image)
        assert a.meta == b.meta

    def test_seeds_differ(self):
        a, b = generate(1, CFG), generate(2, CFG)
        assert not np.array_equal(a.labels, b.labels) or a.meta != b.meta

    def test_ranges(self):
        s = generate(3, CFG)
        assert s.image.shape == (32, 32, 3)
        assert s.labels.shape == (32, 32)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert s.labels.min() >= 0 and s.labels.max() < CFG.num_classes
        assert s.meta["hw"] == [32, 32]

    def test_meta_rederives_labels(self):
        # The stored geometry fully determines the mask: an independent
        # per-pixel point-in-object scan must reproduce it exactly.
        for seed in range(6):
            s = generate(seed, CFG)
            np.testing.assert_array_equal(s.labels,
                                          oracles.rasterize_labels(s.meta))

    def test_small_and_large_objects_occur(self):
        seen = set()
        for seed in range(40):
            s = generate(seed, CFG)
            seen |= {o["bucket"] for o in s.meta["objects"]}
        assert {"small", "large"} <= seen

    def test_later_objects_never_larger(self):
        for seed in range(10):
            areas = [o["area"] for o in generate(seed, CFG).meta["objects"]]
            assert areas == sorted(areas, reverse=True)

    def test_object_count_range(self):
        for seed in range(10):
            s = generate(seed, CFG)
            n = len(s.meta["objects"]) + s.meta["dropped"]
            lo, hi = CFG.n_objects_min, CFG.n_objects_max
            assert lo <= n <= hi

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="num_classes"):
            RunConfig(num_classes=1)
        with pytest.raises(ConfigError, match="size_mix"):
            RunConfig(size_mix=(0.5, 0.5, 0.5))


class TestSampleSeed:
    def test_disjoint_streams(self):
        seeds = {sample_seed(base, i) for base in (0, 1, 7) for i in range(1000)}
        assert len(seeds) == 3000

    def test_order(self):
        assert sample_seed(0, 5) == 5
        assert sample_seed(1, 0) == 1 << 20


class TestIdMap:
    def test_matches_pointwise_scan(self):
        for seed in (0, 4, 9):
            meta = generate(seed, CFG).meta
            np.testing.assert_array_equal(id_map(meta),
                                          oracles.topmost_ids(meta))

    def test_hand_case(self):
        meta = {"hw": [4, 4], "objects": [
            {"kind": "rect", "cls": 1, "y0": 0, "x0": 0, "h": 4, "w": 4},
            {"kind": "rect", "cls": 2, "y0": 1, "x0": 1, "h": 2, "w": 2},
        ]}
        ids = id_map(meta)
        assert ids[0, 0] == 1 and ids[1, 1] == 2 and ids[2, 2] == 2


class TestConfusion:
    def test_matches_counting_reference(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, size=(9, 9))
        gt = rng.integers(0, 4, size=(9, 9))
        np.testing.assert_array_equal(confusion_matrix(pred, gt, 4),
                                      oracles.confusion(pred, gt, 4))

    def test_uint8_labels_count_as_int64(self):
        # a loaded sample's label map is the PGM's uint8: g * C + p must not
        # wrap at 256
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 200, size=(16, 16))
        gt = rng.integers(0, 200, size=(16, 16))
        want = confusion_matrix(pred, gt, 200)
        np.testing.assert_array_equal(confusion_matrix(pred, gt.astype(np.uint8), 200), want)
        np.testing.assert_array_equal(
            confusion_matrix(pred.astype(np.uint8), gt.astype(np.uint8), 200), want)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros((2, 2)), np.zeros((2, 3)), 2)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([5]), np.array([0]), 3)


class TestMiou:
    def test_perfect_prediction(self):
        gt = np.array([[0, 1], [2, 0]])
        per_class, mean = miou(gt, gt, 3)
        assert per_class == [1.0, 1.0, 1.0] and mean == 1.0

    def test_hand_overlap(self):
        # class 1: intersection 1, union 3 -> 1/3; class 0: 1/3 as well
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 1])
        per_class, mean = miou(pred, gt, 2)
        np.testing.assert_allclose(per_class, [1 / 3, 1 / 3])
        np.testing.assert_allclose(mean, 1 / 3)

    def test_absent_class_excluded(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        per_class, mean = miou(pred, gt, 5)
        assert per_class[0] == 1.0 and per_class[1] == 1.0
        assert per_class[2] is None and per_class[4] is None
        assert mean == 1.0

    def test_false_positive_defines_class(self):
        gt = np.array([0, 0])
        pred = np.array([0, 3])
        per_class, mean = miou(pred, gt, 4)
        assert per_class[3] == 0.0
        np.testing.assert_allclose(mean, (0.5 + 0.0) / 2)

    def test_matches_counting_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            pred = rng.integers(0, 3, size=40)
            gt = rng.integers(0, 3, size=40)
            got_pc, got_mean = miou(pred, gt, 4)
            ref_pc, ref_mean = oracles.miou(pred, gt, 4)
            for a, b in zip(got_pc, ref_pc):
                if b is None:
                    assert a is None
                else:
                    np.testing.assert_allclose(a, b)
            np.testing.assert_allclose(got_mean, ref_mean)

    def test_iou_from_confusion_empty(self):
        per_class, mean = iou_from_confusion(np.zeros((3, 3), dtype=np.int64))
        assert per_class == [None, None, None]
        assert np.isnan(mean)


class TestSizeBuckets:
    def test_area_bucket_boundaries(self):
        hw = (100, 100)
        assert area_bucket(300, hw) == "small"
        assert area_bucket(301, hw) == "medium"
        assert area_bucket(1999, hw) == "medium"
        assert area_bucket(2000, hw) == "large"

    def test_bucket_masks_respect_occlusion(self):
        meta = {"hw": [10, 10], "num_classes": 3, "objects": [
            {"kind": "rect", "cls": 1, "y0": 0, "x0": 0, "h": 5, "w": 5,
             "bucket": "large", "area": 25},
            {"kind": "rect", "cls": 2, "y0": 0, "x0": 0, "h": 2, "w": 2,
             "bucket": "small", "area": 4},
        ]}
        masks = bucket_masks(meta)
        assert masks["small"].sum() == 4
        assert masks["large"].sum() == 21  # occluded corner excluded
        assert masks["medium"].sum() == 0

    def test_hand_scores(self):
        meta = {"hw": [10, 10], "num_classes": 3, "objects": [
            {"kind": "rect", "cls": 1, "y0": 0, "x0": 0, "h": 5, "w": 5,
             "bucket": "large", "area": 25},
            {"kind": "rect", "cls": 2, "y0": 8, "x0": 8, "h": 2, "w": 2,
             "bucket": "small", "area": 4},
        ]}
        gt = oracles.rasterize_labels(meta)
        pred = gt.copy()
        pred[8:10, 8:10] = 0  # erase the small object entirely
        scores = bucket_ious(pred, gt, meta)
        assert scores["large"] == 1.0
        assert scores["small"] == 0.0
        assert scores["medium"] is None

    def test_generated_sample_consistency(self):
        s = generate(11, CFG)
        scores = bucket_ious(s.labels, s.labels, s.meta)
        for b in BUCKETS:
            assert scores[b] is None or scores[b] == 1.0
        present = {o["bucket"] for o in s.meta["objects"]}
        for b in present:
            assert scores[b] == 1.0


class TestPatchLabels:
    def test_majority_vote(self):
        labels = np.array([
            [1, 1, 0, 0],
            [1, 0, 0, 0],
            [2, 2, 1, 1],
            [2, 2, 1, 1],
        ])
        got = patch_labels(labels, 2, 3)
        np.testing.assert_array_equal(got, [[1, 0], [2, 1]])

    def test_tie_goes_to_lowest(self):
        labels = np.array([[0, 2], [2, 0]])
        np.testing.assert_array_equal(patch_labels(labels, 2, 3), [[0]])

    def test_divisibility(self):
        with pytest.raises(ValueError):
            patch_labels(np.zeros((5, 4), dtype=np.int64), 2, 2)

    @pytest.mark.parametrize("size", [64, 128])
    def test_mirror_commutes(self, size):
        # A flipped training draw mirrors the patch-label grid instead of
        # re-deriving it from the mirrored label map.
        cfg = RunConfig(height=size, width=size)
        for seed in range(4):
            labels = generate(seed, cfg).labels
            np.testing.assert_array_equal(
                patch_labels(labels[:, ::-1], cfg.patch_size, cfg.num_classes),
                patch_labels(labels, cfg.patch_size, cfg.num_classes)[:, ::-1])


class TestStorage:
    def test_roundtrip(self, tmp_path):
        s = generate(13, CFG)
        save_sample(str(tmp_path), 0, s)
        save_sample(str(tmp_path), 1, generate(14, CFG))
        loaded = load_sample(str(tmp_path), 0)
        np.testing.assert_array_equal(loaded.labels, s.labels)
        assert loaded.labels.dtype == np.uint8  # as the PGM stores them
        assert loaded.image.dtype == np.uint8  # as the PPM stores them
        np.testing.assert_array_equal(loaded.image, np.round(s.image * 255))
        assert np.max(np.abs(pixel_values(loaded.image) - s.image)) <= 0.5 / 255 + 1e-12
        assert loaded.meta == s.meta
        assert count_samples(str(tmp_path)) == 2

    def test_saving_a_loaded_sample_writes_the_same_files(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        save_sample(str(first), 0, generate(13, CFG))
        save_sample(str(second), 0, load_sample(str(first), 0))
        for ext in (".ppm", ".pgm", ".json"):
            name = "sample_0000" + ext
            assert (second / name).read_bytes() == (first / name).read_bytes(), ext

    def test_count_includes_five_digit_indices(self, tmp_path):
        s = generate(13, CFG)
        for i in (0, 1, 10000):
            save_sample(str(tmp_path), i, s)
        assert sorted(os.listdir(tmp_path))[-1] == "sample_10000.ppm"
        (tmp_path / "sample_00002.ppm").write_bytes(b"")  # no index writes this name
        assert count_samples(str(tmp_path)) == 3

    def test_colors_distinct(self):
        colors = [class_color(c, 5) for c in range(1, 5)]
        for i in range(len(colors)):
            for j in range(i + 1, len(colors)):
                assert max(abs(a - b) for a, b in zip(colors[i], colors[j])) > 0.05

    def test_object_mask_unknown_kind(self):
        with pytest.raises(ValueError):
            object_mask((4, 4), {"kind": "triangle"})
