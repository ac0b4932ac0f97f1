"""The bits that larger evaluation chunks rely on.

``predict_labels`` scores ``images_per_forward`` images per full forward:
8 float32 images up to 64 px and float64 ones up to 32 px, 4 otherwise, on
any number of CPUs. The images past the last full chunk go in chunks of 4,
as they always did. So each image must get the class scores that chunks
of 4 give it, and at 64 px those of a forward over the image alone. And a
loaded sample's 8-bit pixels must reach the model as the float64 values
``load_sample`` used to hold."""

import functools

import numpy as np
import pytest

from tsgseg import cpus
from tsgseg.config import resolve_config
from tsgseg.model import SegModel, build_model
from tsgseg.segbench import SegSample, generate, pixel_values, sample_seed
from tsgseg.tensor import Tensor, no_grad
from tsgseg.train import EVAL_CHUNK, _images, images_per_forward, predict_labels


@pytest.mark.parametrize("workers", [1, 2, 4, 16])
def test_images_per_forward_is_the_same_on_any_cpu_count(monkeypatch, workers):
    # 16, 32, 64 and 128 px, each in float32 and float64
    monkeypatch.setattr(cpus, "_POOL_WORKERS", workers)
    assert [images_per_forward(resolve_config("desk", {"height": size, "width": size,
                                                        "precision": precision}))
            for size in (16, 32, 64, 128)
            for precision in ("single", "double")] == [8, 8, 8, 8, 8, 4, 4, 4]


@functools.lru_cache(maxsize=None)
def scored_case(size: int, precision: str):
    """A desk model with its weights moved off their initial values, 16
    generated images of ``size`` px, and each image's scores from a forward
    of one."""
    cfg = resolve_config("desk", {"precision": precision, "height": size, "width": size})
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(5)
    for p in model.parameters():  # break the near-uniform fresh-model scores
        p.data += (0.2 * rng.standard_normal(p.shape)).astype(p.data.dtype)
    images = np.stack([generate(sample_seed(11, i), cfg).image for i in range(16)])
    with no_grad():
        alone = np.concatenate([model(Tensor(images[i:i + 1], dtype=cfg.dtype)).scores.data
                                for i in range(len(images))])
    return model, images, alone


def chunk_scores(model, images, k: int) -> np.ndarray:
    with no_grad():
        return np.concatenate([model(Tensor(images[lo:lo + k], dtype=model.cfg.dtype))
                               .scores.data for lo in range(0, len(images), k)])


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_k_image_forwards_score_as_one_image_forwards(precision, k):
    model, images, alone = scored_case(64, precision)
    assert np.array_equal(chunk_scores(model, images, k), alone)


@pytest.mark.parametrize("size, precision, forwards", [
    (16, "single", [8, 4, 1]), (16, "double", [8, 4, 1]), (32, "double", [8, 4, 2]),
    (64, "single", [8, 4, 2]), (64, "double", [4, 4, 4, 2])])
def test_predict_labels_scores_as_chunks_of_four(monkeypatch, size, precision, forwards):
    # a full chunk and a partial one; at 16 px one forward over the 5 images
    # past the full chunk of 8 would score otherwise than 4 and 1 do
    model, images, _ = scored_case(size, precision)
    images = images[:sum(forwards)]
    want = chunk_scores(model, images, EVAL_CHUNK)
    seen, forward = [], SegModel.__call__

    def recorded(self, image, forced_gates=None):
        result = forward(self, image, forced_gates)
        seen.append(result.scores.data)
        return result

    monkeypatch.setattr(cpus, "_POOL_WORKERS", 1)  # chunks in order
    monkeypatch.setattr(SegModel, "__call__", recorded)
    predict_labels(model, [SegSample(image, np.zeros(image.shape[:2], np.int64))
                           for image in images])
    assert [len(scores) for scores in seen] == forwards
    assert np.array_equal(np.concatenate(seen), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loaded_pixels_batch_as_the_float64_values(dtype):
    # every 8-bit value in every channel, as the PPM holds them and as
    # ``load_sample`` held them before it kept the 8-bit pixels
    pixels = np.arange(16 * 16 * 3, dtype=np.int64).reshape(16, 16, 3) % 256
    pixels = np.stack([pixels, pixels[::-1]]).astype(np.uint8)
    as_float = pixels.astype(np.float64) / 255.0
    loaded = [SegSample(image, np.zeros((16, 16), np.uint8)) for image in pixels]
    floated = [SegSample(image, np.zeros((16, 16), np.int64)) for image in as_float]
    got, want = _images(loaded, dtype).data, _images(floated, dtype).data
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)
    assert np.array_equal(pixel_values(pixels), as_float)
    assert pixel_values(as_float) is as_float
