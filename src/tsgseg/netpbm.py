"""Binary netpbm readers and writers (P6 color, P5 grayscale, maxval 255)."""

from __future__ import annotations

import numpy as np


class NetpbmError(Exception):
    pass


def write_ppm(path, image: np.ndarray) -> None:
    """Write an H x W x 3 uint8 array as binary PPM."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise NetpbmError(f"PPM needs uint8 H x W x 3, got {arr.dtype} {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an H x W uint8 array as binary PGM."""
    arr = np.asarray(gray)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise NetpbmError(f"PGM needs uint8 H x W, got {arr.dtype} {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


def _read(path, magic: bytes, channels: int) -> np.ndarray:
    """Header, then exactly the pixel bytes it announces; sizes are checked
    against the bytes in the file before the array is built. Every error
    starts with ``path``."""
    def error(msg: str) -> NetpbmError:
        return NetpbmError(f"{path}: {msg}")

    with open(path, "rb") as fh:
        if fh.read(2) != magic:
            raise error(f"bad magic, expected {magic.decode()}")
        fields: list[bytes] = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise error("truncated header")
            fields.extend(line.split(b"#", 1)[0].split())
        raw = fh.read()
    if not all(tok.isdigit() for tok in fields[:3]):
        raise error(f"header sizes must be non-negative integers, got {fields[:3]}")
    w, h, maxval = (int(tok) for tok in fields[:3])
    if maxval != 255:
        raise error(f"unsupported maxval {maxval}")
    if w < 1 or h < 1:
        raise error(f"image size {w}x{h} must be positive")
    need = w * h * channels
    if len(raw) < need:
        raise error("truncated pixel data")
    shape = (h, w, channels) if channels > 1 else (h, w)
    return np.frombuffer(raw[:need], dtype=np.uint8).reshape(shape)


def read_ppm(path) -> np.ndarray:
    return _read(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    return _read(path, b"P5", 1)
