"""Versioned binary checkpoints.

Layout: the magic string ``TSGCKPT1``, then one record per parameter in
name order: name length (u64 LE), UTF-8 name, rank (u64 LE), one u64 LE per
dimension, then the values as little-endian float32, row-major. Values are
stored at float32 regardless of the training dtype, so a double-precision
model round-trips bit-identically only after its first save/load.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"TSGCKPT1"


class CheckpointError(Exception):
    pass


def save_checkpoint(path, named_arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for name in sorted(named_arrays):
            # np.ascontiguousarray would widen rank-0 arrays to rank 1
            arr = np.asarray(named_arrays[name], dtype="<f4", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def _error(path, msg: str) -> CheckpointError:
    return CheckpointError(f"{path}: {msg}")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into read-only views of the file's bytes. Every
    header length is checked against the bytes left before any allocation.
    Every error starts with ``path``."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:len(MAGIC)] != MAGIC:
        raise _error(path, f"bad magic {bytes(data[:len(MAGIC)])!r}: not a checkpoint or "
                           f"unsupported version")
    pos = len(MAGIC)

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(data) - pos:
            raise _error(path, f"truncated checkpoint while reading {what}")
        pos += n
        return data[pos - n:pos]

    def u64s(count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}Q", take(8 * count, what))

    out: dict[str, np.ndarray] = {}
    while pos < len(data):
        (name_len,) = u64s(1, "name length")
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise _error(path, f"parameter name is not UTF-8: {exc}") from None
        if name in out:
            raise _error(path, f"parameter {name!r} is stored twice")
        (rank,) = u64s(1, f"rank of {name}")
        dims = u64s(rank, f"dims of {name}")
        raw = take(4 * math.prod(dims), f"values of {name}")
        try:
            out[name] = np.frombuffer(raw, dtype="<f4").reshape(dims)
        except (ValueError, OverflowError) as exc:  # empty arrays with huge dims
            raise _error(path, f"bad dims {dims} of {name}: {exc}") from None
    return out


def save_model(path, model) -> None:
    save_checkpoint(path, {name: p.data for name, p in model.named_parameters()})


def load_model(path, model) -> None:
    """Write checkpoint values into same-named model parameters, in place.

    The file and the model must carry the same parameter names; mismatches
    either way are named. Each value is copied once, cast to its array's
    dtype; nothing is written unless every name, shape and array checks out
    and every value is finite. Every error starts with ``path``.
    """
    stored = load_checkpoint(path)
    params = dict(model.named_parameters())
    unknown = sorted(set(stored) - set(params))
    if unknown:
        raise _error(path, f"checkpoint has unknown parameters: {unknown}")
    missing = sorted(set(params) - set(stored))
    if missing:
        raise _error(path, f"checkpoint is missing parameters: {missing}")
    for name, arr in stored.items():
        p = params[name]
        if arr.shape != p.shape:
            raise _error(path, f"parameter {name!r}: checkpoint shape {arr.shape} vs "
                               f"model {p.shape}")
        if not p.data.flags.writeable:
            raise _error(path, f"parameter {name!r}: its array is read-only")
        if not np.isfinite(arr).all():
            raise _error(path, f"parameter {name!r}: holds a non-finite value")
    for name, arr in stored.items():
        np.copyto(params[name].data, arr)
