"""Versioned little-endian checkpoint files.

Layout:
    magic       8 bytes  b"S2MOECKP"
    version     u32
    config      u32 length + utf-8 key=value text
    step        u64      (completed optimizer steps)
    rng states  u32 count 0; an older file's states (per state: u16 name
                length + name, u64 seed, u64 counter) are read and dropped,
                because a resume derives both streams from the seed and step
    tensors     u32 count, then per tensor: u16 name length + name,
                u8 dtype code (0 = f32, 1 = f64), u8 ndim, u32 dims,
                raw little-endian data

Saving the result of a load reproduces the file byte for byte (less an
older file's rng states), and a save replaces the file at its path atomically.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"S2MOECKP"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@dataclass
class Checkpoint:
    config_text: str
    step: int
    tensors: list[tuple[str, np.ndarray]]           # insertion order preserved


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    config_bytes = ckpt.config_text.encode("utf-8")
    parts.append(struct.pack("<I", len(config_bytes)))
    parts.append(config_bytes)
    parts.append(struct.pack("<Q", ckpt.step))
    parts.append(struct.pack("<I", 0))  # no rng states

    parts.append(struct.pack("<I", len(ckpt.tensors)))
    for name, arr in ckpt.tensors:
        nb = name.encode("utf-8")
        code = _CODE_FOR[np.dtype(arr.dtype)]
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<BB", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())

    # write beside the target and rename over it: a failed write leaves the
    # previous file at ``path`` untouched
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n):
        nonlocal off
        chunk = blob[off: off + n]
        if len(chunk) != n:
            raise ValueError(f"checkpoint '{path}' truncated at offset {off}")
        off += n
        return chunk

    if take(8) != MAGIC:
        raise ValueError(f"'{path}' is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise ValueError(f"checkpoint version {version} not supported (want {VERSION})")
    (clen,) = struct.unpack("<I", take(4))
    config_text = take(clen).decode("utf-8")
    (step,) = struct.unpack("<Q", take(8))

    (n_rng,) = struct.unpack("<I", take(4))
    for _ in range(n_rng):
        (nlen,) = struct.unpack("<H", take(2))
        take(nlen + 16)

    (n_tensors,) = struct.unpack("<I", take(4))
    tensors = []
    for _ in range(n_tensors):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8")
        code, ndim = struct.unpack("<BB", take(2))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if code not in _DTYPE_CODES:
            raise ValueError(f"checkpoint '{path}' tensor '{name}' has unknown dtype code {code}")
        dtype = _DTYPE_CODES[code]
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(take(count * dtype.itemsize), dtype=dtype).reshape(shape)
        tensors.append((name, arr.copy()))
    if off != len(blob):
        raise ValueError(f"checkpoint '{path}' has {len(blob) - off} trailing bytes")
    return Checkpoint(config_text=config_text, step=step, tensors=tensors)


def apply_tensors(named_params: list[tuple[str, "np.ndarray"]], ckpt: Checkpoint) -> None:
    """Copy checkpoint tensors into named tensors, validating names and shapes."""
    stored = dict(ckpt.tensors)
    for name, tensor in named_params:
        if name not in stored:
            raise ValueError(f"checkpoint missing tensor '{name}'")
        arr = stored[name]
        if tuple(arr.shape) != tuple(tensor.data.shape):
            raise ValueError(
                f"shape mismatch for '{name}': checkpoint {tuple(arr.shape)} vs model {tuple(tensor.data.shape)}")
        tensor.data = arr.astype(tensor.data.dtype, copy=True)
