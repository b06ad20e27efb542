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
older file's rng states), and a save replaces the file at its path atomically
(``replacing``, the one rule for every file a run replaces). Neither side
holds the file in memory: a save writes each header and then the tensor's own
buffer, and a load reads each payload once into a new array and seeks past
the tensors its caller did not ask for. Tensor names are unique within a file.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Collection, Iterator
from contextlib import contextmanager
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
    tensors: list[tuple[str, np.ndarray]]           # file order preserved


@contextmanager
def replacing(path: str) -> Iterator[str]:
    """``path.tmp`` for the block to write, renamed over ``path`` when the block
    ends cleanly and removed when it or the rename fails; a stale one (a killed
    run's, perhaps a hard link to another file) is removed first."""
    tmp = f"{path}.tmp"
    if os.path.lexists(tmp):
        os.remove(tmp)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path``, streaming each tensor's own buffer after its header."""
    names = set()
    for name, _ in ckpt.tensors:
        if name in names:
            raise ValueError(f"checkpoint '{path}' names tensor '{name}' twice")
        names.add(name)
    config_bytes = ckpt.config_text.encode("utf-8")
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(config_bytes)) + config_bytes
                 + struct.pack("<QII", ckpt.step, 0, len(ckpt.tensors)))  # no rng states
        for name, arr in ckpt.tensors:
            nb = name.encode("utf-8")
            code = _CODE_FOR[np.dtype(arr.dtype)]
            fh.write(struct.pack("<H", len(nb)) + nb
                     + struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape))
            # a 0-d array comes back 1-d here; the header above keeps its own shape
            fh.write(memoryview(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])).cast("B"))


def load_checkpoint(path: str, names: Collection[str] | None = None) -> Checkpoint:
    """Read ``path`` front to back, each kept payload straight into its own array.

    With ``names``, only those tensors are kept; every other payload is
    skipped by a seek, after the same bounds check a kept one gets. A file
    that names a tensor twice is refused, even where both are skipped.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def truncated(at):
            return ValueError(f"checkpoint '{path}' truncated at offset {at}")

        def take(n):
            at = fh.tell()
            chunk = fh.read(n)
            if len(chunk) != n:
                raise truncated(at)
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
        tensors, seen = [], set()
        for _ in range(n_tensors):
            (nlen,) = struct.unpack("<H", take(2))
            name = take(nlen).decode("utf-8")
            if name in seen:
                raise ValueError(f"checkpoint '{path}' names tensor '{name}' twice")
            seen.add(name)
            code, ndim = struct.unpack("<BB", take(2))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            if code not in _DTYPE_CODES:
                raise ValueError(f"checkpoint '{path}' tensor '{name}' has unknown dtype code {code}")
            dtype = _DTYPE_CODES[code]
            at = fh.tell()
            nbytes = math.prod(shape) * dtype.itemsize
            if at + nbytes > size:
                raise truncated(at)
            if names is None or name in names:
                arr = np.empty(shape, dtype=dtype)
                if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                    raise truncated(at)
                tensors.append((name, arr))
            else:
                fh.seek(nbytes, os.SEEK_CUR)
        if fh.tell() != size:
            raise ValueError(f"checkpoint '{path}' has {size - fh.tell()} trailing bytes")
    return Checkpoint(config_text=config_text, step=step, tensors=tensors)


def apply_tensors(named_params: list[tuple[str, "np.ndarray"]], ckpt: Checkpoint) -> None:
    """Set each named tensor's data to the checkpoint's array of that name,
    validating names and shapes.

    The arrays are adopted, not copied (one is converted only if its dtype
    differs), and Adam updates parameters and moments in place: pass a
    checkpoint fresh from ``load_checkpoint``, whose arrays nothing else holds.
    """
    stored = dict(ckpt.tensors)
    for name, tensor in named_params:
        if name not in stored:
            raise ValueError(f"checkpoint missing tensor '{name}'")
        arr = stored[name]
        if tuple(arr.shape) != tuple(tensor.data.shape):
            raise ValueError(
                f"shape mismatch for '{name}': checkpoint {tuple(arr.shape)} vs model {tuple(tensor.data.shape)}")
        tensor.data = arr.astype(tensor.data.dtype, copy=False)
