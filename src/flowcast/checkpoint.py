"""Flat binary container of named float64 arrays.

Format (all integers little-endian):

    magic   8 bytes  b"FLOWCKP1"
    count   uint32   number of entries
    entry*  uint16 name length | name (UTF-8) | uint8 ndim |
            uint32 per dimension | float64 little-endian data, row-major

The same container carries model parameters, optimizer state
(``adam.m.<name>``, ``adam.v.<name>``, ``adam.step`` ...), normalization
statistics and the node embedding table, so evaluation can rebuild the
model from the checkpoint alone. The layout is stable across versions.
Writes go to a temporary file in the target's directory that then
replaces the target, so a crash mid-save leaves the previous file intact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_arrays", "load_arrays", "CheckpointError"]

MAGIC = b"FLOWCKP1"


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write(tmp, arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write(path: Path, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        fh.flush()
        os.fsync(fh.fileno())


def load_arrays(path) -> dict[str, np.ndarray]:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    pos = 8
    try:
        (count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            if pos + name_len > len(blob):
                raise ValueError("name cut short")
            try:
                name = blob[pos : pos + name_len].decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry name at byte {pos} is not UTF-8") from None
            pos += name_len
            (ndim,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, pos) if ndim else ()
            pos += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(blob, dtype="<f8", count=n, offset=pos)
            pos += 8 * n
            if name in arrays:
                raise CheckpointError(f"{path}: duplicate entry {name!r}")
            arrays[name] = data.astype(np.float64).reshape(shape)
    except CheckpointError:
        raise
    except (struct.error, ValueError) as err:  # ValueError: array cut short
        raise CheckpointError(f"{path}: truncated checkpoint") from err
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes")
    return arrays
