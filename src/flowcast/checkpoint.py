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

import math
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
    """The named arrays of a checkpoint file, each entry read from the file
    straight into its own array."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ValueError("cut short")
            return data

        try:
            (count,) = struct.unpack("<I", take(4))
            arrays: dict[str, np.ndarray] = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", take(2))
                pos = fh.tell()
                try:
                    name = take(name_len).decode("utf-8")
                except UnicodeDecodeError:
                    raise CheckpointError(
                        f"{path}: entry name at byte {pos} is not UTF-8"
                    ) from None
                (ndim,) = struct.unpack("<B", take(1))
                shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
                n = math.prod(shape)
                if 8 * n > size - fh.tell():  # refused before allocating
                    raise ValueError("array cut short")
                data = np.empty(n, dtype="<f8")
                if fh.readinto(data) != 8 * n:
                    raise ValueError("array cut short")
                if name in arrays:
                    raise CheckpointError(f"{path}: duplicate entry {name!r}")
                arrays[name] = data.astype(np.float64, copy=False).reshape(shape)
        except CheckpointError:
            raise
        except (struct.error, ValueError) as err:
            raise CheckpointError(f"{path}: truncated checkpoint") from err
        trailing = size - fh.tell()
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes")
    return arrays
