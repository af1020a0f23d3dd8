"""Flat binary container for named float64 arrays.

Layout: magic bytes ``POET``, a little-endian u32 version, then one record
per array: u32 name length, UTF-8 name, u32 rank, u32 dims, raw little-endian
float64 data. Write order follows the given mapping's iteration order, so a
deterministic caller produces byte-identical files.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Mapping

import numpy as np

MAGIC = b"POET"
VERSION = 1


class ContainerError(ValueError):
    pass


def save_arrays(path: str, arrays: Mapping[str, np.ndarray]) -> None:
    """Write the container beside ``path`` under a temporary name, then rename it over ``path``.

    A write that fails partway leaves any earlier file at ``path`` as it was
    and removes the temporary file.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            for name, arr in arrays.items():
                arr = np.asarray(arr, dtype="<f8")  # ascontiguousarray would promote rank 0 to rank 1
                if not arr.flags.c_contiguous:
                    arr = np.ascontiguousarray(arr)
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_arrays(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ContainerError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported container version {version}")
        out: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(4)
            if not head:
                return out
            if len(head) < 4:
                raise ContainerError(f"{path}: truncated record header")
            (name_len,) = struct.unpack("<I", head)
            encoded = _read_exact(fh, name_len, path, f"the name of record {len(out)}")
            try:
                name = encoded.decode("utf-8")
            except UnicodeDecodeError:
                raise ContainerError(f"{path}: the name of record {len(out)} is not UTF-8: {encoded[:64]!r}") from None
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, f"rank of {name!r}"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, f"dims of {name!r}"))
            raw = _read_exact(fh, 8 * math.prod(shape), path, f"data of {name!r}")
            out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    """n bytes from fh, or ContainerError when the file is shorter, found before anything is read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ContainerError(f"{path}: truncated while reading {what} ({n} bytes, {left} left in the file)")
    return fh.read(n)
