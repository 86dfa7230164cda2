"""Binary file format of model weights: named float32 tensors, in order.

Layout (all integers little-endian):

    magic "MDW1" | u32 version=1 | u32 tensor_count
    per tensor: u32 name_len | name UTF-8 | u32 rank | u32 dims[rank]
                | prod(dims) float32 values, C order

No padding anywhere.  Values are stored (and held in memory) as float32, so
save followed by load is bit-identical.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..atomic import read_input, write_atomic
from ..errors import WeightsFormatError

MAGIC = b"MDW1"
VERSION = 1


def save_weights(weights: dict[str, np.ndarray], path) -> None:
    """Write the tensors in the dict's order."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(weights))]
    for name, arr in weights.items():
        raw = np.asarray(arr, dtype="<f4", order="C")  # keeps 0-d tensors 0-d
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", raw.ndim))
        parts.append(struct.pack(f"<{raw.ndim}I", *raw.shape))
        parts.append(raw.tobytes())
    write_atomic(path, parts)


def load_weights(path) -> dict[str, np.ndarray]:
    blob = read_input(path, WeightsFormatError)
    pos = 0

    def take(n: int, fmt: str, what: str) -> tuple:
        """Unpack ``n`` items of ``fmt`` at the read position and move past them."""
        nonlocal pos
        end = pos + n * struct.calcsize(f"<{fmt}")
        if end > len(blob):
            raise WeightsFormatError(f"{path}: truncated file while reading {what}")
        start, pos = pos, end
        return struct.unpack_from(f"<{n}{fmt}", blob, start)

    if take(4, "s", "magic") != (MAGIC,):
        raise WeightsFormatError(f"{path}: bad magic; not a weights file")
    (version,) = take(1, "I", "version")
    if version != VERSION:
        raise WeightsFormatError(f"{path}: unsupported format version {version}")
    (count,) = take(1, "I", "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = take(1, "I", f"name length of tensor {i}")
        try:
            name = take(name_len, "s", f"name of tensor {i}")[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightsFormatError(f"{path}: tensor {i} name is not UTF-8") from exc
        if name in tensors:
            raise WeightsFormatError(f"{path}: duplicate tensor name {name!r}")
        (rank,) = take(1, "I", f"rank of {name}")
        if rank > 8:
            raise WeightsFormatError(f"{path}: implausible rank {rank} for {name}")
        dims = take(rank, "I", f"dims of {name}")
        n = math.prod(dims)  # Python ints: no wrap
        take(4 * n, "x", f"values of {name}")  # pad bytes: the bounds check alone
        try:  # a zero dim lets the others be too large for numpy to address
            tensors[name] = np.frombuffer(blob, "<f4", n, pos - 4 * n).reshape(dims).astype(np.float32)
        except ValueError as exc:
            raise WeightsFormatError(f"{path}: cannot shape {name} as {dims} ({exc})") from exc
    if pos != len(blob):
        raise WeightsFormatError(f"{path}: {len(blob) - pos} trailing bytes after last tensor")
    return tensors
