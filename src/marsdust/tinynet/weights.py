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
from pathlib import Path

import numpy as np

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
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise WeightsFormatError(f"{self.path}: truncated file while reading {what}")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_weights(path) -> dict[str, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise WeightsFormatError(f"cannot read weights file {path}: {exc}") from exc
    r = _Reader(blob, path)
    if r.take(4, "magic") != MAGIC:
        raise WeightsFormatError(f"{path}: bad magic; not a weights file")
    version = r.u32("version")
    if version != VERSION:
        raise WeightsFormatError(f"{path}: unsupported format version {version}")
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = r.u32(f"name length of tensor {i}")
        try:
            name = r.take(name_len, f"name of tensor {i}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightsFormatError(f"{path}: tensor {i} name is not UTF-8") from exc
        if name in tensors:
            raise WeightsFormatError(f"{path}: duplicate tensor name {name!r}")
        rank = r.u32(f"rank of {name}")
        if rank > 8:
            raise WeightsFormatError(f"{path}: implausible rank {rank} for {name}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"dims of {name}"))
        payload = r.take(4 * math.prod(dims), f"values of {name}")  # Python ints: no wrap
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
        tensors[name] = arr
    if r.pos != len(blob):
        raise WeightsFormatError(f"{path}: {len(blob) - r.pos} trailing bytes after last tensor")
    return tensors
