"""Image container plus codec I/O, patch extraction and augmentation.

An Image wraps a read-only float64 array shaped (height, width, channels)
with channel-interleaved samples in [0, 1]; channels is 1 or 3.  All
operations are pure and return new Images.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, ValidationError
from .pngio import read_png, write_png


@dataclass(frozen=True)
class Image:
    """Immutable raster; samples live in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValidationError(f"image array must be 2-D or 3-D, got ndim={arr.ndim}")
        height, width, channels = arr.shape
        if channels not in (1, 3):
            raise ValidationError(f"channel count must be 1 or 3, got {channels}")
        if height < 1 or width < 1:
            raise ValidationError(f"image dimensions must be >= 1, got {width}x{height}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("image contains non-finite samples")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValidationError(
                f"samples outside [0, 1]: min={arr.min():g} max={arr.max():g}"
            )
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class PatchRegion:
    """Axis-aligned rectangle, offsets from the top-left pixel."""

    x0: int
    y0: int
    width: int
    height: int


def list_pngs(directory) -> list[Path]:
    """The PNG files in ``directory`` (suffix matched in any case), sorted."""
    return sorted(p for p in Path(directory).iterdir() if p.suffix.lower() == ".png")


def load_image(path) -> Image:
    """Load an 8- or 16-bit gray/RGB PNG, scaling samples to [0, 1]."""
    samples, depth = read_png(path)
    maxval = 255.0 if depth == 8 else 65535.0
    return Image(samples.astype(np.float64) / maxval)


def save_image(img: Image, path, bit_depth: int = 8) -> None:
    """Quantize (round-half-up) and write a PNG decodable by load_image."""
    if bit_depth not in (8, 16):
        raise ValidationError(f"bit_depth must be 8 or 16, got {bit_depth}")
    maxval = 255 if bit_depth == 8 else 65535
    q = np.floor(img.data * maxval + 0.5)
    q = q.astype(np.uint8 if bit_depth == 8 else np.uint16)
    write_png(path, q, bit_depth)


def crop_patch(img: Image, region: PatchRegion) -> Image:
    """Copy a rectangular window out of the image."""
    x0, y0, w, h = region.x0, region.y0, region.width, region.height
    if w < 1 or h < 1:
        raise BoundsError(f"patch dims must be >= 1, got {w}x{h}")
    if x0 < 0 or y0 < 0 or x0 + w > img.width or y0 + h > img.height:
        raise BoundsError(
            f"region (x0={x0}, y0={y0}, {w}x{h}) outside image {img.width}x{img.height}"
        )
    return Image(img.data[y0 : y0 + h, x0 : x0 + w].copy())


def augment(img: Image, rot90: int = 0, hflip: bool = False) -> Image:
    """Rotate by rot90 quarter turns counter-clockwise, then flip left-right.

    Pure pixel permutation: the multiset of sample values is preserved.
    """
    if rot90 not in (0, 1, 2, 3):
        raise ValidationError(f"rot90 must be in 0..3, got {rot90}")
    out = np.rot90(img.data, rot90, axes=(0, 1))
    if hflip:
        out = out[:, ::-1, :]
    return Image(out.copy())
