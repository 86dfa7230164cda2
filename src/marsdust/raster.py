"""Image container plus PNG load/save and directory listing.

An Image wraps a read-only float64 array shaped (height, width, channels)
with channel-interleaved samples in [0, 1]; channels is 1 or 3.  All
operations are pure and return new Images.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .pngio import read_png, write_png


# Values per row band: one float64 band is 128 KiB, which keeps a band's
# working set in L2 (swept 4K-64K on 512x512 fields: flat from 8K to 32K).
BAND_VALUES = 16_384


def row_bands(height: int, row_values: int) -> list[slice]:
    """Whole-row slices of about BAND_VALUES values each (one row at least).
    The quantizer, the blend, its inverse and Perlin octaves walk them over a
    flat (height, width * channels) view, so each temporary holds one band."""
    step = max(1, BAND_VALUES // row_values)
    return [slice(y, min(y + step, height)) for y in range(0, height, step)]


@dataclass(frozen=True)
class Image:
    """Immutable raster; samples live in [0, 1]."""

    data: np.ndarray

    _CHANNELS = (1, 3)  # channel counts accepted; noise.NoiseField narrows it to (1,)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValidationError(f"image array must be 2-D or 3-D, got ndim={arr.ndim}")
        height, width, channels = arr.shape
        if channels not in self._CHANNELS:
            raise ValidationError(
                f"channel count must be {' or '.join(map(str, self._CHANNELS))}, got {channels}"
            )
        if height < 1 or width < 1:
            raise ValidationError(f"image dimensions must be >= 1, got {width}x{height}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # also false for NaN and +-inf
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


def list_pngs(directory) -> list[Path]:
    """The PNG files in ``directory`` (suffix matched in any case), sorted;
    a directory without one, or a blank name, is a ValidationError."""
    if not str(directory).strip():  # Path("") would list the working directory
        raise ValidationError("directory name is blank")
    paths = sorted(p for p in Path(directory).iterdir() if p.suffix.lower() == ".png")
    if not paths:
        raise ValidationError(f"no PNG images found in {directory}")
    return paths


def load_image(path) -> Image:
    """Load an 8- or 16-bit gray/RGB PNG, scaling samples to [0, 1]."""
    samples, depth = read_png(path)
    data = samples.astype(np.float64)
    data /= 255.0 if depth == 8 else 65535.0
    return Image(data)


def save_image(img: Image, path, bit_depth: int = 8) -> None:
    """Quantize (round-half-up, band by band through one float buffer) and
    write a PNG decodable by load_image."""
    if bit_depth not in (8, 16):
        raise ValidationError(f"bit_depth must be 8 or 16, got {bit_depth}")
    maxval = 255 if bit_depth == 8 else 65535
    flat = img.data.reshape(img.height, -1)
    samples = np.empty(flat.shape, np.uint8 if bit_depth == 8 else np.uint16)
    bands = row_bands(*flat.shape)
    buf = np.empty_like(flat[bands[0]])
    for band in bands:
        q = np.multiply(flat[band], maxval, out=buf[: band.stop - band.start])
        q += 0.5
        samples[band] = np.floor(q, out=q)
    write_png(path, samples.reshape(img.data.shape), bit_depth)
