"""Seeded benchmark inputs: terrain images, dust patches and a foreign PNG encoder.

The terrain and patch recipes are the ones the test suite's desk corpus uses
(``make_clean_image`` / ``make_dust_patches`` in ``tests/conftest.py``),
restated here so the benchmark does not import the test package.

``write_filtered_png`` is an encoder independent of ``marsdust.pngio``: it
writes 8-bit RGB with a PNG filter type (0 None, 1 Sub, 2 Up, 3 Average,
4 Paeth) chosen per scanline by libpng's default heuristic, so the decoder's
unfiltering paths see the mix that libpng-written files carry.  ``marsdust``
itself only ever writes filter type 0.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from marsdust.noise import PerlinParams, perlin2d
from marsdust.raster import Image
from marsdust.rng import mix64


def make_clean_image(seed: int, width: int, height: int) -> Image:
    """Procedural Mars-like terrain: fine relief, warm tint, deep shadows."""
    base = perlin2d(PerlinParams(40.0, 4, 2.0, 0.55, mix64(seed, 1)), width, height).values
    fine = perlin2d(PerlinParams(5.0, 2, 2.0, 0.6, mix64(seed, 2)), width, height).values
    shadows = perlin2d(PerlinParams(12.0, 2, 2.0, 0.5, mix64(seed, 3)), width, height).values
    relief = np.clip(1.9 * (fine - 0.5) + 0.5, 0.0, 1.0)
    t = np.clip(0.45 * base + 0.75 * relief - 0.1, 0.0, 1.0)
    img = np.stack([0.18 + 0.74 * t, 0.10 + 0.55 * t, 0.05 + 0.38 * t], axis=-1)
    lit = np.clip((shadows - 0.38) / 0.14, 0.0, 1.0)
    img *= (0.06 + 0.94 * lit)[:, :, None]
    np.clip(img, 0.0, 1.0, out=img)
    return Image(img)


def make_dust_patches(seed: int, count: int = 6, size: int = 32) -> list[Image]:
    """Bright, low-contrast tiles imitating heavy-dust image regions."""
    patches = []
    for k in range(count):
        tint = perlin2d(PerlinParams(16.0, 2, 2.0, 0.5, mix64(seed, 10 + k)), size, size).values
        level = 0.72 + 0.12 * tint
        img = np.stack([level, 0.80 * level, 0.62 * level], axis=-1)
        patches.append(Image(np.clip(img, 0.0, 1.0)))
    return patches


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _residuals(samples: np.ndarray) -> np.ndarray:
    """The filtered bytes of every row under each of the five PNG filters.

    Returns uint8 of shape (5, height, width * channels), indexed by filter type.
    """
    height, width, channels = samples.shape
    bpp = channels
    raw = samples.reshape(height, width * channels).astype(np.int16)
    left = np.zeros_like(raw)
    left[:, bpp:] = raw[:, :-bpp]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    upleft = np.zeros_like(raw)
    upleft[1:, bpp:] = raw[:-1, :-bpp]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    predictors = np.stack((np.zeros_like(raw), left, up, (left + up) // 2, paeth))
    return ((raw - predictors) % 256).astype(np.uint8)


def adaptive_filters(residuals: np.ndarray) -> np.ndarray:
    """Per-row filter types chosen as libpng does by default.

    libpng tries all five filters on each row and keeps the one whose
    filtered bytes, read as signed, have the smallest sum of absolute values;
    a tie goes to the lower filter type.
    """
    signed_abs = np.minimum(residuals, 256 - residuals.astype(np.int32))
    return np.argmin(signed_abs.sum(axis=2, dtype=np.int64), axis=0)


def write_filtered_png(path: Path, samples: np.ndarray) -> np.ndarray:
    """Write uint8 RGB samples as a PNG with libpng's per-row filter choice.

    Returns the filter type used for each row.
    """
    height, width, channels = samples.shape
    if samples.dtype != np.uint8 or channels != 3:
        raise ValueError("write_filtered_png takes uint8 RGB samples")
    residuals = _residuals(samples)
    filters = adaptive_filters(residuals)
    scanlines = np.empty((height, 1 + width * channels), dtype=np.uint8)
    scanlines[:, 0] = filters
    scanlines[:, 1:] = residuals[filters, np.arange(height)]
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    idat = zlib.compress(scanlines.tobytes(), 6)
    Path(path).write_bytes(
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )
    return filters
