"""Deterministic multi-octave 2-D Perlin noise.

Classic lattice gradient noise with the quintic fade 6t^5 - 15t^4 + 10t^3.
Octave o samples at pixel coordinates scaled by lacunarity**o / scale and is
weighted by persistence**o; the weighted sum is mapped affinely from
[-sum(persistence**o), +sum(persistence**o)] to [0, 1] and clamped.

Every octave hashes lattice corners through its own 256-entry permutation
table built by rng.shuffled(list(range(256)), mix64(seed, octave)), and
gradients come from the fixed 8-direction set below indexed by (hash & 7).
This makes fields a pure, reproducible function of (params, width, height).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import mix64, shuffled, splitmix64_at, u01

_GRADS = np.array(
    [[1, 1], [-1, 1], [1, -1], [-1, -1], [1, 0], [-1, 0], [0, 1], [0, -1]],
    dtype=np.float64,
)


@dataclass(frozen=True)
class PerlinParams:
    """Noise shape controls: lattice cell size, octave count, per-octave scaling."""

    scale: float
    octaves: int
    lacunarity: float
    persistence: float
    seed: int

    def __post_init__(self):
        if not self.scale > 0:
            raise ValidationError(f"scale must be > 0, got {self.scale}")
        if self.octaves < 1:
            raise ValidationError(f"octaves must be >= 1, got {self.octaves}")
        if not self.lacunarity > 1:
            raise ValidationError(f"lacunarity must be > 1, got {self.lacunarity}")
        if not 0 < self.persistence <= 1:
            raise ValidationError(
                f"persistence must be in (0, 1], got {self.persistence}"
            )


@dataclass(frozen=True)
class NoiseField:
    """Read-only single-channel raster with values in [0, 1] (Perlin fields and
    transmission maps alike)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"field must be 2-D and non-empty, got {arr.shape}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # also rejects NaN
            raise ValidationError("field values outside [0, 1]")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _raw_octave(fx: np.ndarray, fy: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Single-octave Perlin over coordinate grids; zero at integer lattice points."""
    xi = np.floor(fx).astype(np.int64)
    yi = np.floor(fy).astype(np.int64)
    xf = fx - xi
    yf = fy - yi

    def corner_hash(ix, iy):
        return table[(table[ix & 255] + (iy & 255)) & 255] & 7

    h00 = corner_hash(xi, yi)
    h10 = corner_hash(xi + 1, yi)
    h01 = corner_hash(xi, yi + 1)
    h11 = corner_hash(xi + 1, yi + 1)

    n00 = _GRADS[h00, 0] * xf + _GRADS[h00, 1] * yf
    n10 = _GRADS[h10, 0] * (xf - 1.0) + _GRADS[h10, 1] * yf
    n01 = _GRADS[h01, 0] * xf + _GRADS[h01, 1] * (yf - 1.0)
    n11 = _GRADS[h11, 0] * (xf - 1.0) + _GRADS[h11, 1] * (yf - 1.0)

    u = _fade(xf)
    v = _fade(yf)
    top = n00 + u * (n10 - n00)
    bot = n01 + u * (n11 - n01)
    return top + v * (bot - top)


def perlin2d(params: PerlinParams, width: int, height: int) -> NoiseField:
    """Generate a multi-octave field; deterministic in (params, width, height)."""
    if width < 1 or height < 1:
        raise ValidationError(f"field dimensions must be >= 1, got {width}x{height}")
    xs = np.arange(width, dtype=np.float64)[None, :]
    ys = np.arange(height, dtype=np.float64)[:, None]
    total = np.zeros((height, width), dtype=np.float64)
    denom = 0.0
    for octave in range(params.octaves):
        freq = params.lacunarity**octave / params.scale
        amp = params.persistence**octave
        table = np.asarray(shuffled(list(range(256)), mix64(params.seed, octave)), dtype=np.int64)
        total += amp * _raw_octave(xs * freq, ys * freq, table)
        denom += amp
    values = 0.5 + 0.5 * (total / denom)
    np.clip(values, 0.0, 1.0, out=values)
    return NoiseField(values)


# Inclusive sampling bounds of each PerlinParams field in sample_params.
SCALE_RANGE = (64.0, 512.0)
OCTAVES_RANGE = (2, 5)
LACUNARITY_RANGE = (1.8, 2.2)
PERSISTENCE_RANGE = (0.4, 0.7)


def sample_params(rng_seed: int) -> PerlinParams:
    """Draw one parameter tuple, counter-based: same seed, same params.

    Uniform draws use u01(rng_seed, k) for k = 0..3 in field order
    (scale, octaves, lacunarity, persistence); the noise seed itself is
    splitmix64_at(rng_seed, 4).
    """
    lo, hi = SCALE_RANGE
    scale = lo + u01(rng_seed, 0) * (hi - lo)
    olo, ohi = OCTAVES_RANGE
    octaves = olo + int(u01(rng_seed, 1) * (ohi - olo + 1))
    lo, hi = LACUNARITY_RANGE
    lacunarity = lo + u01(rng_seed, 2) * (hi - lo)
    lo, hi = PERSISTENCE_RANGE
    persistence = lo + u01(rng_seed, 3) * (hi - lo)
    seed = splitmix64_at(rng_seed, 4)
    return PerlinParams(scale, octaves, lacunarity, persistence, seed)
