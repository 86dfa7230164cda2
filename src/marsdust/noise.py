"""Deterministic multi-octave 2-D Perlin noise.

Classic lattice gradient noise with the quintic fade 6t^5 - 15t^4 + 10t^3.
Octave o samples at pixel coordinates scaled by lacunarity**o / scale and is
weighted by persistence**o; the weighted sum is mapped affinely from
[-sum(persistence**o), +sum(persistence**o)] to [0, 1] and clamped.

Every octave hashes lattice corners through its own 256-entry permutation
table built by rng.shuffled(list(range(256)), mix64(seed, octave)), and
gradients come from the fixed 8-direction set below indexed by (hash & 7).
The second hash step is folded into two 512-entry tables over the doubled
permutation, gx[i] = _GRADS[table[i & 255] & 7, 0] and gy likewise, so corner
(ix, iy) reads gx[table[ix & 255] + (iy & 255)], the same in every pixel row of
lattice row iy: a band gathers gx * dx and gy once per lattice row it touches,
copies them to its pixel rows, and adds gy * dy per pixel.

Fields are computed in raster.row_bands, each summing every octave before
the next band starts, so an octave's temporaries stay in cache; the sum
starts from octave 0, whose weight persistence**0 is exactly 1.  Banding
changes only the order pixels are visited: each value is a pure per-pixel
function of (params, x, y), and a crop of a field equals the field of the
cropped size, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .raster import BAND_VALUES as _BAND_PIXELS, Image, row_bands  # test_noise reads _BAND_PIXELS
from .rng import mix64, shuffled, splitmix64_at, u01

_GRADS = np.array(
    [[1, 1], [-1, 1], [1, -1], [-1, -1], [1, 0], [-1, 0], [0, 1], [0, -1]],
    dtype=np.float64,
)

# Most octaves a field may have; far above OCTAVES_RANGE, and each octave is
# one more pass over the field.
MAX_OCTAVES = 32


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
        if not 1 <= self.octaves <= MAX_OCTAVES:
            raise ValidationError(f"octaves must be in [1, {MAX_OCTAVES}], got {self.octaves}")
        if not self.lacunarity > 1:
            raise ValidationError(f"lacunarity must be > 1, got {self.lacunarity}")
        if not 0 < self.persistence <= 1:
            raise ValidationError(
                f"persistence must be in (0, 1], got {self.persistence}"
            )


class NoiseField(Image):
    """One-channel Image (Perlin fields and transmission maps alike); a 2-D
    array is promoted to (H, W, 1)."""

    _CHANNELS = (1,)

    @property
    def values(self) -> np.ndarray:
        """The read-only (H, W) plane."""
        return self.data[:, :, 0]


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _axis_terms(coords: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lattice index, fraction, fraction - 1 and fade weight of 1-D coordinates."""
    i = np.floor(coords).astype(np.intp)
    f = coords - i
    return i, f, f - 1.0, _fade(f)


def _octave_terms(params: PerlinParams, octave: int, xs: np.ndarray, ys: np.ndarray):
    """Everything of one octave that bands share: gradient tables, column terms,
    row terms (lattice row, then (H, 1) columns), and lattice rows' hash offsets."""
    freq = params.lacunarity**octave / params.scale
    table = np.asarray(shuffled(list(range(256)), mix64(params.seed, octave)), dtype=np.intp)
    h = np.concatenate([table, table]) & 7
    xi, xf, xf1, u = _axis_terms(xs * freq)
    yi, yf, yf1, v = _axis_terms(ys * freq)
    lattice, at = np.unique(yi, return_inverse=True)  # yi ascends, so at does too
    cols = (table[xi & 255], table[(xi + 1) & 255], xf, xf1, u)
    rows = (at, yf[:, None], yf1[:, None], v[:, None])
    return _GRADS[h, 0], _GRADS[h, 1], cols, rows, (lattice & 255, (lattice + 1) & 255)


def _corner(gx, gy, i, dx, at, dy) -> np.ndarray:
    """gy[i] * dy + gx[i] * dx in a fresh buffer; row k of the index ``i``
    is gathered once, then copied to each pixel row whose ``at`` is k."""
    g = gx.take(i)
    g *= dx
    n = gy.take(i).take(at, axis=0)
    n *= dy
    n += g.take(at, axis=0)
    return n


def _lerp_into(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a + w * (b - a), written over b."""
    b -= a
    b *= w
    b += a
    return b


def _raw_octave(gx, gy, cols, rows, lattice, band: slice) -> np.ndarray:
    """Single-octave Perlin over one row band; zero at integer lattice points.

    Works in place on band-sized buffers; each pixel still sees the float
    operations of n00 + u * (n10 - n00) and so on, in the same order.
    """
    px0, px1, xf, xf1, u = cols
    at, yf, yf1, v = (r[band] for r in rows)
    q0, q1 = (q[at[0] : at[-1] + 1, None] for q in lattice)  # the lattice rows the band touches
    at = at - at[0]
    n00 = _corner(gx, gy, px0 + q0, xf, at, yf)
    n10 = _corner(gx, gy, px1 + q0, xf1, at, yf)
    n01 = _corner(gx, gy, px0 + q1, xf, at, yf1)
    n11 = _corner(gx, gy, px1 + q1, xf1, at, yf1)
    return _lerp_into(_lerp_into(n00, n10, u), _lerp_into(n01, n11, u), v)


def perlin2d(params: PerlinParams, width: int, height: int) -> NoiseField:
    """Generate a multi-octave field; deterministic in (params, width, height)."""
    if width < 1 or height < 1:
        raise ValidationError(f"field dimensions must be >= 1, got {width}x{height}")
    # The finest octave scales pixel coordinates by lacunarity**(octaves - 1)
    # / scale.  From 2**52 on, a float64 coordinate has no fraction left (and
    # soon no int64 lattice index), so both that factor and the field's longer
    # side times it must stay below 2**52; log space keeps the check itself
    # from overflowing.
    grow = (params.octaves - 1) * math.log2(params.lacunarity)
    reach = grow - math.log2(params.scale) + math.log2(max(width, height))
    if not (grow < 52 and reach < 52):
        raise ValidationError(
            f"scale {params.scale}, lacunarity {params.lacunarity} and {params.octaves} octaves "
            f"put {width}x{height} lattice coordinates at 2**{max(grow, reach):.4g}; "
            f"they must stay below 2**52"
        )
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    octaves = []
    denom = 0.0
    for octave in range(params.octaves):
        amp = params.persistence**octave
        octaves.append((amp, _octave_terms(params, octave, xs, ys)))
        denom += amp
    values = np.empty((height, width), dtype=np.float64)
    for band in row_bands(height, width):
        total = _raw_octave(*octaves[0][1], band)
        for amp, terms in octaves[1:]:
            n = _raw_octave(*terms, band)
            n *= amp
            total += n
        np.clip(0.5 + 0.5 * (total / denom), 0.0, 1.0, out=values[band])
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
