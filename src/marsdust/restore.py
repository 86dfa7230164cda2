"""Dust removal: exact model inversion, a dark-channel baseline, and the
learned network.  Each route is its own function: ``remove_known`` with a
pair's manifest record, ``remove_estimated`` from the image alone, and
``remove_learned`` with a model from ``load_model``.

The analytic inverse solves the forward blend for the clean image:

    C(x, c) = (H(x, c) - L(c) * (1 - T'(x))) / T'(x),   T' = max(T, T_FLOOR)

The transmission floor bounds the 1/T noise amplification where heavy dust
makes inversion ill-posed.  When the true (T, L) are unknown, a classic
dark-channel-style estimate stands in; that baseline is an addition of this
artifact, not a published method.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from .degrade import (
    AtmosphericLight,
    PairRecord,
    auto_select_dusty_patches,
    check_blend_inputs,
    estimate_atmospheric_light,
    estimate_reflexivity,
)
from .errors import EstimationError, ValidationError, WeightsFormatError
from .metrics import channel_min, min_filter2d
from .noise import NoiseField
from .raster import Image, row_bands

T_FLOOR = 0.05


def invert_degradation(H: Image, tmap: NoiseField, light: AtmosphericLight) -> Image:
    """Invert the forward blend, in row bands as synthesize_dusty; output clamped to [0, 1]."""
    low = np.tile(check_blend_inputs(H, light, tmap), H.width)
    flat = H.data.reshape(H.height, -1)
    out = np.empty_like(flat)
    for band in row_bands(*flat.shape):
        t = np.repeat(np.maximum(tmap.values[band], T_FLOOR), H.channels, axis=1)
        o = np.subtract(flat[band], low * (1.0 - t), out=out[band])
        np.clip(np.divide(o, t, out=o), 0.0, 1.0, out=o)
    return Image(out.reshape(H.data.shape))


def estimate_transmission(
    H: Image, light: AtmosphericLight, window: int = 15, omega: float = 0.95
) -> NoiseField:
    """Dark-channel transmission estimate: T = 1 - omega * windowed min ratio.

    The per-pixel ratio is min over channels of H / L; the windowed minimum is
    clipped at the image border.  Output lies in [T_FLOOR, 1].
    """
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 1, got {window}")
    if not 0 < omega <= 1:
        raise ValidationError(f"omega must be in (0, 1], got {omega}")
    low = check_blend_inputs(H, light)
    if np.any(low == 0.0):
        raise EstimationError("atmospheric light has a zero channel; ratio undefined")
    ratio = channel_min(H.data / low)
    dark = min_filter2d(ratio, window)
    values = np.clip(1.0 - omega * dark, T_FLOOR, 1.0)
    return NoiseField(values)


@lru_cache(maxsize=2)
def _load_model(weights_path: str, mtime_ns: int):
    from .tinynet import infer_config, load_weights

    weights = load_weights(weights_path)
    return weights, infer_config(weights)


def load_model(weights_path):
    """The (weights, config) pair of a ``.mdw`` file, for ``remove_learned``;
    cached per path and modification time.  An unreadable or corrupt file is a
    ``WeightsFormatError``."""
    path = Path(weights_path)
    try:
        mtime_ns = path.stat().st_mtime_ns
    except (OSError, ValueError) as exc:  # the form of atomic.read_input's message
        raise WeightsFormatError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from exc
    return _load_model(str(path), mtime_ns)


def remove_known(H: Image, record: PairRecord) -> Image:
    """Exact inversion with the transmission and light of the pair's record."""
    return invert_degradation(H, record.transmission(H.width, H.height), AtmosphericLight(record.light))


def remove_estimated(H: Image) -> Image:
    """Inversion with reflexivity, light and transmission estimated from H."""
    patches = auto_select_dusty_patches(H)
    phi = estimate_reflexivity(patches)
    light = estimate_atmospheric_light(H, phi)
    return invert_degradation(H, estimate_transmission(H, light), light)


def remove_learned(H: Image, model) -> Image:
    """The network's restoration of H, same size; ``model`` comes from ``load_model``."""
    from .tinynet import forward

    weights, cfg = model
    if H.channels != cfg.in_channels:
        raise ValidationError(f"model expects {cfg.in_channels} channels, image has {H.channels}")
    h, w = H.height, H.width  # edge-padded up to multiples of 4 for the two stride-2 layers
    chw = np.moveaxis(H.data, 2, 0).astype(np.float32)  # the network runs in float32
    chw = np.pad(chw, ((0, 0), (0, -h % 4), (0, -w % 4)), mode="edge")
    out = forward(weights, cfg, chw[None])[0, :, :h, :w]
    return Image(np.ascontiguousarray(np.moveaxis(out, 0, 2), dtype=np.float64))
