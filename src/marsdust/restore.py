"""Dust removal: exact model inversion, a dark-channel baseline, and dispatch
to the learned network.

The analytic inverse solves the forward blend for the clean image:

    C(x, c) = (H(x, c) - L(c) * (1 - T'(x))) / T'(x),   T' = max(T, t_floor)

The transmission floor bounds the 1/T noise amplification where heavy dust
makes inversion ill-posed.  When the true (T, L) are unknown, a classic
dark-channel-style estimate stands in; that baseline is an addition of this
artifact, not a published method.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .errors import EstimationError, ValidationError
from .metrics import channel_min, min_filter2d
from .noise import NoiseField
from .raster import Image

DEFAULT_T_FLOOR = 0.05

VARIANTS = ("analytic-known", "analytic-estimated", "learned")


@dataclass(frozen=True)
class RestoreMethod:
    """Which removal route to take, and the weights file of the learned one."""

    variant: str
    weights_path: str | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"unknown restore variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.variant == "learned":
            if self.weights_path is None or not Path(self.weights_path).is_file():
                raise ValidationError(
                    f"learned variant requires a readable weights file, got {self.weights_path!r}"
                )


def invert_degradation(
    H: Image,
    tmap: NoiseField,
    light: AtmosphericLight,
    t_floor: float = DEFAULT_T_FLOOR,
) -> Image:
    """Invert the forward blend; output clamped to [0, 1]."""
    if not 0 < t_floor < 1:
        raise ValidationError(f"t_floor must be in (0, 1), got {t_floor}")
    low = check_blend_inputs(H, light, tmap)
    t = np.maximum(tmap.values, t_floor)[:, :, None]
    out = (H.data - low * (1.0 - t)) / t
    np.clip(out, 0.0, 1.0, out=out)
    return Image(out)


def estimate_transmission(
    H: Image,
    light: AtmosphericLight,
    window: int = 15,
    omega: float = 0.95,
    t_floor: float = DEFAULT_T_FLOOR,
) -> NoiseField:
    """Dark-channel transmission estimate: T = 1 - omega * windowed min ratio.

    The per-pixel ratio is min over channels of H / L; the windowed minimum is
    clipped at the image border.  Output lies in [t_floor, 1].
    """
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 1, got {window}")
    if not 0 < omega <= 1:
        raise ValidationError(f"omega must be in (0, 1], got {omega}")
    if not 0 < t_floor < 1:
        raise ValidationError(f"t_floor must be in (0, 1), got {t_floor}")
    low = check_blend_inputs(H, light)
    if np.any(low == 0.0):
        raise EstimationError("atmospheric light has a zero channel; ratio undefined")
    ratio = channel_min(H.data / low)
    dark = min_filter2d(ratio, window)
    values = np.clip(1.0 - omega * dark, t_floor, 1.0)
    return NoiseField(values)


@lru_cache(maxsize=2)
def _load_model(weights_path: str, mtime_ns: int):
    from .tinynet import infer_config, load_weights

    weights = load_weights(weights_path)
    return weights, infer_config(weights)


def _pad_to_multiple(arr: np.ndarray, mult: int) -> tuple[np.ndarray, int, int]:
    h, w = arr.shape[1], arr.shape[2]
    ph = (-h) % mult
    pw = (-w) % mult
    if ph or pw:
        arr = np.pad(arr, ((0, 0), (0, ph), (0, pw)), mode="edge")
    return arr, h, w


def remove_dust(H: Image, method: RestoreMethod, record: PairRecord | None = None) -> Image:
    """Dispatch to the chosen removal route; output matches the input size."""
    if method.variant == "analytic-known":
        if record is None:
            raise ValidationError("analytic-known removal needs the pair's manifest record")
        return invert_degradation(H, record.transmission(H.width, H.height), AtmosphericLight(record.light))

    if method.variant == "analytic-estimated":
        patches = auto_select_dusty_patches(H)
        phi = estimate_reflexivity(patches)
        light = estimate_atmospheric_light(H, phi)
        return invert_degradation(H, estimate_transmission(H, light), light)

    # learned
    from .tinynet import forward

    path = Path(method.weights_path)
    weights, cfg = _load_model(str(path), path.stat().st_mtime_ns)
    if H.channels != cfg.in_channels:
        raise ValidationError(
            f"model expects {cfg.in_channels} channels, image has {H.channels}"
        )
    chw = np.moveaxis(H.data, 2, 0)
    chw, h, w = _pad_to_multiple(chw, 4)
    out = forward(weights, cfg, chw[None])[0]
    out = out[:, :h, :w]
    return Image(np.moveaxis(out, 0, 2).copy())
