"""Image quality measures: a no-reference dust-density index plus PSNR/SSIM.

The dust index is a documented surrogate for fog-density scoring, not a
reimplementation of any published metric: it blends inverted local RMS
contrast with dark-channel brightness, both of which rise monotonically as
dust thickens.  Reports label the column "dust_index (FADE-surrogate)".
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blas import map_in_order
from .errors import DecodeError, ValidationError, printable
from .raster import Image, list_pngs, load_image

logger = logging.getLogger(__name__)

# Mean tile contrast at which the contrast term of the dust index saturates;
# typical clean-terrain tiles sit at or above this.
CONTRAST_NORM = 0.2

_DARK_WINDOW = 7
_TILE = 8  # side of the square tiles the contrast term is measured over


def _luminance(arr: np.ndarray) -> np.ndarray:
    """Luma of an ``(..., C)`` array; a gray channel is its own luma."""
    if arr.shape[-1] == 1:
        return arr[..., 0]
    return 0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2]


def min_filter2d(arr: np.ndarray, size: int) -> np.ndarray:
    """Windowed minimum over the last two axes, the window clipped at the border."""
    edges = (size // 2, size - 1 - size // 2)
    lead = [(0, 0)] * (arr.ndim - 2)
    rows = np.pad(arr, lead + [edges, (0, 0)], constant_values=np.inf)
    out = sliding_window_view(rows, size, axis=-2).min(-1)
    cols = np.pad(out, lead + [(0, 0), edges], constant_values=np.inf)
    # window offset first, so the reduction steps over whole contiguous rows
    # rather than over `size` neighbouring values per pixel (20x slower)
    return np.moveaxis(sliding_window_view(cols, size, axis=-1), -1, 0).min(0)


def channel_min(arr: np.ndarray) -> np.ndarray:
    """``arr.min(axis=-1)`` as one elementwise pass per channel; the numpy
    reduction walks the short contiguous channel axis pixel by pixel."""
    return functools.reduce(np.minimum, np.moveaxis(arr, -1, 0))


def dark_channel(img: Image) -> np.ndarray:
    """Per-pixel channel minimum followed by a windowed spatial minimum."""
    return min_filter2d(channel_min(img.data), _DARK_WINDOW)


def _dust_scores(lum: np.ndarray, dark: np.ndarray) -> list[float]:
    """The dust index of each of N images from their ``(N, h, w)`` luma and
    dark channel."""
    n, h, w = lum.shape
    t = _TILE
    if w < t or h < t:
        raise ValidationError(f"image {w}x{h} smaller than tile {t}")
    th, tw = h // t, w // t
    tiles = lum[:, : th * t, : tw * t].reshape(n, th, t, tw, t).swapaxes(2, 3)
    vals = np.sort(tiles.reshape(n, th * tw, t * t), axis=-1)
    vals -= vals[..., :1]  # a flat tile is then exactly zero, with zero contrast
    dev = vals - vals.mean(axis=-1, keepdims=True)
    contrasts = np.sqrt((dev * dev).mean(axis=-1)).tolist()
    darks = dark.reshape(n, h * w).tolist()
    scores = []
    for c, d in zip(contrasts, darks):
        cbar = math.fsum(c) / len(c)
        dbar = math.fsum(d) / len(d)
        scores.append(0.5 * (1.0 - min(1.0, cbar / CONTRAST_NORM)) + 0.5 * dbar)
    return scores


def dust_index(img: Image) -> float:
    """No-reference dust density in [0, 1]; higher means more dust.

    0.5 * (1 - min(1, mean_tile_rms_contrast / 0.2)) + 0.5 * mean_dark_channel.
    Trailing rows/columns that do not fill a full tile are ignored by the
    contrast term.  Each tile's statistics are taken over its sorted values,
    shifted by the tile minimum, and the means over tiles and over the dark
    channel are exactly rounded, so the score is bit-stable under 90-degree
    rotations of square images, which only permute tiles and their values.
    ``tile_dust_scores`` scores a stack of images with the same code.
    """
    return _dust_scores(_luminance(img.data)[None], dark_channel(img)[None])[0]


def tile_dust_scores(tiles: np.ndarray) -> list[float]:
    """``dust_index`` of each image of an ``(N, h, w, C)`` stack, in one pass."""
    return _dust_scores(_luminance(tiles), min_filter2d(channel_min(tiles), _DARK_WINDOW))


def psnr(a: Image, b: Image) -> float:
    """Peak signal-to-noise ratio in dB with MAX=1; math.inf for identical images."""
    if a.data.shape != b.data.shape:
        raise ValidationError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return math.inf
    return -10.0 * math.log10(mse)


_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def _gaussian_kernel1d(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return k / k.sum()


def _filter_valid(arr: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Separable correlation, valid mode (no padding)."""
    rows = sliding_window_view(arr, k.size, axis=0) @ k
    return sliding_window_view(rows, k.size, axis=1) @ k


def _ssim_channel(x: np.ndarray, y: np.ndarray) -> float:
    k = _gaussian_kernel1d(_SSIM_WINDOW, _SSIM_SIGMA)
    c1 = (_SSIM_K1 * 1.0) ** 2
    c2 = (_SSIM_K2 * 1.0) ** 2
    mu_x = _filter_valid(x, k)
    mu_y = _filter_valid(y, k)
    xx = _filter_valid(x * x, k) - mu_x * mu_x
    yy = _filter_valid(y * y, k) - mu_y * mu_y
    xy = _filter_valid(x * y, k) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


def ssim(a: Image, b: Image) -> float:
    """Mean structural similarity (11x11 Gaussian window, sigma 1.5, K1/K2 = 0.01/0.03)."""
    if a.data.shape != b.data.shape:
        raise ValidationError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")
    if a.width < _SSIM_WINDOW or a.height < _SSIM_WINDOW:
        raise ValidationError(
            f"image {a.width}x{a.height} smaller than the {_SSIM_WINDOW}px SSIM window"
        )
    scores = [
        _ssim_channel(a.data[:, :, c], b.data[:, :, c]) for c in range(a.channels)
    ]
    return math.fsum(scores) / len(scores)


def _set_summary(label: str, rows: list[dict]) -> dict:
    """Mean and population spread of the rows' dust index, and their mean
    PSNR and SSIM over the rows that carry them, under the report's keys."""
    dust = [row["dust_index"] for row in rows]
    mean = fmean(dust)
    summary = {"label": label, "n": len(dust), "dust_index_mean": mean,
               "dust_index_std": math.sqrt(fmean([(v - mean) ** 2 for v in dust]))}
    paired = [row for row in rows if "psnr" in row]
    if paired:
        summary["psnr_mean"] = fmean([row["psnr"] for row in paired])
        summary["ssim_mean"] = fmean([row["ssim"] for row in paired])
    return summary


@dataclass
class CorpusReport:
    sets: list[dict] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)  # {"path", "reason"} per image not scored

    def to_json(self) -> str:
        def enc(v):
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            return v

        payload = {
            "sets": [{k: enc(v) for k, v in s.items()} for s in self.sets],
            "rows": [{k: enc(v) for k, v in row.items()} for row in self.rows],
            "skipped": self.skipped,
        }
        return json.dumps(payload, indent=2)

    def to_table(self) -> str:
        header = f"{'set':<10} {'n':>5} {'dust_index (FADE-surrogate)':>28} {'psnr':>10} {'ssim':>8}"
        lines = [header, "-" * len(header)]
        for s in self.sets:
            di = f"{s['dust_index_mean']:.4f} +/- {s['dust_index_std']:.4f}"
            ps = f"{s['psnr_mean']:.2f}" if "psnr_mean" in s else "-"
            ss = f"{s['ssim_mean']:.4f}" if "ssim_mean" in s else "-"
            lines.append(f"{s['label']:<10} {s['n']:>5} {di:>28} {ps:>10} {ss:>8}")
        return "\n".join(lines)


def corpus_report(sets: dict, pairs=None, jobs: int = 1) -> CorpusReport:
    """Per-set dust-index statistics, plus PSNR/SSIM where a pairing is known.

    ``sets`` maps label -> directory.  With a manifest, images whose filename
    matches a manifest dusty entry are scored against their clean counterpart,
    except in a set labelled ``clean``.  Unreadable images, images too small
    to score (under one dust-index tile, or under the SSIM window when paired),
    and scored images whose clean reference is unreadable or of another width,
    height or channel count, are skipped: each logs one warning, ``skipping
    <path>: <reason>``, and is listed with that reason, which does not name
    the path again, in ``report.skipped``.  Images are scored on ``jobs``
    threads; rows keep input order.
    """
    records = pairs.by_dusty_name() if pairs is not None else {}

    def score_one(label, path):
        try:
            img = load_image(path)
            rec = records.get(path.name) if label != "clean" else None
            if rec is not None:
                try:
                    ref = load_image(rec.clean)
                except DecodeError as exc:  # its message starts with "<rec.clean>: "
                    raise DecodeError(f"clean reference {exc}") from exc
                if ref.data.shape != img.data.shape:
                    dims = [f"{im.width}x{im.height}x{im.channels}" for im in (ref, img)]
                    raise ValidationError(f"clean reference {rec.clean} is {dims[0]}, image is {dims[1]}")
            row = {"set": label, "path": str(path), "dust_index": dust_index(img)}
            if rec is not None:
                row.update(psnr=psnr(ref, img), ssim=ssim(ref, img))
            return row
        except (DecodeError, ValidationError) as exc:
            reason = str(exc).removeprefix(f"{path}: ")  # read_png's messages start with it
            logger.warning("skipping %s", printable(f"{path}: {reason}"))
            return {"path": str(path), "reason": reason}

    report = CorpusReport()
    for label, directory in sets.items():
        rows = map_in_order(lambda p: score_one(label, p), list_pngs(directory), jobs)
        report.skipped += [row for row in rows if "reason" in row]
        scored = [row for row in rows if "reason" not in row]
        if not scored:
            raise ValidationError(f"set '{label}' has no image left to score")
        report.rows += scored
        report.sets.append(_set_summary(label, scored))
    return report
