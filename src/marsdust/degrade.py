"""Forward dust model: transmission maps, reflexivity and atmospheric light
estimation, dusty-image synthesis, and paired dataset generation.

A dusty image is the per-pixel convex blend

    H(x, c) = C(x, c) * T(x) + L(c) * (1 - T(x))

where the transmission map T = 1 - alpha * M comes from a Perlin field M and
a strength alpha, and the atmospheric light L(c) = phi(c) * max(C) scales the
scene maximum by the per-channel dust reflexivity phi.  T carries no channel
dependence by construction; wavelength enters only through L.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import read_input, write_atomic
from .blas import map_in_order
from .errors import EstimationError, ManifestError, ValidationError
from .metrics import tile_dust_scores
from .noise import NoiseField, PerlinParams, perlin2d, sample_params
from .raster import Image, list_pngs, load_image, save_image
from .rng import mix64, shuffled

logger = logging.getLogger(__name__)

# Dust strengths used by the synthesis protocol: one map per alpha, each value
# used exactly once per clean image.
ALPHA_SET = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# Side and number of the square tiles auto_select_dusty_patches returns.
_PATCH_TILE = 32
_PATCH_COUNT = 8


@dataclass(frozen=True)
class Reflexivity:
    """Per-channel dust reflectance relative to the brightest channel."""

    phi: tuple[float, ...]

    def __post_init__(self):
        if not self.phi:
            raise ValidationError("reflexivity needs at least one channel")
        for v in self.phi:
            if not 0 < v <= 1:
                raise ValidationError(f"reflexivity values must be in (0, 1], got {v}")


@dataclass(frozen=True)
class AtmosphericLight:
    """Per-channel intensity of light scattered toward the sensor by dust."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("atmospheric light needs at least one channel")
        for v in self.values:
            if not 0 <= v <= 1:
                raise ValidationError(f"light values must be in [0, 1], got {v}")


def make_transmission(noise: NoiseField, alpha: float) -> NoiseField:
    """T = 1 - alpha * M, elementwise; output lies in [1 - alpha, 1]."""
    if not 0 < alpha <= 1:
        raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
    t = alpha * noise.values
    return NoiseField(np.subtract(1.0, t, out=t))


def estimate_reflexivity(patches: Sequence[Image]) -> Reflexivity:
    """Average, over patches then pixels, of each channel over the per-pixel
    channel maximum.  Pixels whose channel maximum is zero are skipped (black
    sensor artifacts); a patch with no usable pixels is dropped entirely.  A
    channel that is zero in every usable pixel is an EstimationError.
    """
    if not patches:
        raise EstimationError("empty patch set")
    channels = patches[0].channels
    contributions = []
    skipped = 0
    for patch in patches:
        if patch.channels != channels:
            raise ValidationError("patches must share a channel count")
        arr = patch.data
        pixmax = arr.max(axis=2)
        mask = pixmax > 0.0
        skipped += int(mask.size - mask.sum())
        if not mask.any():
            continue
        ratios = arr[mask] / pixmax[mask][:, None]
        contributions.append(ratios.mean(axis=0))
    if skipped:
        logger.warning("estimate_reflexivity: skipped %d zero-maximum pixels", skipped)
    if not contributions:
        raise EstimationError("all patches are fully black; cannot estimate reflexivity")
    phi = np.mean(np.stack(contributions), axis=0)
    dead = np.flatnonzero(phi == 0.0)
    if dead.size:
        raise EstimationError(f"patches carry no signal in channel {int(dead[0])}")
    return Reflexivity(tuple(float(v) for v in phi))


def estimate_atmospheric_light(img: Image, phi: Reflexivity) -> AtmosphericLight:
    """L(c) = phi(c) * global maximum sample of the image."""
    if len(phi.phi) != img.channels:
        raise ValidationError(
            f"reflexivity has {len(phi.phi)} channels, image has {img.channels}"
        )
    peak = float(img.data.max())
    return AtmosphericLight(tuple(p * peak for p in phi.phi))


def check_blend_inputs(img: Image, light: AtmosphericLight, tmap: NoiseField | None = None) -> np.ndarray:
    """The light as a float64 vector, once it has one value per image channel
    and ``tmap``, if given, has the image's size."""
    if tmap is not None and (tmap.height, tmap.width) != (img.height, img.width):
        raise ValidationError(
            f"transmission {tmap.width}x{tmap.height} does not match image "
            f"{img.width}x{img.height}"
        )
    if len(light.values) != img.channels:
        raise ValidationError(
            f"light has {len(light.values)} channels, image has {img.channels}"
        )
    return np.asarray(light.values, dtype=np.float64)


def synthesize_dusty(img: Image, tmap: NoiseField, light: AtmosphericLight) -> Image:
    """Blend the clean image toward the atmospheric light, weighted by 1 - T."""
    low = check_blend_inputs(img, light, tmap)
    out = img.data * tmap.data
    out += low * (1.0 - tmap.data)
    np.clip(out, 0.0, 1.0, out=out)
    return Image(out)


def auto_select_dusty_patches(img: Image) -> list[Image]:
    """Pick the densest-looking square tiles of an image as stand-in heavy-dust
    patches (manual selections take precedence wherever they are available)."""
    t = _PATCH_TILE
    if img.width < t or img.height < t:
        return [img]
    th, tw, c = img.height // t, img.width // t, img.channels
    tiles = img.data[: th * t, : tw * t].reshape(th, t, tw, t, c).swapaxes(1, 2)
    stack = tiles.reshape(th * tw, t, t, c)  # row-major tile order
    # stable, so tied scores keep row-major order
    order = np.argsort(-np.asarray(tile_dust_scores(stack)), kind="stable")
    return [Image(stack[k]) for k in order[:_PATCH_COUNT]]


def is_number(v) -> bool:
    """Whether a parsed JSON value is a number that a float holds: a bool is
    not, nor is an integer that ``float()`` would round past the float range."""
    return isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) < 2**1024 - 2**970
    )


def _is_finite_number(v) -> bool:
    return is_number(v) and math.isfinite(v)


# Per PairRecord field type: what a manifest value must be, a test of the
# parsed JSON value, its Python value, and its manifest text.  Floats print
# with 17 significant digits, which round-trips float64; since 1.0 prints as
# 1, a JSON integer in a float field reads as a float.  JSON reads 1e400 as
# inf, which no float field takes.
_FIELD_FORMATS = {
    "str": ("a string", lambda v: isinstance(v, str), str, json.dumps),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int, str),
    "float": ("a finite number", _is_finite_number, float, lambda v: format(float(v), ".17g")),
    "tuple[float, ...]": (
        "a list of finite numbers",
        lambda v: isinstance(v, list) and all(map(_is_finite_number, v)),
        lambda v: tuple(map(float, v)),
        lambda v: "[" + ",".join(format(float(x), ".17g") for x in v) + "]",
    ),
}


@dataclass(frozen=True)
class PairRecord:
    """One clean/dusty pair plus everything needed to re-synthesize it.

    The fields, in order, are the keys of a manifest line.
    """

    clean: str
    dusty: str
    scale: float
    octaves: int
    lacunarity: float
    persistence: float
    alpha: float
    light: tuple[float, ...]
    seed: int

    @property
    def perlin_params(self) -> PerlinParams:
        return PerlinParams(self.scale, self.octaves, self.lacunarity, self.persistence, self.seed)

    def transmission(self, width: int, height: int) -> NoiseField:
        """The pair's transmission map at the given size."""
        return make_transmission(perlin2d(self.perlin_params, width, height), self.alpha)

    def to_line(self) -> str:
        items = (f'"{f.name}":{_FIELD_FORMATS[f.type][3](getattr(self, f.name))}' for f in fields(self))
        return "{" + ",".join(items) + "}"

    @classmethod
    def from_json(cls, obj, where: str) -> "PairRecord":
        """The record a parsed manifest line holds; ManifestError names
        ``where`` and the first key with a wrong value."""
        if not isinstance(obj, dict):
            raise ManifestError(f"{where}: record must be a JSON object, got {type(obj).__name__}")
        if set(obj) != {f.name for f in fields(cls)}:
            raise ManifestError(f"{where}: unexpected record keys {sorted(obj)}")
        values = {}
        for f in fields(cls):
            what, valid, convert, _ = _FIELD_FORMATS[f.type]
            if not valid(obj[f.name]):
                raise ManifestError(f"{where}: {f.name} must be {what}, got {obj[f.name]!r}")
            values[f.name] = convert(obj[f.name])
        if not 0 <= values["seed"] < 2**64:  # synth writes uint64 seeds
            raise ManifestError(f"{where}: seed must be in [0, 2**64), got {values['seed']}")
        return cls(**values)


@dataclass
class DatasetManifest:
    """Ordered pair records, serialized as one JSON object per line."""

    records: list[PairRecord]

    def save(self, path) -> None:
        write_atomic(path, [("\n".join(rec.to_line() for rec in self.records) + "\n").encode()])

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        records = []
        for lineno, line in enumerate(read_input(path, ManifestError).splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, bytes not UTF-8, or an integer too long to convert
                raise ManifestError(f"{path}:{lineno}: malformed JSON ({exc})") from exc
            records.append(PairRecord.from_json(obj, f"{path}:{lineno}"))
        return cls(records)

    def by_dusty_name(self) -> dict[str, PairRecord]:
        """Records keyed by dusty file name; a name two records share is an error."""
        out: dict[str, PairRecord] = {}
        for rec in self.records:
            name = Path(rec.dusty).name
            if name in out:
                raise ManifestError(f"dusty name {name} is shared by {out[name].dusty} and {rec.dusty}")
            out[name] = rec
        return out


def replay_dusty(record: PairRecord) -> Image:
    """Re-synthesize a dusty image from its manifest tuple, bit-exactly."""
    clean = load_image(record.clean)
    return synthesize_dusty(clean, record.transmission(clean.width, clean.height),
                            AtmosphericLight(record.light))


def generate_pairs(
    clean_dir,
    phi: Reflexivity,
    out_dir,
    maps_per_image: int = 7,
    seed: int = 0,
    bit_depth: int = 16,
    jobs: int = 1,
) -> DatasetManifest:
    """Synthesize ``maps_per_image`` dusty variants for every clean PNG.

    Per image i, the map seeds are mix64(mix64(seed, i), j + 1) and the alpha
    values are a seeded permutation of ``ALPHA_SET`` consumed in order: when
    maps_per_image equals the set size, each alpha is used exactly once.
    Dusty files are named after the clean file's stem, so two clean files
    that differ only in the case of their suffix are rejected.
    Parallel and serial runs produce identical bytes because all randomness is
    keyed by the image index, never by scheduling.
    """
    if maps_per_image < 1:
        raise ValidationError(f"maps_per_image must be >= 1, got {maps_per_image}")
    clean_paths = list_pngs(clean_dir)
    by_stem: dict[str, Path] = {}
    for path in clean_paths:
        if by_stem.setdefault(path.stem, path) is not path:
            raise ValidationError(f"clean images {by_stem[path.stem].name} and {path.name} "
                                  "would write the same dusty files")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def synth_one(index: int, clean_path: Path) -> list[PairRecord]:
        clean = load_image(clean_path)
        light = estimate_atmospheric_light(clean, phi)
        img_seed = mix64(seed, index)
        alpha_order = shuffled(ALPHA_SET, mix64(img_seed, 0))
        records = []
        for j in range(maps_per_image):
            params = sample_params(mix64(img_seed, j + 1))
            rec = PairRecord(clean=str(clean_path), dusty=str(out_dir / f"{clean_path.stem}_d{j:02d}.png"),
                             alpha=alpha_order[j % len(alpha_order)], light=light.values, **asdict(params))
            dusty = synthesize_dusty(clean, rec.transmission(clean.width, clean.height), light)
            save_image(dusty, rec.dusty, bit_depth)
            records.append(rec)
        return records

    chunks = map_in_order(lambda indexed: synth_one(*indexed), enumerate(clean_paths), jobs)
    records = [rec for chunk in chunks for rec in chunk]
    logger.info("generated %d dusty images from %d clean", len(records), len(clean_paths))
    return DatasetManifest(records)
