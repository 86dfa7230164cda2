"""Shared fixtures: synthetic desk corpus and a trained desk-scale model.

Clean images are procedural Mars-like terrain (warm palette, shadowed relief)
so that estimation heuristics have realistic dark structure to work with.
The corpus, the trained model and the full-network gradient check are
session-scoped: each runs once and is reused by every test that needs it.
``png_blob`` assembles hand-built PNG files without going through
``marsdust.pngio``.  Hypothesis runs without its explain phase, which
re-runs a failing example hundreds of times to annotate its traceback.
"""

import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import Phase, settings

from marsdust.degrade import estimate_reflexivity, generate_pairs
from marsdust.noise import PerlinParams, perlin2d
from marsdust.raster import Image, save_image
from marsdust.rng import mix64
from marsdust.tinynet import NetConfig, TrainConfig, train

from gradcheck import MINIATURE, build_conditioned_net, fd_full_gradient_check

# a failing property reports in seconds; each test's @settings keep their own fields
settings.register_profile("marsdust", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("marsdust")


def make_clean_image(seed: int, width: int = 128, height: int = 128) -> Image:
    """Procedural terrain: strong fine relief, warm tint, scattered deep shadows.

    Tuned for pronounced 8px-scale contrast and a dark dark-channel so the
    dust index separates clean from dusty clearly.
    """
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


def png_blob(ihdr: bytes, idat: bytes, extra=()) -> bytes:
    """A PNG file: signature, IHDR, the ``(tag, payload)`` chunks in ``extra``, one IDAT, IEND."""
    chunks = [(b"IHDR", ihdr), *extra, (b"IDAT", idat), (b"IEND", b"")]
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(payload)) + tag + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        for tag, payload in chunks
    )


TRAIN_CLEAN = 25
TRAIN_MAPS = 2  # 25 clean x 2 maps = 50 training pairs
HOLDOUT_CLEAN = 10


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk_corpus")
    clean_dir = root / "clean"
    holdout_clean_dir = root / "clean_holdout"
    clean_dir.mkdir()
    holdout_clean_dir.mkdir()
    for i in range(TRAIN_CLEAN):
        save_image(make_clean_image(1000 + i), clean_dir / f"clean_{i:03d}.png", 8)
    for i in range(HOLDOUT_CLEAN):
        save_image(make_clean_image(9000 + i), holdout_clean_dir / f"hold_{i:03d}.png", 8)

    phi = estimate_reflexivity(make_dust_patches(55))

    dusty_dir = root / "dusty"
    train_manifest = generate_pairs(
        clean_dir, phi, maps_per_image=TRAIN_MAPS, seed=101, out_dir=dusty_dir
    )
    train_manifest_path = root / "pairs.jsonl"
    train_manifest.save(train_manifest_path)

    holdout_dir = root / "dusty_holdout"
    holdout_manifest = generate_pairs(
        holdout_clean_dir, phi, maps_per_image=1, seed=202, out_dir=holdout_dir
    )
    holdout_manifest_path = root / "pairs_holdout.jsonl"
    holdout_manifest.save(holdout_manifest_path)

    return {
        "root": root,
        "phi": phi,
        "clean_dir": clean_dir,
        "dusty_dir": dusty_dir,
        "manifest": train_manifest,
        "manifest_path": train_manifest_path,
        "holdout_clean_dir": holdout_clean_dir,
        "holdout_dir": holdout_dir,
        "holdout_manifest": holdout_manifest,
        "holdout_manifest_path": holdout_manifest_path,
    }


@pytest.fixture(scope="session")
def trained_model(desk_corpus, tmp_path_factory):
    """The acceptance-configuration training run (50 pairs, width 8, 30 epochs)."""
    out = tmp_path_factory.mktemp("model") / "model.mdw"
    cfg = TrainConfig(patch=64, batch=8, lr=1e-4, epochs=30, seed=7)
    net = NetConfig(base_width=8)
    report = train(cfg, net, desk_corpus["manifest"], out)
    return {"weights_path": out, "report": report, "net": net, "train_config": cfg}


@pytest.fixture(scope="session")
def full_network_gradcheck():
    """Finite differences against backprop for every parameter of the
    miniature network (init seed 3, input seed 5, step 1e-3), and the
    seconds the check took."""
    t0 = time.monotonic()
    cfg = MINIATURE  # 2-channel 8x8 input, width 4
    rng = np.random.default_rng(5)
    x = rng.uniform(0.3, 0.7, (1, cfg.in_channels, 8, 8))
    target = rng.uniform(0.3, 0.7, (1, cfg.in_channels, 8, 8))
    params = build_conditioned_net(cfg, seed=3, x=x)
    worst = fd_full_gradient_check(cfg, params, x, target, step=1e-3)
    return {
        "worst": worst,
        "seconds": time.monotonic() - t0,
        "n_params": sum(p.data.size for p in params.values()),
    }
