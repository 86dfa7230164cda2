import hashlib
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsdust.degrade import AtmosphericLight, make_transmission, synthesize_dusty
from marsdust.errors import ValidationError
from marsdust.metrics import (
    channel_min,
    corpus_report,
    dark_channel,
    dust_index,
    min_filter2d,
    psnr,
    ssim,
    tile_dust_scores,
)
from marsdust.noise import perlin2d, sample_params
from marsdust.raster import Image, save_image
from marsdust.rng import mix64

from conftest import make_clean_image


def ssim_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Direct windowed formula, no separability tricks: the independent check."""
    size, sigma = 11, 1.5
    c1, c2 = 0.01**2, 0.03**2
    offsets = np.arange(size) - (size - 1) / 2
    g1 = np.exp(-(offsets**2) / (2 * sigma**2))
    w = np.outer(g1, g1)
    w /= w.sum()
    h, wd = x.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(wd - size + 1):
            wx = x[i : i + size, j : j + size]
            wy = y[i : i + size, j : j + size]
            mx = (w * wx).sum()
            my = (w * wy).sum()
            vx = (w * wx * wx).sum() - mx * mx
            vy = (w * wy * wy).sum() - my * my
            vxy = (w * wx * wy).sum() - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * vxy + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))


class TestDustIndex:
    def test_constant_bright_image(self):
        img = Image(np.full((16, 16, 3), 0.9))
        # zero contrast, dark channel 0.9 -> 0.5 + 0.45
        assert dust_index(img) == 0.5 * (1.0 - 0.0) + 0.5 * 0.9

    def test_constant_black_image(self):
        img = Image(np.zeros((16, 16, 3)))
        assert dust_index(img) == 0.5

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = dust_index(Image(rng.random((24, 24, 3))))
            assert 0.0 <= v <= 1.0

    def test_rotation_invariance_exact_on_squares(self):
        img = make_clean_image(37, 64, 64)
        base = dust_index(img)
        for rot in (1, 2, 3):
            assert dust_index(Image(np.rot90(img.data, rot))) == base

    def test_grayscale_supported(self):
        rng = np.random.default_rng(1)
        assert 0.0 <= dust_index(Image(rng.random((16, 16, 1)))) <= 1.0

    def test_too_small_image_rejected(self):
        with pytest.raises(ValidationError):
            dust_index(Image(np.zeros((4, 4, 3))))
        with pytest.raises(ValidationError, match="smaller than tile 8"):
            tile_dust_scores(np.zeros((2, 7, 7, 3)))

    def test_alpha_ordering_statistical(self):
        # dust index must be non-decreasing in alpha on >= 95% of random trials
        phi = (1.0, 0.8, 0.62)
        cleans = [make_clean_image(3000 + i, 64, 64) for i in range(10)]
        ok = 0
        trials = 100
        for t in range(trials):
            clean = cleans[t % len(cleans)]
            params = sample_params(mix64(777, t))
            field = perlin2d(params, 64, 64)
            light = AtmosphericLight(tuple(p * float(clean.data.max()) for p in phi))
            vals = []
            for alpha in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
                dusty = synthesize_dusty(clean, make_transmission(field, alpha), light)
                vals.append(dust_index(dusty))
            ok += all(b >= a for a, b in zip(vals, vals[1:]))
        assert ok >= 95


class TestPsnr:
    def test_identical_is_infinite(self):
        img = make_clean_image(5, 32, 32)
        assert psnr(img, img) == math.inf

    def test_constant_offset_is_20db(self):
        rng = np.random.default_rng(2)
        a = rng.random((16, 16, 3)) * 0.8
        b = np.clip(a + 0.1, 0, 1)
        value = psnr(Image(a), Image(b))
        assert abs(value - 20.0) < 1e-9

    def test_symmetric(self):
        a, b = make_clean_image(6, 32, 32), make_clean_image(7, 32, 32)
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            psnr(Image(np.zeros((4, 4, 1))), Image(np.zeros((4, 5, 1))))


class TestSsim:
    def test_self_similarity_is_one(self):
        img = make_clean_image(8, 32, 32)
        assert ssim(img, img) == 1.0

    def test_symmetric(self):
        a, b = make_clean_image(9, 32, 32), make_clean_image(10, 32, 32)
        assert ssim(a, b) == ssim(b, a)

    def test_matches_direct_formula_oracle_gray(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.random((32, 32))
            y = rng.random((32, 32))
            got = ssim(Image(x[:, :, None]), Image(y[:, :, None]))
            assert abs(got - ssim_oracle(x, y)) < 1e-9

    def test_matches_direct_formula_oracle_rgb(self):
        rng = np.random.default_rng(12)
        x = rng.random((32, 32, 3))
        y = rng.random((32, 32, 3))
        want = np.mean([ssim_oracle(x[:, :, c], y[:, :, c]) for c in range(3)])
        assert abs(ssim(Image(x), Image(y)) - want) < 1e-9

    def test_window_size_guard(self):
        with pytest.raises(ValidationError):
            ssim(Image(np.zeros((8, 8, 1))), Image(np.zeros((8, 8, 1))))


class TestTileDustScores:
    """One vectorised pass over a tile stack scores each tile exactly as
    ``dust_index`` scores it alone."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        side=st.integers(8, 40),
        channels=st.sampled_from([1, 3]),
        n=st.integers(1, 4),
        levels=st.sampled_from([0, 2, 5]),  # 0: continuous samples
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_tile_dust_index(self, side, channels, n, levels, seed):
        stack = np.random.default_rng(seed).random((n, side, side, channels))
        if levels:
            stack = np.round(stack * levels) / levels  # flat sub-tiles and tied values
        want = [dust_index(Image(tile)) for tile in stack]
        assert tile_dust_scores(stack) == want


def golden_frames():
    """A non-square clean terrain frame and the same frame under synthetic dust.

    70x61 leaves a partial tile on both axes for the dust index.
    """
    clean = make_clean_image(61, 70, 61)
    field = perlin2d(sample_params(mix64(62, 0)), 70, 61)
    light = AtmosphericLight(tuple(p * float(clean.data.max()) for p in (1.0, 0.8, 0.62)))
    return clean, synthesize_dusty(clean, make_transmission(field, 0.8), light)


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestGoldens:
    """Outputs pinned from the shifted-copy and per-tile loop implementations.

    Window minima are exact, so they are pinned by digest; the dust index and
    SSIM sum in a different order once vectorised, so they are pinned to
    1e-14 absolute.
    """

    def test_dark_channel_digest(self):
        clean, dusty = golden_frames()
        assert sha256(dark_channel(clean)) == "cb3b3b43ef3197d5691fb5a72f9de4344f87e7ad6f8444bc87528ce233cdf610"
        assert sha256(dark_channel(dusty)) == "b0e47aa91fccdd9926ff0158f81e52f908457dc837f37a8d48a0ba3d7ad60768"

    def test_channel_min_equals_axis_min(self):
        clean, dusty = golden_frames()
        for arr in (clean.data, dusty.data, clean.data[:, :, :1], dusty.data / 0.7):
            assert np.array_equal(channel_min(arr), arr.min(axis=-1))

    def test_min_filter_15_digest(self):
        clean, _ = golden_frames()
        assert sha256(min_filter2d(clean.data[:, :, 1], 15)) == "10bde511357552f27a1cfab51e17bbbc18679ce8236d8956f074ec583e37b7f1"

    def test_dust_index_values(self):
        clean, dusty = golden_frames()
        assert abs(dust_index(clean) - 0.22488965720006743) <= 1e-14
        assert abs(dust_index(dusty) - 0.43797183645269044) <= 1e-14

    def test_ssim_values(self):
        clean, dusty = golden_frames()
        assert abs(ssim(clean, dusty) - 0.7363729259515535) <= 1e-14
        gray = lambda img: Image(img.data[:, :, :1])
        assert abs(ssim(gray(dusty), gray(clean)) - 0.7664586619666645) <= 1e-14


class TestCorpusReport:
    @pytest.fixture()
    def image_dirs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for i in range(3):
            save_image(make_clean_image(100 + i, 32, 32), a / f"x{i}.png", 8)
            save_image(make_clean_image(200 + i, 32, 32), b / f"y{i}.png", 8)
        return a, b

    def test_single_image_set(self, tmp_path):
        d = tmp_path / "one"
        d.mkdir()
        save_image(make_clean_image(42, 32, 32), d / "only.png", 8)
        report = corpus_report({"solo": d})
        (summary,) = report.sets
        assert summary["n"] == 1
        assert summary["dust_index_std"] == 0.0
        assert summary["dust_index_mean"] == report.rows[0]["dust_index"]

    def test_mean_matches_scalar_loop(self, image_dirs):
        a, _ = image_dirs
        report = corpus_report({"a": a})
        vals = [row["dust_index"] for row in report.rows]
        naive = 0.0
        for v in vals:
            naive += v
        naive /= len(vals)
        assert abs(report.sets[0]["dust_index_mean"] - naive) < 1e-12

    def test_json_schema(self, image_dirs):
        a, b = image_dirs
        report = corpus_report({"a": a, "b": b})
        payload = json.loads(report.to_json())
        assert set(payload) == {"sets", "rows", "skipped"}
        assert payload["skipped"] == []
        for s in payload["sets"]:
            assert {"label", "n", "dust_index_mean", "dust_index_std"} <= set(s)
        for row in payload["rows"]:
            assert {"set", "path", "dust_index"} <= set(row)

    def test_empty_set_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValidationError, match="empty"):
            corpus_report({"clean": empty})

    def test_unreadable_rows_skipped_with_count(self, image_dirs, caplog):
        a, b = image_dirs
        broken = a / "broken.png"
        broken.write_bytes((b / "y0.png").read_bytes()[:60])  # truncated PNG

        with caplog.at_level(logging.WARNING, logger="marsdust.metrics"):
            report = corpus_report({"a": a, "b": b})
        assert [s["n"] for s in report.sets] == [3, 3]
        assert any("skipping" in rec.message for rec in caplog.records)
        (skip,) = json.loads(report.to_json())["skipped"]
        assert skip["path"] == str(broken)
        assert skip["reason"]
        assert report.skipped == [skip]

    def test_infinite_psnr_serialized_distinctly(self, tmp_path):
        from marsdust.degrade import DatasetManifest, PairRecord

        d_clean = tmp_path / "clean"
        d_dusty = tmp_path / "dusty"
        d_clean.mkdir()
        d_dusty.mkdir()
        img = make_clean_image(50, 32, 32)
        save_image(img, d_clean / "i.png", 8)
        save_image(img, d_dusty / "i.png", 8)  # identical pair -> infinite PSNR
        manifest = DatasetManifest(
            [PairRecord(str(d_clean / "i.png"), str(d_dusty / "i.png"),
                        64.0, 2, 2.0, 0.5, 0.4, (1.0, 1.0, 1.0), 0)]
        )
        report = corpus_report({"clean": d_clean, "dusty": d_dusty}, pairs=manifest)
        dusty = next(s for s in report.sets if s["label"] == "dusty")
        assert dusty["psnr_mean"] == math.inf
        payload = json.loads(report.to_json())
        s = next(s for s in payload["sets"] if s["label"] == "dusty")
        assert s["psnr_mean"] == "inf"
        assert s["ssim_mean"] == 1.0

    def test_pairing_of_another_size_skipped_with_both_sizes(self, tmp_path, caplog):
        from marsdust.degrade import DatasetManifest, PairRecord

        d_clean, d_dusty = tmp_path / "clean", tmp_path / "dusty"
        d_clean.mkdir()
        d_dusty.mkdir()
        for name, (w, h) in {"same": (32, 32), "wide": (40, 32)}.items():
            save_image(make_clean_image(60, 32, 32), d_clean / f"{name}.png", 8)
            save_image(make_clean_image(61, w, h), d_dusty / f"{name}.png", 8)
        manifest = DatasetManifest(
            [PairRecord(str(d_clean / f"{name}.png"), str(d_dusty / f"{name}.png"),
                        64.0, 2, 2.0, 0.5, 0.4, (1.0, 1.0, 1.0), 0) for name in ("same", "wide")]
        )
        with caplog.at_level(logging.WARNING, logger="marsdust.metrics"):
            report = corpus_report({"dusty": d_dusty}, pairs=manifest)
        reason = f"clean reference {d_clean / 'wide.png'} is 32x32x3, image is 40x32x3"
        assert report.skipped == [{"path": str(d_dusty / "wide.png"), "reason": reason}]
        assert [row["path"] for row in report.rows] == [str(d_dusty / "same.png")]
        assert "psnr" in report.rows[0] and report.sets[0]["n"] == 1
        assert [rec.getMessage() for rec in caplog.records] == [f"skipping {d_dusty / 'wide.png'}: {reason}"]
