"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The expensive criteria (3 and 4) share the session-scoped desk corpus and the
single acceptance-configuration training run from conftest.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from marsdust.degrade import (
    ALPHA_SET,
    AtmosphericLight,
    DatasetManifest,
    estimate_reflexivity,
    generate_pairs,
    make_transmission,
    replay_dusty,
    synthesize_dusty,
)
from marsdust.errors import ManifestError, WeightsFormatError
from marsdust.metrics import dust_index, psnr, ssim
from marsdust.noise import PerlinParams, perlin2d, sample_params
from marsdust.raster import Image, load_image, save_image
from marsdust.restore import invert_degradation, load_model, remove_estimated, remove_learned
from marsdust.rng import mix64
from marsdust.tinynet import load_weights, save_weights

from conftest import make_clean_image, make_dust_patches
from test_degrade import reflexivity_oracle


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_forward_inverse_roundtrip():
    rng = np.random.default_rng(12345)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(100):
        clean = Image(rng.random((128, 128, 3)))
        params = sample_params(mix64(1001, trial))
        field = perlin2d(params, 128, 128)
        alpha = float(rng.uniform(0.3, 0.95))  # keeps min T = 1 - alpha >= 0.05
        tmap = make_transmission(field, alpha)
        assert tmap.values.min() >= 0.05
        light = AtmosphericLight(tuple(rng.uniform(0.2, 1.0, 3)))
        dusty = synthesize_dusty(clean, tmap, light)
        restored = invert_degradation(dusty, tmap, light)
        worst = max(worst, float(np.abs(restored.data - clean.data).max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6, f"max abs error {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(1, f"100 round trips, max abs error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_gradient_correctness(full_network_gradcheck):
    worst = full_network_gradcheck["worst"]
    elapsed = full_network_gradcheck["seconds"]
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    n_params = full_network_gradcheck["n_params"]
    report(2, f"{n_params} parameters, max relative error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_training_convergence_and_dust_reduction(desk_corpus, trained_model):
    rep = trained_model["report"]
    first, final = rep.epoch_losses[0], rep.epoch_losses[-1]
    assert final <= 0.5 * first, f"loss {first:.5f} -> {final:.5f}"
    assert rep.seconds < 900.0, f"training took {rep.seconds:.0f} s"

    model = load_model(trained_model["weights_path"])
    routes = {"dusty": [], "analytic-est": [], "learned": []}  # (psnr, ssim, dust index) per pair
    for rec in desk_corpus["holdout_manifest"].records:
        clean, dusty = load_image(rec.clean), load_image(rec.dusty)
        restored = {"dusty": dusty, "analytic-est": remove_estimated(dusty),
                    "learned": remove_learned(dusty, model)}
        for label, img in restored.items():
            routes[label].append((psnr(img, clean), ssim(img, clean), dust_index(img)))
    for label, scores in routes.items():  # where the learned route stands; no gate
        mean_psnr, mean_ssim, mean_dust = np.mean(scores, axis=0)
        print(f"\nROUTE {label}: PSNR {mean_psnr:.2f}, SSIM {mean_ssim:.4f}, dust index {mean_dust:.4f}")
    mean_before = float(np.mean([dust for _, _, dust in routes["dusty"]]))
    mean_after = float(np.mean([dust for _, _, dust in routes["learned"]]))
    reduction = (mean_before - mean_after) / mean_before
    assert reduction >= 0.20, f"dust index reduction only {reduction:.1%}"
    report(
        3,
        f"loss {first:.4f} -> {final:.4f} (ratio {final / first:.2f}) in {rep.seconds:.0f} s; "
        f"held-out dust index {mean_before:.4f} -> {mean_after:.4f} (-{reduction:.1%})",
    )


def test_criterion_4_metric_ordering(desk_corpus, trained_model):
    model = load_model(trained_model["weights_path"])
    clean_scores = [
        dust_index(load_image(p)) for p in sorted(desk_corpus["clean_dir"].glob("*.png"))
    ]
    dusty_scores, restored_scores = [], []
    for rec in desk_corpus["manifest"].records:
        dusty = load_image(rec.dusty)
        dusty_scores.append(dust_index(dusty))
        restored_scores.append(dust_index(remove_learned(dusty, model)))
    clean_mean = float(np.mean(clean_scores))
    restored_mean = float(np.mean(restored_scores))
    dusty_mean = float(np.mean(dusty_scores))
    assert clean_mean < restored_mean < dusty_mean
    report(
        4,
        f"dust index means ordered: clean {clean_mean:.4f} < restored {restored_mean:.4f} "
        f"< dusty {dusty_mean:.4f}",
    )


def test_criterion_5_synthesis_protocol_fidelity(tmp_path):
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    n_clean = 3
    for i in range(n_clean):
        save_image(make_clean_image(600 + i, 48, 48), clean_dir / f"c{i}.png", 8)
    phi = estimate_reflexivity(make_dust_patches(23))
    manifest = generate_pairs(
        clean_dir, phi, maps_per_image=7, seed=77, out_dir=tmp_path / "dusty"
    )
    assert len(manifest.records) == 7 * n_clean

    by_clean = {}
    for rec in manifest.records:
        by_clean.setdefault(rec.clean, []).append(rec.alpha)
    for alphas in by_clean.values():
        assert sorted(alphas) == sorted(ALPHA_SET), "each alpha used exactly once per image"

    for rec in manifest.records:
        replayed = replay_dusty(rec)
        stored = load_image(rec.dusty)
        quantized = np.floor(replayed.data * 65535 + 0.5) / 65535
        assert np.array_equal(quantized, stored.data), "replay is bit-identical"
    report(5, f"{7 * n_clean} pairs, alpha protocol exact, every manifest tuple replays bit-identically")


def test_criterion_6_reflexivity_oracle_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        patches = [
            Image(np.clip(rng.random((int(rng.integers(2, 7)), int(rng.integers(2, 7)), 3)) + 0.02, 0, 1))
            for _ in range(int(rng.integers(1, 5)))
        ]
        got = estimate_reflexivity(patches).phi
        want = reflexivity_oracle(patches)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    assert worst < 1e-12

    # hand-arithmetic examples, exact in the same float arithmetic
    gray = estimate_reflexivity([Image(np.full((4, 4, 3), 0.3))]).phi
    assert gray == (1.0, 1.0, 1.0)
    tinted = estimate_reflexivity([Image(np.tile(np.array([0.8, 0.6, 0.4]), (5, 5, 1)))]).phi
    assert tinted == (1.0, 0.6 / 0.8, 0.4 / 0.8)
    report(6, f"oracle max deviation {worst:.2e} over 20 patch sets; hand examples exact")


def test_criterion_7_perlin_determinism_and_range():
    params = PerlinParams(16.0, 3, 2.0, 0.6, seed=4242)
    base = perlin2d(params, 96, 64).values
    again = perlin2d(params, 96, 64).values
    assert np.array_equal(base, again)

    with ThreadPoolExecutor(max_workers=4) as pool:
        fields = list(pool.map(lambda _: perlin2d(params, 96, 64).values, range(8)))
    for f in fields:
        assert np.array_equal(f, base), "bit-identical across worker threads"

    assert base.min() >= 0.0 and base.max() <= 1.0

    lattice = perlin2d(PerlinParams(8.0, 1, 2.0, 0.5, seed=7), 33, 33).values
    grid = lattice[::8, ::8]
    assert np.all(grid == 0.5), "single-octave lattice points equal 0.5"
    report(7, "fields bit-identical across runs and threads; range [0,1]; lattice points 0.5")


def test_criterion_8_format_roundtrips(tmp_path, desk_corpus):
    # weights round trip
    from test_weights import sample_weights

    wpath = tmp_path / "w.mdw"
    save_weights(sample_weights(), wpath)
    twice = tmp_path / "w2.mdw"
    save_weights(load_weights(wpath), twice)
    assert wpath.read_bytes() == twice.read_bytes()

    corrupted = tmp_path / "bad.mdw"
    corrupted.write_bytes(wpath.read_bytes()[:-7])
    with pytest.raises(WeightsFormatError):
        load_weights(corrupted)
    not_weights = tmp_path / "junk.mdw"
    not_weights.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(WeightsFormatError):
        load_weights(not_weights)

    # manifest round trip
    manifest = desk_corpus["manifest"]
    mpath = tmp_path / "m.jsonl"
    manifest.save(mpath)
    assert DatasetManifest.load(mpath).records == manifest.records
    again = tmp_path / "m2.jsonl"
    DatasetManifest.load(mpath).save(again)
    assert mpath.read_bytes() == again.read_bytes()

    broken = tmp_path / "broken.jsonl"
    broken.write_text(mpath.read_text()[: len(mpath.read_text()) // 2].rsplit("\n", 1)[0] + '\n{"x":')
    with pytest.raises(ManifestError):
        DatasetManifest.load(broken)
    report(8, "weights and manifest survive save->load bit-exactly; corruption raises typed errors")
