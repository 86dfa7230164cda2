import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsdust.degrade import (
    AtmosphericLight,
    Reflexivity,
    auto_select_dusty_patches,
    estimate_atmospheric_light,
    estimate_reflexivity,
    generate_pairs,
    make_transmission,
    synthesize_dusty,
)
from marsdust.errors import EstimationError, ValidationError, WeightsFormatError
from marsdust.metrics import dust_index, psnr
from marsdust.noise import NoiseField, perlin2d, sample_params
from marsdust.raster import Image, load_image, save_image
from marsdust.restore import (
    T_FLOOR,
    estimate_transmission,
    invert_degradation,
    load_model,
    remove_estimated,
    remove_known,
    remove_learned,
)
from marsdust.rng import mix64

from conftest import make_clean_image


class TestInvert:
    def test_full_transmission_identity(self):
        rng = np.random.default_rng(0)
        H = Image(rng.random((6, 6, 3)))
        out = invert_degradation(H, NoiseField(np.ones((6, 6))), AtmosphericLight((0.5, 0.5, 0.5)))
        assert np.array_equal(out.data, H.data)

    def test_direct_arithmetic(self):
        H = Image(np.full((1, 1, 1), 0.7))
        out = invert_degradation(H, NoiseField(np.full((1, 1), 0.5)), AtmosphericLight((0.6,)))
        assert abs(out.data[0, 0, 0] - 0.8) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        channels=st.sampled_from([1, 3]),
        light=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=3, max_size=3),
        t_low=st.floats(T_FLOOR, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, channels, light, t_low, seed):
        # invert(synthesize(C)) == C for every T in [T_FLOOR, 1], T_FLOOR itself
        # included, any per-channel light in (0, 1] and 1 or 3 channels
        rng = np.random.default_rng(seed)
        C = Image(rng.random((12, 12, channels)))
        t = rng.uniform(t_low, 1.0, (12, 12))
        t[0, 0], t[-1, -1] = T_FLOOR, 1.0
        tmap = NoiseField(t)
        L = AtmosphericLight(tuple(light[:channels]))
        back = invert_degradation(synthesize_dusty(C, tmap, L), tmap, L)
        assert np.abs(back.data - C.data).max() < 1e-6

    def test_output_clamped_for_arbitrary_inputs(self):
        rng = np.random.default_rng(2)
        H = Image(rng.random((8, 8, 3)))
        tmap = NoiseField(rng.random((8, 8)) * 0.2)  # heavy dust, below floor
        out = invert_degradation(H, tmap, AtmosphericLight((1.0, 1.0, 1.0)))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            invert_degradation(
                Image(np.zeros((4, 4, 1))), NoiseField(np.ones((5, 4))), AtmosphericLight((0.5,))
            )


class TestEstimateTransmission:
    def test_pure_dust_image(self):
        light = AtmosphericLight((0.8, 0.64, 0.5))
        H = Image(np.tile(np.array(light.values), (9, 9, 1)))
        tmap = estimate_transmission(H, light, window=3, omega=0.95)
        assert np.allclose(tmap.values, 0.05, rtol=0, atol=1e-12)

    def test_dark_channel_zero_means_dust_free(self):
        rng = np.random.default_rng(3)
        arr = rng.random((9, 9, 3)) * 0.8
        arr[::2, ::2, 2] = 0.0  # a zero-valued channel in every 3x3 window
        H = Image(arr)
        tmap = estimate_transmission(H, AtmosphericLight((0.9, 0.9, 0.9)), window=3)
        assert np.all(tmap.values == 1.0)

    def test_monotone_in_omega(self):
        H = make_clean_image(60, 32, 32)
        light = AtmosphericLight((0.9, 0.7, 0.55))
        t1 = estimate_transmission(H, light, omega=0.8)
        t2 = estimate_transmission(H, light, omega=0.95)
        assert np.all(t2.values <= t1.values + 1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        channels=st.sampled_from([1, 3]),
        light=st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3),
        window=st.integers(0, 8).map(lambda k: 2 * k + 1),
        omega=st.floats(0.0, 1.0, exclude_min=True),
        size=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_range(self, channels, light, window, omega, size, seed):
        rng = np.random.default_rng(seed)
        H = Image(rng.random(size + (channels,)))
        tmap = estimate_transmission(H, AtmosphericLight(tuple(light[:channels])), window, omega)
        assert tmap.values.shape == size
        assert tmap.values.min() >= T_FLOOR and tmap.values.max() <= 1.0

    def test_zero_light_rejected(self):
        H = Image(np.full((4, 4, 1), 0.5))
        with pytest.raises(EstimationError):
            estimate_transmission(H, AtmosphericLight((0.0,)))

    def test_even_window_rejected(self):
        H = Image(np.full((4, 4, 1), 0.5))
        with pytest.raises(ValidationError):
            estimate_transmission(H, AtmosphericLight((0.5,)), window=4)

    def test_mean_absolute_error_on_desk_corpus(self, desk_corpus):
        # measured against manifest ground truth; threshold fixed by the oracle run
        errors = []
        for rec in desk_corpus["manifest"].records:
            H = load_image(rec.dusty)
            t_est = estimate_transmission(H, AtmosphericLight(rec.light))
            t_true = make_transmission(
                perlin2d(rec.perlin_params, H.width, H.height), rec.alpha
            )
            errors.append(float(np.mean(np.abs(t_est.values - t_true.values))))
        assert float(np.mean(errors)) <= 0.15


class TestLoadModel:
    def test_missing_weights_file_is_a_weights_error(self, tmp_path):
        with pytest.raises(WeightsFormatError, match="absent.mdw"):
            load_model(tmp_path / "absent.mdw")

    def test_corrupt_weights_file_is_a_weights_error(self, tmp_path):
        path = tmp_path / "bad.mdw"
        path.write_bytes(b"not weights")
        with pytest.raises(WeightsFormatError, match="bad magic"):
            load_model(path)


class TestRemoveDust:
    def test_analytic_known_recovers_clean(self, desk_corpus):
        from marsdust.degrade import replay_dusty

        for rec in desk_corpus["manifest"].records[:6]:
            H = load_image(rec.dusty)
            C = load_image(rec.clean)
            restored = remove_known(H, rec)
            # dusty went through 16-bit quantization; inversion amplifies by <= 1/T_FLOOR
            assert np.abs(restored.data - C.data).max() < (0.5 / 65535) / 0.05 + 1e-9
            # pre-quantization, the manifest tuple inverts to the clean image
            exact = remove_known(replay_dusty(rec), rec)
            assert np.abs(exact.data - C.data).max() < 1e-6

    def test_analytic_estimated_reduces_dust(self, desk_corpus):
        wins = 0
        records = desk_corpus["manifest"].records[:10]
        for rec in records:
            H = load_image(rec.dusty)
            if dust_index(remove_estimated(H)) < dust_index(H):
                wins += 1
        assert wins >= 9

    def test_output_dims_preserved_all_methods(self, desk_corpus, trained_model):
        rec = desk_corpus["manifest"].records[0]
        H = load_image(rec.dusty)
        for out in [
            remove_known(H, rec),
            remove_estimated(H),
            remove_learned(H, load_model(trained_model["weights_path"])),
        ]:
            assert out.data.shape == H.data.shape

    def test_learned_handles_non_multiple_of_four_dims(self, trained_model):
        H = make_clean_image(77, 50, 46)
        out = remove_learned(H, load_model(trained_model["weights_path"]))
        assert (out.height, out.width) == (46, 50)

    def test_learned_near_identity_on_zero_dust_input(self, desk_corpus, trained_model):
        # inputs synthesized with alpha -> 0 must pass through nearly unchanged
        model = load_model(trained_model["weights_path"])
        changes = []
        for i, rec in enumerate(desk_corpus["holdout_manifest"].records):
            C = load_image(rec.clean)
            field = perlin2d(rec.perlin_params, C.width, C.height)
            tmap = make_transmission(field, 0.01)
            H = synthesize_dusty(C, tmap, AtmosphericLight(rec.light))
            restored = remove_learned(H, model)
            changes.append(abs(float(restored.data.mean() - H.data.mean())))
        assert max(changes) < 0.02

    def test_dust_index_strictly_decreases_for_every_method(self, desk_corpus, trained_model):
        # >= 90% of the 50-pair desk set must improve under each route
        model = load_model(trained_model["weights_path"])
        records = desk_corpus["manifest"].records
        wins = {"learned": 0, "known": 0, "est": 0}
        for rec in records:
            H = load_image(rec.dusty)
            before = dust_index(H)
            wins["learned"] += dust_index(remove_learned(H, model)) < before
            wins["known"] += dust_index(remove_known(H, rec)) < before
            wins["est"] += dust_index(remove_estimated(H)) < before
        n = len(records)
        for name, count in wins.items():
            assert count >= 0.9 * n, f"{name}: {count}/{n}"


class TestKnownReplayDigests:
    """The float64 arrays behind ``remove --method analytic-known``, for two
    records of one fixed synth run: the decoded 16-bit dusty PNG and its
    exact inversion with the record's transmission and light."""

    WANT = {
        0: ("4dd6159c27bb49645d7a9886c4235de7f4c7d1d56110b6e9306cb028ca97560f",
            "4ee732a486ecbeb6b9ef6f4a8cda9ea64bc4c46663e9444f7d4e7c83059edc4b"),
        3: ("6d2f653e12c8d6ccfe75f95cf232c786467b7f542efc2b2cd0f5fdf4ad4d61f0",
            "31f522b93dc5bbeb748fb2f459cf40974e844a3418dccb04c53dd217e810c022"),
    }

    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("known_replay")
        (root / "clean").mkdir()
        save_image(make_clean_image(41, 96, 80), root / "clean" / "a.png", 8)
        save_image(make_clean_image(42, 70, 90), root / "clean" / "b.png", 8)
        phi = Reflexivity((1.0, 0.80, 0.62))
        return generate_pairs(root / "clean", phi, root / "dusty", maps_per_image=2, seed=17).records

    @pytest.mark.parametrize("index", sorted(WANT))
    def test_dusty_decode_and_known_removal_digests(self, records, index):
        rec = records[index]
        H = load_image(rec.dusty)
        got = [hashlib.sha256(a.tobytes()).hexdigest() for a in (H.data, remove_known(H, rec).data)]
        assert got == list(self.WANT[index])


@functools.lru_cache(maxsize=1)
def picker_frames() -> dict[str, Image]:
    """Dusty conftest frames for the patch-picker goldens."""

    def dusty(seed, w, h):
        clean = make_clean_image(seed, w, h)
        field = perlin2d(sample_params(mix64(seed, 0)), w, h)
        light = AtmosphericLight(tuple(p * float(clean.data.max()) for p in (1.0, 0.8, 0.62)))
        return synthesize_dusty(clean, make_transmission(field, 0.7), light)

    # two 32px tiles, each laid out six times under quarter turns and flips:
    # distinct tiles whose scores tie exactly
    pair = dusty(75, 64, 32).data
    a, b = pair[:, :32], pair[:, 32:]
    turned = [np.rot90(t, k) for t in (a, b) for k in range(4)]
    turned += [np.rot90(t, k)[:, ::-1] for t in (b, a) for k in (1, 3)]
    rows = [np.concatenate(turned[i : i + 4], axis=1) for i in (0, 4, 8)]
    return {
        "rgb_200x130": dusty(71, 200, 130),  # partial tiles on both axes
        "rgb_256x192": dusty(72, 256, 192),
        "gray_96x160": Image(dusty(73, 96, 160).data[:, :, 1:2]),
        # quantised to two levels; flat sub-tiles score exactly zero contrast
        "two_level_128x96": Image(0.2 + 0.6 * np.round(dusty(74, 128, 96).data)),
        "flat_96x64": Image(np.full((64, 96, 3), 0.6)),
        "turned_tiles_128x96": Image(np.concatenate(rows, axis=0)),
        "rgb_33x40": dusty(76, 33, 40),  # a single tile
    }


def picked_indices(img: Image, patches: list[Image]) -> list[int]:
    """Row-major index of the tile each patch was cut from; a patch equal to
    several tiles takes the first one not taken yet."""
    t = 32
    tiles = [img.data[y : y + t, x : x + t] for y in range(0, img.height - t + 1, t)
             for x in range(0, img.width - t + 1, t)]
    out = []
    for p in patches:
        out.append(next(k for k, tile in enumerate(tiles)
                        if k not in out and np.array_equal(tile, p.data)))
    return out


class TestPickerGoldens:
    """The heavy-dust tiles auto_select_dusty_patches picks, in order, and the
    analytic-estimated removal that rests on them, pinned from the per-tile
    crop-and-score implementation."""

    WANT = {
        "flat_96x64": ([0, 1, 2, 3, 4, 5], "ec400b8e53ecd98d2fbf07a1591f905fd95f76a434e4017157c16e3ab5a14f8b"),
        "gray_96x160": ([6, 7, 0, 2, 3, 10, 1, 8], "42230412971a1c7c3ed3f761c4856a09f50b741193081e163231983f2748ddde"),
        "rgb_200x130": ([23, 22, 20, 17, 15, 19, 16, 9], "726c471f3474b22ea224b73e4d2ce8fc218d3ec4eacb77ce4c3397d9e2d28d92"),
        "rgb_256x192": ([31, 46, 12, 6, 47, 45, 37, 13], "b011dfa96a4a5e71ea61c1e9aa4d0b3c35763d1987d584023af128913c2ddd5c"),
        "rgb_33x40": ([0], "f60e23dbcf065d82257277af63fd05c4b99c62bf65b34dec2bc71de84393d231"),
        "turned_tiles_128x96": ([0, 1, 2, 3, 10, 11, 4, 5], "3eef7356ca3d9bf8d94355b74291349b7ea548f3340c6d18ec0bc708d6ff4810"),
        "two_level_128x96": ([10, 3, 7, 11, 9, 8, 4, 6], "992210ded5427a5c1411c190acd313f39a89bcef8028acbfe8135325aea631a8"),
    }

    @pytest.mark.parametrize("name", sorted(WANT))
    def test_picked_tiles_and_removal_digest(self, name):
        img = picker_frames()[name]
        indices, digest = self.WANT[name]
        assert picked_indices(img, auto_select_dusty_patches(img)) == indices
        out = remove_estimated(img)
        assert hashlib.sha256(out.data.tobytes()).hexdigest() == digest


class TestEstimatorConsistency:
    """Where T -> 0 a dusty pixel tends to the light, whose channel ratios are
    phi, so phi estimated from the tiles auto_select_dusty_patches picks
    comes closer to the true phi as alpha grows.  Each 256x256 conftest
    frame carries one Perlin map, the same at every alpha."""

    PHI = Reflexivity((1.0, 0.80, 0.62))
    ALPHAS = (0.6, 0.8, 1.0)
    # The alpha 1.0 bound is the worst max |d phi| of frames 901-906 (0.0435;
    # medians 0.0765 / 0.0559 / 0.0395 per alpha) plus about 15 %.  It is
    # checked on frames 911-916, which played no part in choosing it.
    BOUND_AT_FULL_ALPHA = 0.05
    SEEDS = range(911, 917)

    @pytest.fixture(scope="class")
    def runs(self):
        """(clean, dusty, max |d phi|) per frame, keyed by alpha."""
        out = {alpha: [] for alpha in self.ALPHAS}
        for seed in self.SEEDS:
            clean = make_clean_image(seed, 256, 256)
            light = estimate_atmospheric_light(clean, self.PHI)
            field = perlin2d(sample_params(mix64(seed, 0)), 256, 256)
            for alpha in self.ALPHAS:
                dusty = synthesize_dusty(clean, make_transmission(field, alpha), light)
                phi = estimate_reflexivity(auto_select_dusty_patches(dusty)).phi
                out[alpha].append((clean, dusty, max(abs(a - b) for a, b in zip(phi, self.PHI.phi))))
        return out

    def test_median_phi_error_shrinks_as_alpha_grows(self, runs):
        medians = [float(np.median([err for *_, err in runs[alpha]])) for alpha in self.ALPHAS]
        assert medians[0] > medians[1] > medians[2], medians

    def test_phi_error_bounded_at_full_alpha_on_every_frame(self, runs):
        errors = [err for *_, err in runs[1.0]]
        assert max(errors) <= self.BOUND_AT_FULL_ALPHA, errors

    def test_estimated_removal_beats_the_dusty_psnr_on_every_frame(self, runs):
        for alpha in self.ALPHAS:
            for clean, dusty, _ in runs[alpha]:
                assert psnr(clean, remove_estimated(dusty)) > psnr(clean, dusty), alpha
