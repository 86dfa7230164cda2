import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marsdust.degrade import (
    ALPHA_SET,
    AtmosphericLight,
    DatasetManifest,
    PairRecord,
    Reflexivity,
    auto_select_dusty_patches,
    estimate_atmospheric_light,
    estimate_reflexivity,
    generate_pairs,
    is_number,
    make_transmission,
    replay_dusty,
    synthesize_dusty,
)
from marsdust.errors import EstimationError, ManifestError, ValidationError
from marsdust.noise import MAX_OCTAVES, NoiseField
from marsdust.pngio import read_png
from marsdust.raster import Image, load_image

from conftest import make_clean_image, make_dust_patches


def reflexivity_oracle(patches):
    """Independent scalar-loop double sum, straight from the definition."""
    channels = patches[0].channels
    per_patch = []
    for patch in patches:
        sums = [0.0] * channels
        counted = 0
        for y in range(patch.height):
            for x in range(patch.width):
                m = max(patch.data[y, x, c] for c in range(channels))
                if m <= 0.0:
                    continue
                counted += 1
                for c in range(channels):
                    sums[c] += patch.data[y, x, c] / m
        if counted:
            per_patch.append([s / counted for s in sums])
    return [sum(p[c] for p in per_patch) / len(per_patch) for c in range(channels)]


class TestTransmission:
    def test_zero_noise_is_fully_transparent(self):
        t = make_transmission(NoiseField(np.zeros((4, 5))), 0.7)
        assert np.all(t.values == 1.0)

    def test_full_noise_full_alpha_is_opaque(self):
        t = make_transmission(NoiseField(np.ones((3, 3))), 1.0)
        assert np.all(t.values == 0.0)

    def test_direct_arithmetic(self):
        t = make_transmission(NoiseField(np.full((2, 2), 0.5)), 0.6)
        assert np.allclose(t.values, 0.7, rtol=0, atol=1e-15)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        field = NoiseField(rng.random((16, 16)))
        t1 = make_transmission(field, 0.4)
        t2 = make_transmission(field, 0.9)
        assert np.all(t1.values >= t2.values)

    def test_output_within_band(self):
        rng = np.random.default_rng(2)
        field = NoiseField(rng.random((8, 8)))
        t = make_transmission(field, 0.6)
        assert t.values.min() >= 1 - 0.6 - 1e-15 and t.values.max() <= 1.0

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            make_transmission(NoiseField(np.zeros((2, 2))), 0.0)
        with pytest.raises(ValidationError):
            make_transmission(NoiseField(np.zeros((2, 2))), 1.1)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_field_rejects_values_outside_unit_range(self, bad):
        arr = np.full((2, 2), 0.5)
        arr[1, 0] = bad
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            NoiseField(arr)


class TestReflexivity:
    def test_gray_patch_gives_unit_phi(self):
        patch = Image(np.full((4, 4, 3), 0.3))
        phi = estimate_reflexivity([patch])
        assert phi.phi == (1.0, 1.0, 1.0)

    def test_constant_color_patch(self):
        patch = Image(np.tile(np.array([0.8, 0.6, 0.4]), (5, 5, 1)))
        phi = estimate_reflexivity([patch])
        # (1, 0.75, 0.5) computed in the same float arithmetic as the example
        assert phi.phi == (1.0, 0.6 / 0.8, 0.4 / 0.8)

    def test_two_patch_average(self):
        p1 = Image(np.tile(np.array([0.9, 0.72, 0.54]), (3, 3, 1)))  # (1, .8, .6)
        p2 = Image(np.tile(np.array([0.5, 0.3, 0.2]), (3, 3, 1)))  # (1, .6, .4)
        phi = estimate_reflexivity([p1, p2])
        assert np.allclose(phi.phi, (1.0, 0.7, 0.5), rtol=0, atol=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            patches = [
                Image(np.clip(rng.random((rng.integers(2, 6), rng.integers(2, 6), 3)) + 0.05, 0, 1))
                for _ in range(rng.integers(1, 5))
            ]
            got = estimate_reflexivity(patches).phi
            want = reflexivity_oracle(patches)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12

    def test_zero_max_pixels_skipped(self):
        arr = np.full((2, 2, 3), 0.5)
        arr[0, 0] = 0.0  # black pixel must not poison the average
        phi = estimate_reflexivity([Image(arr)])
        assert phi.phi == (1.0, 1.0, 1.0)

    def test_fully_black_patch_dropped(self):
        black = Image(np.zeros((2, 2, 3)))
        ok = Image(np.tile(np.array([0.8, 0.6, 0.4]), (2, 2, 1)))
        phi = estimate_reflexivity([black, ok])
        assert phi.phi == (1.0, 0.6 / 0.8, 0.4 / 0.8)

    def test_empty_set_rejected(self):
        with pytest.raises(EstimationError):
            estimate_reflexivity([])

    def test_all_black_rejected(self):
        with pytest.raises(EstimationError):
            estimate_reflexivity([Image(np.zeros((2, 2, 3)))])

    def test_zero_channel_rejected_by_name(self):
        arr = np.full((4, 4, 3), 0.5)
        arr[..., 2] = 0.0
        with pytest.raises(EstimationError, match="no signal in channel 2"):
            estimate_reflexivity([Image(arr)])

    def test_phi_max_at_most_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            patches = [Image(np.clip(rng.random((4, 4, 3)) + 0.01, 0, 1)) for _ in range(3)]
            assert max(estimate_reflexivity(patches).phi) <= 1.0 + 1e-12


class TestAtmosphericLight:
    def test_unit_phi(self):
        img = Image(np.full((3, 3, 3), 0.9))
        light = estimate_atmospheric_light(img, Reflexivity((1.0, 1.0, 1.0)))
        assert light.values == (0.9, 0.9, 0.9)

    def test_direct_arithmetic(self):
        arr = np.zeros((2, 2, 3))
        arr[0, 0] = (0.8, 0.1, 0.2)
        img = Image(arr)
        light = estimate_atmospheric_light(img, Reflexivity((1.0, 0.75, 0.5)))
        # (0.8, 0.6, 0.4) in the same float arithmetic as the example
        assert light.values == (1.0 * 0.8, 0.75 * 0.8, 0.5 * 0.8)

    def test_scaling_property(self):
        rng = np.random.default_rng(9)
        phi = Reflexivity((1.0, 0.7, 0.55))
        for k in (0.25, 0.5, 0.99):
            base = rng.random((6, 6, 3))
            l1 = estimate_atmospheric_light(Image(base), phi)
            l2 = estimate_atmospheric_light(Image(base * k), phi)
            assert np.allclose(np.array(l2.values), k * np.array(l1.values), rtol=1e-15)

    def test_channel_mismatch(self):
        with pytest.raises(ValidationError):
            estimate_atmospheric_light(Image(np.zeros((2, 2, 1))), Reflexivity((1.0, 0.5, 0.5)))


class TestSynthesize:
    def test_full_transmission_is_identity(self):
        rng = np.random.default_rng(3)
        img = Image(rng.random((5, 5, 3)))
        out = synthesize_dusty(img, NoiseField(np.ones((5, 5))), AtmosphericLight((0.9, 0.8, 0.7)))
        assert np.array_equal(out.data, img.data)

    def test_zero_transmission_is_light(self):
        rng = np.random.default_rng(4)
        img = Image(rng.random((5, 5, 3)))
        light = AtmosphericLight((0.9, 0.8, 0.7))
        out = synthesize_dusty(img, NoiseField(np.zeros((5, 5))), light)
        assert np.allclose(out.data, np.array(light.values), rtol=0, atol=1e-15)

    def test_direct_arithmetic(self):
        img = Image(np.full((1, 1, 1), 0.8))
        out = synthesize_dusty(img, NoiseField(np.full((1, 1), 0.5)), AtmosphericLight((0.6,)))
        assert abs(out.data[0, 0, 0] - 0.7) < 1e-15

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(6)
        img = Image(rng.random((8, 8, 3)))
        tmap = NoiseField(rng.random((8, 8)))
        light = AtmosphericLight((0.9, 0.5, 0.2))
        out = synthesize_dusty(img, tmap, light)
        low = np.minimum(img.data, np.array(light.values))
        high = np.maximum(img.data, np.array(light.values))
        assert np.all(out.data >= low - 1e-12) and np.all(out.data <= high + 1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            synthesize_dusty(
                Image(np.zeros((4, 4, 1))), NoiseField(np.ones((3, 4))), AtmosphericLight((0.5,))
            )


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    clean_dir = root / "clean"
    clean_dir.mkdir()
    from marsdust.raster import save_image

    for i in range(3):
        save_image(make_clean_image(500 + i, 48, 40), clean_dir / f"c{i}.png", 8)
    phi = estimate_reflexivity(make_dust_patches(9))
    return root, clean_dir, phi


class TestGeneratePairs:
    def test_counts_and_alpha_protocol(self, small_corpus):
        root, clean_dir, phi = small_corpus
        manifest = generate_pairs(clean_dir, phi, maps_per_image=7, seed=11, out_dir=root / "d1")
        assert len(manifest.records) == 3 * 7
        by_clean = {}
        for rec in manifest.records:
            by_clean.setdefault(rec.clean, []).append(rec.alpha)
        for alphas in by_clean.values():
            assert sorted(alphas) == sorted(ALPHA_SET)

    def test_deterministic_bytes(self, small_corpus):
        root, clean_dir, phi = small_corpus
        m1 = generate_pairs(clean_dir, phi, maps_per_image=1, seed=5, out_dir=root / "d2a")
        m2 = generate_pairs(clean_dir, phi, maps_per_image=1, seed=5, out_dir=root / "d2b")
        for r1, r2 in zip(m1.records, m2.records):
            b1 = open(r1.dusty, "rb").read()
            b2 = open(r2.dusty, "rb").read()
            assert b1 == b2

    def test_jobs_do_not_change_output(self, small_corpus):
        root, clean_dir, phi = small_corpus
        m1 = generate_pairs(clean_dir, phi, maps_per_image=2, seed=8, out_dir=root / "d3a", jobs=1)
        m2 = generate_pairs(clean_dir, phi, maps_per_image=2, seed=8, out_dir=root / "d3b", jobs=3)
        assert [r.seed for r in m1.records] == [r.seed for r in m2.records]
        for r1, r2 in zip(m1.records, m2.records):
            assert open(r1.dusty, "rb").read() == open(r2.dusty, "rb").read()

    def test_replay_is_bit_identical(self, small_corpus):
        root, clean_dir, phi = small_corpus
        manifest = generate_pairs(clean_dir, phi, maps_per_image=2, seed=13, out_dir=root / "d4")
        for rec in manifest.records:
            replayed = replay_dusty(rec)
            again = replay_dusty(rec)
            assert np.array_equal(replayed.data, again.data)
            stored = load_image(rec.dusty)
            q = np.floor(replayed.data * 65535 + 0.5) / 65535
            assert np.array_equal(q, stored.data)

    def test_clean_files_sharing_a_stem_rejected_before_writing(self, tmp_path, small_corpus):
        root, clean_dir, phi = small_corpus
        src = tmp_path / "clean"
        src.mkdir()
        blob = (clean_dir / "c0.png").read_bytes()
        (src / "x.png").write_bytes(blob)
        (src / "x.PNG").write_bytes(blob)
        if len(list(src.iterdir())) != 2:
            pytest.skip("file system folds the case of file names")
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match="x.PNG and x.png"):
            generate_pairs(src, phi, out_dir=out)
        assert not out.exists()

    def test_uppercase_suffix_read(self, tmp_path, small_corpus):
        root, clean_dir, phi = small_corpus
        src = tmp_path / "clean"
        src.mkdir()
        (src / "A.PNG").write_bytes((clean_dir / "c0.png").read_bytes())
        manifest = generate_pairs(src, phi, maps_per_image=1, out_dir=tmp_path / "out")
        assert [Path(r.dusty).name for r in manifest.records] == ["A_d00.png"]

    def test_empty_dir_rejected(self, tmp_path, small_corpus):
        _, _, phi = small_corpus
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(ValidationError, match="no PNG"):
            generate_pairs(empty, phi, out_dir=tmp_path / "out")

    def test_blank_dir_is_not_the_working_directory(self, tmp_path, monkeypatch, small_corpus):
        _, clean_dir, phi = small_corpus
        (tmp_path / "c0.png").write_bytes((clean_dir / "c0.png").read_bytes())
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match="blank"):
            generate_pairs("", phi, out_dir="out")
        assert [p.name for p in tmp_path.iterdir()] == ["c0.png"]


# (file, scale, octaves, lacunarity, persistence, alpha, light, seed) of
# generate_pairs(small corpus, maps_per_image=3, seed=21), frozen once
GOLDEN_RECORDS = [
    ("c0_d00.png", 236.9454052575297, 4, 1.9829781926228969, 0.43158122530329646, 0.4,
     (0.8549019607843137, 0.6839215686274407, 0.5300392156862777), 5159305387576530153),
    ("c0_d01.png", 315.4201493679026, 4, 2.019088051042138, 0.41025082831856835, 0.8,
     (0.8549019607843137, 0.6839215686274407, 0.5300392156862777), 5627343053366927699),
    ("c0_d02.png", 449.6622304507108, 4, 2.044070897552121, 0.45648283043395665, 1.0,
     (0.8549019607843137, 0.6839215686274407, 0.5300392156862777), 8658445195005424925),
    ("c1_d00.png", 390.46336928386484, 3, 2.1931795468995654, 0.4038548698547471, 0.5,
     (0.8392156862745098, 0.6713725490195978, 0.5203137254901993), 1371860534943824282),
    ("c1_d01.png", 491.3817706754361, 5, 1.8347661572332061, 0.6134480841741153, 1.0,
     (0.8392156862745098, 0.6713725490195978, 0.5203137254901993), 17554665624168973222),
    ("c1_d02.png", 236.49164964405242, 4, 2.137385992338713, 0.6453735979746473, 0.4,
     (0.8392156862745098, 0.6713725490195978, 0.5203137254901993), 8706629484055102569),
    ("c2_d00.png", 359.49196745815294, 5, 2.061791165784198, 0.4067174606826297, 0.9,
     (0.8666666666666667, 0.6933333333333229, 0.5373333333333367), 8780117795568248025),
    ("c2_d01.png", 476.69090779746904, 4, 2.068337626666561, 0.5014296984975523, 0.8,
     (0.8666666666666667, 0.6933333333333229, 0.5373333333333367), 10059520820502437724),
    ("c2_d02.png", 194.02513674068942, 2, 2.0096980236974877, 0.6367838690455054, 0.4,
     (0.8666666666666667, 0.6933333333333229, 0.5373333333333367), 880937742658028060),
]


class TestGoldens:
    """generate_pairs output on conftest frames, pinned before the synthesis
    options were folded into constants."""

    @pytest.fixture(scope="class")
    def golden_manifest(self, small_corpus):
        root, clean_dir, phi = small_corpus
        return generate_pairs(clean_dir, phi, maps_per_image=3, seed=21, out_dir=root / "golden")

    def test_manifest_numeric_fields(self, golden_manifest):
        got = [
            (Path(r.dusty).name, r.scale, r.octaves, r.lacunarity, r.persistence, r.alpha, r.light, r.seed)
            for r in golden_manifest.records
        ]
        assert got == GOLDEN_RECORDS

    def test_dusty_samples_digest(self, golden_manifest):
        # decoded samples rather than file bytes, so the zlib build does not matter
        h = hashlib.sha256()
        for rec in golden_manifest.records:
            samples, depth = read_png(rec.dusty)
            assert depth == 16
            h.update(samples.tobytes())
        assert h.hexdigest() == "bcbc611efccf907bcdf0dd458620785a96fde3dce3280c8668a5a05b8ed14bdd"


def _unit_interval(exclude_min: bool):
    return st.floats(0.0, 1.0, exclude_min=exclude_min)


# Paths of any text, rich in the quotes, backslashes, newlines and U+2028
# that JSON escapes; records over the field domains synth can write.
_paths = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\u2028')), max_size=12)
_records = st.builds(
    PairRecord,
    clean=_paths,
    dusty=_paths,
    scale=st.floats(0.0, 1e300, exclude_min=True),
    octaves=st.integers(1, MAX_OCTAVES),
    lacunarity=st.floats(1.0, 1e6, exclude_min=True),
    persistence=_unit_interval(exclude_min=True),
    alpha=_unit_interval(exclude_min=True),
    light=st.lists(_unit_interval(exclude_min=False), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**64 - 1),
)


class TestManifest:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(_records, max_size=4))
    def test_save_then_load_returns_equal_records(self, tmp_path, records):
        DatasetManifest(records).save(tmp_path / "m.jsonl")
        assert DatasetManifest.load(tmp_path / "m.jsonl").records == records

    def test_is_number_takes_what_a_float_holds(self):
        largest = 2**1024 - 2**970 - 1  # float() rounds it to the largest finite float
        assert all(map(is_number, [0, -3, 1.5, float("inf"), largest, -largest]))
        assert not any(map(is_number, [True, "1", None, [1.0], largest + 1, -(10**400)]))
        assert float(largest) == 1.7976931348623157e308

    def test_roundtrip(self, tmp_path):
        rec = PairRecord(
            clean="a.png",
            dusty="b.png",
            scale=123.456789,
            octaves=3,
            lacunarity=2.0000000001,
            persistence=0.5499999999999999,
            alpha=0.7,
            light=(0.875, 0.7000000000000001, 0.5425),
            seed=2**63 - 11,
        )
        m = DatasetManifest([rec])
        m.save(tmp_path / "m.jsonl")
        back = DatasetManifest.load(tmp_path / "m.jsonl")
        assert back.records == m.records

    def test_float_precision_in_file(self, tmp_path):
        rec = PairRecord("a", "b", 1 / 3, 2, 2.1, 0.123456789012345678, 0.4, (1 / 7,), 1)
        DatasetManifest([rec]).save(tmp_path / "m.jsonl")
        line = (tmp_path / "m.jsonl").read_text().strip()
        obj = json.loads(line)
        assert obj["scale"] == 1 / 3  # 17 significant digits round-trips float64
        assert obj["light"][0] == 1 / 7
        assert set(obj) == {
            "clean", "dusty", "scale", "octaves", "lacunarity",
            "persistence", "alpha", "light", "seed",
        }

    def test_golden_bytes(self, tmp_path):
        # alpha 1.0 prints as 1, 1e-05 in exponent form, non-ASCII paths as
        # JSON escapes, and the largest 64-bit seed in full
        records = [
            PairRecord("clean/c0.png", "dusty/c0_d00.png", 236.9454052575297, 4,
                       1.9829781926228969, 0.43158122530329646, 1.0,
                       (0.8549019607843137, 0.6839215686274407, 0.5300392156862777), 2**64 - 1),
            PairRecord("clean/\u00e9t\u00e9/\u00df.png", "dusty/\u00e9t\u00e9_d01.png", 1e-05, 1,
                       2.5, 0.5, 0.4, (1.0,), 0),
        ]
        path = tmp_path / "m.jsonl"
        DatasetManifest(records).save(path)
        assert path.read_bytes() == (
            b'{"clean":"clean/c0.png","dusty":"dusty/c0_d00.png","scale":236.9454052575297,'
            b'"octaves":4,"lacunarity":1.9829781926228969,"persistence":0.43158122530329646,'
            b'"alpha":1,"light":[0.85490196078431369,0.68392156862744069,0.53003921568627765],'
            b'"seed":18446744073709551615}\n'
            b'{"clean":"clean/\\u00e9t\\u00e9/\\u00df.png","dusty":"dusty/\\u00e9t\\u00e9_d01.png",'
            b'"scale":1.0000000000000001e-05,"octaves":1,"lacunarity":2.5,"persistence":0.5,'
            b'"alpha":0.40000000000000002,"light":[1],"seed":0}\n'
        )
        assert DatasetManifest.load(path).records == records

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"clean": "a"\n')
        with pytest.raises(ManifestError, match="malformed"):
            DatasetManifest.load(p)

    def test_integer_too_long_to_convert_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"seed": ' + "9" * 5000 + "}\n")  # past Python's int-from-text digit limit
        with pytest.raises(ManifestError, match="bad.jsonl:1: malformed JSON"):
            DatasetManifest.load(p)

    def test_wrong_keys_rejected(self, tmp_path):
        p = tmp_path / "bad2.jsonl"
        p.write_text('{"clean":"a","dusty":"b"}\n')
        with pytest.raises(ManifestError, match="keys"):
            DatasetManifest.load(p)

    GOOD_LINE = {"clean": "a.png", "dusty": "b.png", "scale": 100.5, "octaves": 3,
                 "lacunarity": 2.0, "persistence": 0.5, "alpha": 0.4, "light": [0.9, 0.8], "seed": 7}

    @pytest.mark.parametrize("key, value", [
        ("clean", 5), ("dusty", None), ("dusty", ["b.png"]),
        ("scale", "x"), ("lacunarity", True), ("alpha", None), ("persistence", [0.5]),
        ("light", 5), ("light", "0.9"), ("light", ["a"]), ("light", [0.9, False]),
        ("octaves", 2.5), ("octaves", 2.0), ("octaves", True), ("octaves", "3"),
        ("seed", 3.5), ("seed", False), ("seed", None),
        # out of range: seeds outside [0, 2**64), floats that are not finite (JSON reads 1e400 as inf)
        ("seed", -5), ("seed", 2**64), ("seed", 10**400),
        ("scale", math.inf), ("alpha", math.nan), ("lacunarity", -math.inf), ("persistence", math.inf),
        ("light", [0.9, math.inf]), ("light", [math.nan, 0.8]),
    ])
    def test_wrong_value_type_names_line_and_key(self, tmp_path, key, value):
        p = tmp_path / "m.jsonl"
        good = json.dumps(self.GOOD_LINE)
        p.write_text(good + "\n\n" + json.dumps({**self.GOOD_LINE, key: value}) + "\n")
        with pytest.raises(ManifestError, match=f"m.jsonl:3: {key} must be"):
            DatasetManifest.load(p)

    def test_integers_in_float_fields_read_as_floats(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({**self.GOOD_LINE, "scale": 100, "alpha": 1, "light": [1, 0]}) + "\n")
        (rec,) = DatasetManifest.load(p).records
        assert (rec.scale, rec.alpha, rec.light) == (100.0, 1.0, (1.0, 0.0))
        assert all(type(v) is float for v in (rec.scale, rec.alpha, *rec.light))
        assert type(rec.octaves) is int and type(rec.seed) is int

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"clean"', "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        p = tmp_path / "m.jsonl"
        p.write_text(line + "\n")
        with pytest.raises(ManifestError, match="m.jsonl:1: record must be a JSON object"):
            DatasetManifest.load(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            DatasetManifest.load(tmp_path / "absent.jsonl")

    def test_bytes_that_are_not_text_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_bytes(b"\xff\xfe\x00{\n")
        with pytest.raises(ManifestError, match="m.jsonl:1: malformed JSON"):
            DatasetManifest.load(p)

    def test_shared_dusty_name_rejected(self):
        a = PairRecord("c1/a.png", "d1/a_d00.png", 100.0, 2, 2.0, 0.5, 0.4, (0.9,), 1)
        b = PairRecord("c2/a.png", "d2/a_d00.png", 100.0, 2, 2.0, 0.5, 0.4, (0.9,), 2)
        with pytest.raises(ManifestError, match="d1/a_d00.png and d2/a_d00.png"):
            DatasetManifest([a, b]).by_dusty_name()


class TestAutoPatches:
    def test_prefers_dustier_tiles(self):
        # left half clear textured terrain, right half bright flat dust: eight
        # 32px dusty tiles, as many as the picker returns
        rng = np.random.default_rng(10)
        arr = np.zeros((128, 128, 3))
        arr[:, :64] = rng.random((128, 64, 3)) * 0.6
        arr[:, 64:] = 0.85
        img = Image(arr)
        patches = auto_select_dusty_patches(img)
        assert len(patches) == 8
        for p in patches:
            assert p.data.shape == (32, 32, 3)
            assert p.data.mean() > 0.8

    def test_small_image_falls_back_to_whole(self):
        img = Image(np.full((16, 16, 3), 0.5))
        assert len(auto_select_dusty_patches(img)) == 1
