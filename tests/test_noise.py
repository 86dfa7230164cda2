import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsdust import noise
from marsdust.errors import ValidationError
from marsdust.noise import (
    LACUNARITY_RANGE,
    PERSISTENCE_RANGE,
    SCALE_RANGE,
    NoiseField,
    PerlinParams,
    perlin2d,
    sample_params,
)
from marsdust.rng import mix64, shuffled, splitmix64_at


def test_splitmix_reference_values():
    # canonical splitmix64 outputs for seed 0 (first three stream values)
    assert splitmix64_at(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64_at(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64_at(0, 2) == 0x06C45D188009454F


def test_shuffled_256_is_permutation_and_seeded():
    t1 = shuffled(list(range(256)), 1234)
    t2 = shuffled(list(range(256)), 1234)
    t3 = shuffled(list(range(256)), 1235)
    assert sorted(t1) == list(range(256))
    assert t1 == t2
    assert t1 != t3
    # Perlin permutation tables: pinned so fields stay bit-identical
    assert t1[:8] == [132, 125, 181, 69, 17, 13, 184, 32]
    assert shuffled(list(range(256)), 0)[:8] == [99, 179, 124, 78, 196, 203, 221, 113]


def test_field_digest_across_band_shapes():
    # one sha256 over fields whose shapes cross row-band edges (wide, tall,
    # single-row, single-column, odd) for 2-5 octaves plus a fine-scale,
    # full-persistence set whose lattice indices wrap past 255 many times
    draws = [sample_params(mix64(8, k)) for k in (0, 1, 3, 10)]
    assert sorted(p.octaves for p in draws) == [2, 3, 4, 5]
    draws.append(PerlinParams(3.0, 5, 2.2, 1.0, seed=2**64 - 1))
    shapes = [(512, 512), (333, 97), (1, 700), (700, 1), (20000, 3), (129, 131)]
    digest = hashlib.sha256()
    for params in draws:
        for width, height in shapes:
            digest.update(perlin2d(params, width, height).values.tobytes())
    assert digest.hexdigest() == (
        "9f9b6d310d1800998b4625f0fe2e922696439153f0fa6b7d530110fc09f66c0d"
    )


def test_field_values_are_a_read_only_plane():
    v = perlin2d(PerlinParams(16.0, 3, 2.0, 0.5, seed=5), 37, 21).values
    assert v.shape == (21, 37)
    assert v.flags.c_contiguous and not v.flags.writeable
    assert hashlib.sha256(v.tobytes()).hexdigest() == (
        "11b80b313774ada19de0b36c9edce5319b5e2d44a92dafd5742f8e301aeac26b"
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_rejects_non_finite(bad):
    arr = np.full((2, 2), 0.5)
    arr[0, 1] = bad
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        NoiseField(arr)


def test_field_rejects_three_channels():
    with pytest.raises(ValidationError):
        NoiseField(np.full((2, 2, 3), 0.5))


@st.composite
def _crop_case(draw):
    # widths on either side of a row-band edge: 127-129 give bands of 129-127
    # rows, so heights up to 300 cross one; from _BAND_PIXELS on, every row
    # is its own band
    band = noise._BAND_PIXELS
    full_w = draw(st.sampled_from([1, 127, 128, 129, band - 1, band, band + 1]))
    full_h = draw(st.integers(1, 300 if full_w <= 129 else 4))
    w = draw(st.integers(1, full_w))
    h = draw(st.integers(1, full_h))
    return sample_params(draw(st.integers(0, 2**64 - 1))), full_w, full_h, w, h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_crop_case())
def test_field_crop_equals_field_of_crop_size(case):
    params, full_w, full_h, w, h = case
    crop = perlin2d(params, full_w, full_h).values[:h, :w]
    assert perlin2d(params, w, h).values.tobytes() == crop.tobytes()


def _reference_field(params: PerlinParams, width: int, height: int) -> np.ndarray:
    """perlin2d over the whole field at once, with one gradient gather per
    pixel and corner: corner (ix, iy) reads gx[table[ix & 255] + (iy & 255)],
    where gx and gy are the 8 directions' components over the doubled
    permutation.  Same float operations, in the same order, as the module's
    docstring states."""
    grads = np.array([[1, 1], [-1, 1], [1, -1], [-1, -1], [1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.float64)

    def fade(t):
        return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)

    def lerp(a, b, w):
        return (b - a) * w + a

    total = np.zeros((height, width))
    denom = 0.0
    for octave in range(params.octaves):
        amp = params.persistence**octave
        freq = params.lacunarity**octave / params.scale
        table = np.asarray(shuffled(list(range(256)), mix64(params.seed, octave)), dtype=np.intp)
        doubled = np.concatenate([table, table]) & 7
        gx, gy = grads[doubled, 0], grads[doubled, 1]
        x = np.arange(width, dtype=np.float64)[None, :] * freq
        y = np.arange(height, dtype=np.float64)[:, None] * freq
        ix, iy = np.floor(x).astype(np.intp), np.floor(y).astype(np.intp)
        fx, fy = x - ix, y - iy

        def corner(cx, cy, dx, dy):
            i = table[cx & 255] + (cy & 255)
            return gx[i] * dx + gy[i] * dy

        n00 = corner(ix, iy, fx, fy)
        n10 = corner(ix + 1, iy, fx - 1.0, fy)
        n01 = corner(ix, iy + 1, fx, fy - 1.0)
        n11 = corner(ix + 1, iy + 1, fx - 1.0, fy - 1.0)
        u, v = fade(fx), fade(fy)
        total += lerp(lerp(n00, n10, u), lerp(n01, n11, u), v) * amp
        denom += amp
    return np.clip(0.5 + 0.5 * (total / denom), 0.0, 1.0)


@st.composite
def _reference_case(draw):
    # scales on both sides of one pixel per lattice cell, and sizes on either
    # side of a row-band edge, as in _crop_case
    band = noise._BAND_PIXELS
    width = draw(st.sampled_from([1, 2, 127, 128, 129, 1000, band - 1, band, band + 1]))
    height = draw(st.integers(1, 300 if width <= 129 else 40 if width == 1000 else 3))
    params = PerlinParams(
        scale=10 ** draw(st.floats(-2.0, 3.0)),
        octaves=draw(st.integers(1, 6)),
        lacunarity=draw(st.floats(1.5, 3.0)),
        persistence=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return params, width, height


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_reference_case())
def test_field_equals_the_per_pixel_reference(case):
    params, width, height = case
    want = _reference_field(params, width, height)
    assert perlin2d(params, width, height).values.tobytes() == want.tobytes()


def test_fine_scale_field_peaks_below_three_field_sizes():
    # at scale 0.01 every pixel row has its own lattice rows, a hundred
    # apart, so tables over a band's contiguous lattice range would not fit
    params = PerlinParams(0.01, 3, 2.0, 0.5, seed=9)
    width, height = 2048, 64
    perlin2d(params, width, height)  # imports and first-use tables outside the trace
    tracemalloc.start()
    try:
        field = perlin2d(params, width, height)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * field.values.nbytes, peak / field.values.nbytes


class TestPerlin:
    def test_lattice_points_are_half(self):
        params = PerlinParams(8.0, 1, 2.0, 0.5, seed=42)
        field = perlin2d(params, 33, 33)
        for y in (0, 8, 16, 24, 32):
            for x in (0, 8, 16, 24, 32):
                assert field.values[y, x] == 0.5

    def test_deterministic(self):
        params = PerlinParams(23.7, 4, 1.9, 0.55, seed=99)
        a = perlin2d(params, 40, 30)
        b = perlin2d(params, 40, 30)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_field(self):
        p1 = PerlinParams(16.0, 2, 2.0, 0.5, seed=1)
        p2 = PerlinParams(16.0, 2, 2.0, 0.5, seed=2)
        assert not np.array_equal(perlin2d(p1, 32, 32).values, perlin2d(p2, 32, 32).values)

    def test_range_bounds(self):
        for seed in range(5):
            params = PerlinParams(12.0, 5, 2.2, 1.0, seed=seed)
            v = perlin2d(params, 64, 64).values
            assert v.min() >= 0.0 and v.max() <= 1.0

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_single_octave_field_mean_near_half(self, seed):
        params = PerlinParams(32.0, 1, 2.0, 0.5, seed=seed)
        field = perlin2d(params, 512, 512)
        assert abs(field.values.mean() - 0.5) < 0.02

    @pytest.mark.parametrize("scale", [8.0, 16.0])
    def test_adjacent_pixel_smoothness(self, scale):
        params = PerlinParams(scale, 1, 2.0, 0.5, seed=11)
        v = perlin2d(params, 128, 128).values
        dx = np.abs(np.diff(v, axis=1)).max()
        dy = np.abs(np.diff(v, axis=0)).max()
        assert max(dx, dy) <= 6.0 / scale

    def test_nonsquare_dims(self):
        field = perlin2d(PerlinParams(8.0, 2, 2.0, 0.5, seed=3), 5, 9)
        assert field.values.shape == (9, 5)

    def test_golden_field_regression(self):
        # frozen output of this generator; guards the cross-run bit-exactness contract
        params = PerlinParams(4.0, 2, 2.0, 0.5, seed=2024)
        v = perlin2d(params, 4, 4).values
        expected = np.array([
            [0.5, 0.42529296875, 0.4166666666666667, 0.4324544270833333],
            [0.6839192708333334, 0.528254508972168, 0.4583333333333333, 0.5309858322143555],
            [0.6666666666666666, 0.5703938802083334, 0.5416666666666666, 0.587646484375],
            [0.5589192708333334, 0.5565525690714518, 0.5589192708333334, 0.5264596939086914],
        ])
        assert np.allclose(v, expected, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(scale=0.0), "scale"),
            (dict(octaves=0), "octaves"),
            (dict(lacunarity=1.0), "lacunarity"),
            (dict(persistence=0.0), "persistence"),
            (dict(persistence=1.2), "persistence"),
        ],
    )
    def test_invalid_params_name_the_parameter(self, kwargs, name):
        base = dict(scale=8.0, octaves=1, lacunarity=2.0, persistence=0.5, seed=0)
        base.update(kwargs)
        with pytest.raises(ValidationError, match=name):
            PerlinParams(**base)

    def test_invalid_dims(self):
        with pytest.raises(ValidationError):
            perlin2d(PerlinParams(8.0, 1, 2.0, 0.5, seed=0), 0, 5)

    @pytest.mark.parametrize("octaves", [noise.MAX_OCTAVES + 1, 60, 5000, 20_000])
    def test_octave_cap(self, octaves):
        with pytest.raises(ValidationError, match="octaves"):
            PerlinParams(100.0, octaves, 1.0000001, 0.5, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lacunarity=1e200),
            dict(scale=1e-300),
            # the factor alone would overflow, though the huge scale brings
            # the coordinates back down
            dict(scale=1e300, lacunarity=2.0**40, octaves=32),
            dict(scale=1.0, lacunarity=3.0, octaves=32),
        ],
    )
    def test_lattice_coordinates_past_2_pow_52_rejected(self, kwargs):
        base = dict(scale=100.0, octaves=3, lacunarity=2.0, persistence=0.5, seed=0)
        base.update(kwargs)
        with pytest.raises(ValidationError, match=r"below 2\*\*52"):
            perlin2d(PerlinParams(**base), 8, 8)

    def test_coordinate_bound_counts_the_field_size(self):
        # 2**45 per pixel: fine on an 8-pixel side, too far on a 256-pixel one
        params = PerlinParams(2.0**-44, 2, 2.0, 0.5, seed=0)
        assert perlin2d(params, 8, 1).width == 8
        with pytest.raises(ValidationError, match=r"below 2\*\*52"):
            perlin2d(params, 256, 1)


class TestSampleParams:
    def test_golden_tuples(self):
        # frozen draws of the synthesis ranges; the dusty corpus depends on them
        golden = {
            0: (459.72324207971195, 3, 1.8105735086370391, 0.6912645934461485, 1961750202426094747),
            1: (317.81958567718186, 4, 2.1884011014347187, 0.5333077651167316, 8195237237126968761),
            999: (247.0002749740762, 5, 2.1073747197503674, 0.5371105989025848, 9074397613467384218),
        }
        for seed, expected in golden.items():
            p = sample_params(seed)
            assert (p.scale, p.octaves, p.lacunarity, p.persistence, p.seed) == expected

    def test_same_seed_same_params(self):
        assert sample_params(77) == sample_params(77)

    def test_collisions_absent_over_many_seeds(self):
        seen = set()
        for seed in range(10_000):
            p = sample_params(mix64(4242, seed))
            seen.add((p.scale, p.octaves, p.lacunarity, p.persistence, p.seed))
        assert len(seen) == 10_000

    def test_defaults_respect_bounds(self):
        for seed in range(200):
            p = sample_params(seed)
            assert SCALE_RANGE[0] <= p.scale <= SCALE_RANGE[1]
            assert p.octaves in (2, 3, 4, 5)
            assert LACUNARITY_RANGE[0] <= p.lacunarity <= LACUNARITY_RANGE[1]
            assert PERSISTENCE_RANGE[0] <= p.persistence <= PERSISTENCE_RANGE[1]


def _shuffled_reference(items, seed):
    """The Fisher-Yates walk of rng's docstring, one splitmix64_at call per draw."""
    out = list(items)
    draw = 0
    for i in range(len(out) - 1, 0, -1):
        j = splitmix64_at(seed, draw) % (i + 1)
        draw += 1
        out[i], out[j] = out[j], out[i]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([0, 1, 2, 7, 256]),
    st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
def test_shuffled_equals_the_draw_by_draw_walk(n, seed):
    items = [f"item{k}" for k in range(n)]
    assert shuffled(items, seed) == _shuffled_reference(items, seed)
    assert shuffled(tuple(range(n)), seed) == _shuffled_reference(range(n), seed)
