"""The elementwise frame work -- the forward blend, its inverse and the PNG
quantizer -- against whole-frame references written here, bit for bit, and
its memory on a 512x512 RGB frame.

The references are the formulas over whole (H, W, C) frames with T shaped
(H, W, 1).  The shapes cross the row bands: one row of RGB 2x5462 or gray
3x16385 holds more values than a band.
"""

import tracemalloc

import numpy as np
import pytest

from marsdust.degrade import AtmosphericLight, synthesize_dusty
from marsdust.noise import NoiseField
from marsdust.pngio import read_png
from marsdust.raster import Image, save_image
from marsdust.restore import T_FLOOR, invert_degradation

SHAPES = [(1, 1), (7, 5), (64, 512)]
CASES = [(h, w, c) for h, w in SHAPES for c in (1, 3)] + [(2, 5462, 3), (3, 16385, 1)]


def _frames(h, w, c, seed):
    """A frame with exact 0, 1 and quantizer ties among its samples, a
    transmission map with 0, values below T_FLOOR and T_FLOOR itself, and a
    light."""
    rng = np.random.default_rng(seed)
    data = rng.random((h, w, c))
    data.flat[::7] = rng.integers(0, 256, data.flat[::7].size) / 255.0
    data.flat[1::11] = (rng.integers(0, 255, data.flat[1::11].size) + 0.5) / 255.0
    data.flat[2::13] = 1.0
    t = rng.random((h, w))
    t.flat[::5] = rng.choice([0.0, 0.01, T_FLOOR / 2, T_FLOOR, np.nextafter(T_FLOOR, 0)], t.flat[::5].size)
    light = tuple(float(v) for v in rng.random(c))
    return Image(data), NoiseField(t), AtmosphericLight(light)


@pytest.mark.parametrize("h,w,c", CASES)
def test_synthesize_equals_the_whole_frame_blend(h, w, c):
    img, tmap, light = _frames(h, w, c, seed=h * w + c)
    low = np.asarray(light.values)
    want = np.clip(img.data * tmap.data + low * (1.0 - tmap.data), 0.0, 1.0)
    got = synthesize_dusty(img, tmap, light).data
    assert got.shape == (h, w, c)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h,w,c", CASES)
def test_invert_equals_the_whole_frame_inverse(h, w, c):
    H, tmap, light = _frames(h, w, c, seed=h * w + c + 1)
    low = np.asarray(light.values)
    t = np.maximum(tmap.data, T_FLOOR)
    want = np.clip((H.data - low * (1.0 - t)) / t, 0.0, 1.0)
    got = invert_degradation(H, tmap, light).data
    assert got.shape == (h, w, c)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("h,w,c", CASES)
def test_saved_samples_equal_the_whole_frame_quantizer(tmp_path, h, w, c, depth):
    img = _frames(h, w, c, seed=h * w + c + 2)[0]
    maxval, dtype = (255, np.uint8) if depth == 8 else (65535, np.uint16)
    want = np.floor(img.data * maxval + 0.5).astype(dtype)
    save_image(img, tmp_path / "q.png", depth)
    samples, got_depth = read_png(tmp_path / "q.png")
    assert got_depth == depth and samples.dtype == want.dtype
    assert samples.shape == (h, w, c) and samples.tobytes() == want.tobytes()


def _peak(fn, *args) -> int:
    fn(*args)  # imports and first-use state outside the trace
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def frame_512():
    return _frames(512, 512, 3, seed=5)


@pytest.mark.parametrize("fn", [synthesize_dusty, invert_degradation], ids=["synthesize", "invert"])
def test_blend_peaks_at_its_output_size(frame_512, fn):
    # the output Image is the one frame-sized array; T and the light live in bands
    out_bytes = frame_512[0].data.nbytes
    peak = _peak(fn, *frame_512)
    assert peak <= 1.1 * out_bytes, peak / out_bytes


@pytest.mark.parametrize("depth,bound", [(8, 0.75), (16, 1.8)])
def test_save_peaks_below_the_float_frame(tmp_path, frame_512, depth, bound):
    # the quantizer goes through one band-sized float buffer into the integer samples
    img = frame_512[0]
    peak = _peak(save_image, img, tmp_path / "m.png", depth)
    assert peak <= bound * img.data.nbytes, peak / img.data.nbytes
