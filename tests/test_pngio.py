"""PNG codec tests against an independent, test-side encoder.

``encode_png`` writes 8- or 16-bit gray or RGB scanlines with a given filter
type per row, or with libpng's default per-row choice, so the decoder sees
the Average and Paeth rows that files from other tools carry.  It and the
chunk writer ``png_blob`` in ``conftest.py`` share no code with
``marsdust.pngio``; the encoder tests check ``write_png`` output against
them and against stdlib ``zlib``.
"""

import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marsdust.errors import DecodeError
from marsdust.pngio import MAX_PIXELS, _prediction_table, read_png, write_png

from conftest import make_clean_image, png_blob

def filter_residuals(rows: np.ndarray, bpp: int) -> np.ndarray:
    """Filtered bytes of every row under each of the five PNG filters.

    ``rows`` is uint8 (height, row_bytes); returns uint8 (5, height, row_bytes)
    indexed by filter type.  Predictors follow the PNG specification, with the
    byte ``bpp`` to the left and the row above read as 0 outside the image.
    """
    raw = rows.astype(np.int16)
    left = np.zeros_like(raw)
    left[:, bpp:] = raw[:, :-bpp]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    upleft = np.zeros_like(raw)
    upleft[1:, bpp:] = raw[:-1, :-bpp]
    return ((raw - spec_predictions(left, up, upleft)) % 256).astype(np.uint8)


def spec_predictions(left: np.ndarray, up: np.ndarray, upleft: np.ndarray) -> np.ndarray:
    """The five predictions of the PNG specification, stacked by filter type.

    Inputs are int16 byte values; so is the result, before any mod 256.  A
    Paeth tie goes to left, then up, then upleft, in the specification's order.
    """
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    return np.stack((np.zeros_like(p), left, up, (left + up) // 2, paeth))


def libpng_filters(residuals: np.ndarray) -> np.ndarray:
    """libpng's default choice: per row, the smallest sum of signed absolute residuals."""
    signed_abs = np.minimum(residuals, 256 - residuals.astype(np.int32))
    return np.argmin(signed_abs.sum(axis=2, dtype=np.int64), axis=0)


def encode_png(samples: np.ndarray, bit_depth: int, filters=None) -> tuple[bytes, np.ndarray]:
    """Encode (height, width, channels) samples; return the file bytes and the row filters.

    ``filters`` gives one filter type per row; ``None`` picks libpng's choice.
    A type outside 0..4 is written as-is over unfiltered bytes.
    """
    height, width, channels = samples.shape
    dtype = np.uint8 if bit_depth == 8 else np.dtype(">u2")
    rows = np.ascontiguousarray(samples, dtype=dtype).view(np.uint8).reshape(height, -1)
    residuals = filter_residuals(rows, channels * bit_depth // 8)
    if filters is None:
        filters = libpng_filters(residuals)
    filters = np.asarray(filters, dtype=np.uint8)
    scanlines = np.empty((height, 1 + rows.shape[1]), dtype=np.uint8)
    scanlines[:, 0] = filters
    scanlines[:, 1:] = residuals[np.where(filters < 5, filters, 0), np.arange(height)]
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, 0 if channels == 1 else 2, 0, 0, 0)
    return png_blob(ihdr, zlib.compress(scanlines.tobytes(), 6)), filters


def random_samples(seed: int, height: int, width: int, channels: int, bit_depth: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    return rng.integers(0, 2**bit_depth, size=(height, width, channels), dtype=dtype)


def terrain_samples(seed: int, size: int) -> np.ndarray:
    return np.floor(make_clean_image(seed, size, size).data * 255 + 0.5).astype(np.uint8)


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    height=st.integers(1, 17),
    width=st.integers(1, 17),
    channels=st.sampled_from([1, 3]),
    bit_depth=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_round_trip_random_filter_mix(tmp_path, height, width, channels, bit_depth, seed, data):
    filters = data.draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
    samples = random_samples(seed, height, width, channels, bit_depth)
    blob, _ = encode_png(samples, bit_depth, filters)
    path = tmp_path / "mix.png"
    path.write_bytes(blob)
    decoded, depth = read_png(path)
    assert depth == bit_depth
    assert decoded.dtype == samples.dtype
    assert np.array_equal(decoded, samples)


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("bit_depth", [8, 16])
def test_every_row_one_filter_type(tmp_path, ftype, channels, bit_depth):
    samples = random_samples(ftype, 9, 11, channels, bit_depth)
    blob, _ = encode_png(samples, bit_depth, [ftype] * 9)
    (tmp_path / "f.png").write_bytes(blob)
    decoded, _ = read_png(tmp_path / "f.png")
    assert np.array_equal(decoded, samples)


def test_libpng_mix_on_terrain_matches_golden(tmp_path):
    samples = terrain_samples(4242, 64)
    blob, filters = encode_png(samples, 8)
    assert {3, 4} <= set(filters.tolist())  # the mix reaches the Average and Paeth paths
    (tmp_path / "terrain.png").write_bytes(blob)
    decoded, depth = read_png(tmp_path / "terrain.png")
    assert depth == 8 and np.array_equal(decoded, samples)
    digest = hashlib.sha256(decoded.tobytes()).hexdigest()
    assert digest == "f477415f5019411d978e52df67a70dc83120992d13fd0a9a1f27f7555f75d2fb"


def test_step_prediction_matches_the_spec_for_every_byte_triple():
    # a wavefront step predicts upleft plus the table entry at the index its
    # docstring gives; the decode tests below pin that the step reads it so
    table = _prediction_table()
    byte = np.arange(256, dtype=np.int16)
    for first in range(0, 256, 16):
        left, up, upleft = (g.reshape(-1) for g in np.meshgrid(
            byte, byte, byte[first : first + 16], indexing="ij"))
        expected = spec_predictions(left, up, upleft) % 256
        index = 511 * (left - upleft + 255).astype(np.int32) + up - upleft + 255
        for ftype in range(1, 5):
            step = (table[(ftype - 1) * 511**2 + index] + upleft) % 256
            assert np.array_equal(step, expected[ftype]), f"filter {ftype}, upleft from {first}"


# Bytes near 0, 128 and 255 make mod-256 wraps and Paeth ties common.  The
# ties that change a prediction need left - upleft = -2 (up - upleft) or the
# mirror, which 0, 1, 127, 128, 254 and 255 alone never give; 2, 3, 252 and
# 253 do (upleft 2, up 3, left 0).
TIE_BYTES = np.array([0, 1, 2, 3, 127, 128, 252, 253, 254, 255], dtype=np.uint8)


@pytest.mark.parametrize("row_filters", [[4], [3], [4, 0, 3, 0]], ids=["paeth", "average", "with-none"])
@pytest.mark.parametrize("height, width, channels, bit_depth", [(40, 300, 1, 8), (64, 64, 3, 16)])
def test_tie_and_wrap_heavy_frames_decode_exactly(tmp_path, row_filters, height, width, channels, bit_depth):
    rng = np.random.default_rng(height * width + len(row_filters))
    data = rng.choice(TIE_BYTES, size=(height, width, channels * bit_depth // 8))
    samples = data if bit_depth == 8 else data.view(">u2").astype(np.uint16)
    blob, _ = encode_png(samples, bit_depth, np.resize(row_filters, height))
    (tmp_path / "ties.png").write_bytes(blob)
    decoded, depth = read_png(tmp_path / "ties.png")
    assert depth == bit_depth and decoded.dtype == samples.dtype
    assert np.array_equal(decoded, samples)


def test_prediction_table_is_built_once_on_the_first_filtered_decode(tmp_path):
    samples = random_samples(3, 8, 8, 3, 8)
    write_png(tmp_path / "plain.png", samples, 8)
    (tmp_path / "paeth.png").write_bytes(encode_png(samples, 8, [4] * 8)[0])
    _prediction_table.cache_clear()
    read_png(tmp_path / "plain.png")
    assert _prediction_table.cache_info().currsize == 0  # plain files never build it
    read_png(tmp_path / "paeth.png")
    table = _prediction_table()
    assert _prediction_table() is table and _prediction_table.cache_info().misses == 1
    assert table.nbytes <= 1.25 * 2**20 and not table.flags.writeable


def test_libpng_mix_decode_peak_is_three_times_the_samples(tmp_path):
    samples = terrain_samples(1024, 1024)
    blob, filters = encode_png(samples, 8)
    assert {3, 4} <= set(filters.tolist())
    (tmp_path / "big.png").write_bytes(blob)
    del blob
    _prediction_table()  # a process's first filtered decode builds it; not counted here
    tracemalloc.start()
    try:
        decoded, _ = read_png(tmp_path / "big.png")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded, samples)
    assert peak <= 3.1 * samples.nbytes


@pytest.mark.parametrize("filters", [[5, 0, 0, 0], [4, 4, 5, 3]], ids=["row0", "after-paeth"])
def test_filter_type_5_rejected(tmp_path, filters):
    blob, _ = encode_png(random_samples(1, 4, 5, 3, 8), 8, filters)
    (tmp_path / "bad.png").write_bytes(blob)
    with pytest.raises(DecodeError, match="invalid scanline filter type 5"):
        read_png(tmp_path / "bad.png")


def test_decompression_bomb_rejected_in_bounded_memory(tmp_path):
    # a 1x1 gray image needs 2 bytes of image data; this IDAT inflates to 64 MiB
    packer = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join(packer.compress(zeros) for _ in range(64)) + packer.flush()
    path = tmp_path / "bomb.png"
    path.write_bytes(png_blob(struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0), idat))
    del zeros
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="image data length mismatch"):
            read_png(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("width, match", [
    (MAX_PIXELS, "image data length mismatch"),  # at the limit: inflated, found short
    (MAX_PIXELS + 1, f"image {MAX_PIXELS + 1}x1 too large"),
], ids=["at-limit", "past-limit"])
def test_pixel_limit_checked_before_inflate(tmp_path, width, match):
    path = tmp_path / "wide.png"
    path.write_bytes(png_blob(struct.pack(">IIBBBBB", width, 1, 8, 0, 0, 0, 0), zlib.compress(bytes(9))))
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match=match):
            read_png(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_decode_peak_is_three_times_the_samples(tmp_path, bit_depth):
    # the file and the joined IDAT are dropped once they are used, and one
    # copy of the scanlines makes the samples; the peak is zlib's output
    # buffer while it inflates
    samples = random_samples(bit_depth, 1024, 1024, 3, bit_depth)
    write_png(tmp_path / "big.png", samples, bit_depth)
    tracemalloc.start()
    try:
        decoded, _ = read_png(tmp_path / "big.png")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded.dtype == samples.dtype and decoded.dtype.isnative
    assert np.array_equal(decoded, samples)
    assert peak <= 3.1 * samples.nbytes


def test_unaddressable_dimensions_rejected(tmp_path):
    ihdr = struct.pack(">IIBBBBB", 2**31 - 1, 2**31 - 1, 16, 2, 0, 0, 0)
    path = tmp_path / "huge.png"
    path.write_bytes(png_blob(ihdr, zlib.compress(bytes(10))))
    with pytest.raises(DecodeError, match="too large"):
        read_png(path)


def test_short_image_data_rejected(tmp_path):
    idat = zlib.compress(b"\x00\x10\x20")  # 3 bytes where a 3x1 gray image needs 4
    path = tmp_path / "short.png"
    path.write_bytes(png_blob(struct.pack(">IIBBBBB", 3, 1, 8, 0, 0, 0, 0), idat))
    with pytest.raises(DecodeError, match="image data length mismatch"):
        read_png(path)


def test_truncated_stream_rejected(tmp_path):
    idat = zlib.compress(b"\x00\x10\x20\x30")[:-4]  # image bytes complete, checksum cut
    path = tmp_path / "cut.png"
    path.write_bytes(png_blob(struct.pack(">IIBBBBB", 3, 1, 8, 0, 0, 0, 0), idat))
    with pytest.raises(DecodeError, match="corrupt compressed image data"):
        read_png(path)


def test_unknown_critical_chunk_rejected(tmp_path):
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
    path = tmp_path / "cgbi.png"
    path.write_bytes(png_blob(ihdr, zlib.compress(b"\x00\x7f"), extra=[(b"CgBI", b"\x00" * 4)]))
    with pytest.raises(DecodeError, match="unknown critical chunk CgBI"):
        read_png(path)


def test_ancillary_chunks_and_suggested_palette_skipped(tmp_path):
    samples = random_samples(9, 3, 4, 3, 8)
    ihdr = struct.pack(">IIBBBBB", 4, 3, 8, 2, 0, 0, 0)
    rows = np.concatenate([np.zeros((3, 1), np.uint8), samples.reshape(3, -1)], axis=1)
    extra = [(b"tEXt", b"Comment\x00orbiter frame"), (b"PLTE", b"\x00\x00\x00\xff\xff\xff"), (b"prVt", b"x")]
    path = tmp_path / "anc.png"
    path.write_bytes(png_blob(ihdr, zlib.compress(rows.tobytes()), extra))
    decoded, _ = read_png(path)
    assert np.array_equal(decoded, samples)


def _chunks(blob: bytes) -> list[tuple[bytes, bytes]]:
    """The (tag, payload) chunks of a PNG file, in order."""
    out, pos = [], 8
    while pos < len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        out.append((blob[pos + 4 : pos + 8], blob[pos + 8 : pos + 8 + length]))
        pos += 12 + length
    return out


def _stored_block_count(stream: bytes) -> int:
    """The number of deflate blocks in a zlib stream made only of stored blocks."""
    pos, blocks, final = 2, 0, False
    while not final:
        final, btype = stream[pos] & 1, stream[pos] >> 1 & 3
        assert btype == 0, f"block {blocks} is not stored"
        length, complement = struct.unpack_from("<HH", stream, pos + 1)
        assert length ^ complement == 0xFFFF
        pos, blocks = pos + 5 + length, blocks + 1
    assert pos + 4 == len(stream)  # then the Adler-32 checksum
    return blocks


ENCODER_CASES = pytest.mark.parametrize("height, width, channels, bit_depth", [
    (h, w, c, d) for h, w in [(1, 1), (7, 13), (31, 5)] for c in (1, 3) for d in (8, 16)
])


@ENCODER_CASES
def test_write_png_round_trip_and_repeat(tmp_path, height, width, channels, bit_depth):
    samples = random_samples(height * width, height, width, channels, bit_depth)
    write_png(tmp_path / "a.png", samples, bit_depth)
    write_png(tmp_path / "b.png", samples.copy(), bit_depth)
    decoded, depth = read_png(tmp_path / "a.png")
    assert depth == bit_depth and decoded.dtype == samples.dtype
    assert np.array_equal(decoded, samples)
    assert (tmp_path / "a.png").read_bytes() == (tmp_path / "b.png").read_bytes()


@ENCODER_CASES
def test_write_png_idat_is_filter_0_scanlines(tmp_path, height, width, channels, bit_depth):
    samples = random_samples(height + width, height, width, channels, bit_depth)
    write_png(tmp_path / "w.png", samples, bit_depth)
    blob = (tmp_path / "w.png").read_bytes()
    (tag, ihdr), (_, idat), _ = chunks = _chunks(blob)
    assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    assert blob == png_blob(ihdr, idat)  # lengths and CRCs as an independent writer has them
    assert ihdr == struct.pack(">IIBBBBB", width, height, bit_depth, 0 if channels == 1 else 2, 0, 0, 0)
    rows = samples.astype(np.uint8 if bit_depth == 8 else ">u2").reshape(height, -1).view(np.uint8)
    scanlines = np.concatenate([np.zeros((height, 1), np.uint8), rows], axis=1).tobytes()
    assert zlib.decompress(idat) == scanlines
    assert idat[1] >> 6 == 0  # zlib's "fastest" class: level 1 for 8-bit, 0 (stored) for 16-bit
    if bit_depth == 16:
        blocks = _stored_block_count(idat)
        chunk_overhead = 8 + 3 * 12 + 13  # signature, three chunk frames, IHDR body
        assert len(blob) <= len(scanlines) + 2 + 5 * blocks + 4 + chunk_overhead
