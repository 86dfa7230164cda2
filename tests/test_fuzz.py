"""Fuzz gates: every truncation or one-byte change of a small valid file
either reads or raises the reader's own typed error.

Any other exception (``ValueError``, ``IndexError``, ``struct.error``,
``OverflowError``, ...) escapes the ``except`` and fails the test.  Examples
are derandomized and bounded, so each gate costs well under a second.
"""

import zlib

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marsdust.degrade import DatasetManifest, PairRecord
from marsdust.errors import DecodeError, ManifestError, WeightsFormatError
from marsdust.pngio import read_png
from marsdust.tinynet import load_weights, save_weights

from conftest import png_blob

FUZZ = settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def mutate(data, blob: bytes) -> bytes:
    """A truncation of ``blob``, or ``blob`` with one byte replaced."""
    pos = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        return blob[:pos]
    return blob[:pos] + bytes([data.draw(st.integers(0, 255))]) + blob[pos + 1 :]


def weights_blob(tmp_path) -> bytes:
    path = tmp_path / "valid.mdw"
    save_weights({"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.float32(-1.5).reshape(()), "c": np.zeros(0, np.float32)}, path)
    return path.read_bytes()


# 5 rows x 3 RGB pixels, one row per filter type 0..4
_SCANLINES = np.random.default_rng(5).integers(0, 256, (5, 10), dtype=np.uint8)
_SCANLINES[:, 0] = np.arange(5)
_IHDR = bytes.fromhex("0000000300000005 0802000000")


def png_mutant(data) -> bytes:
    """A mutated PNG file, or a file whose IHDR or scanlines were mutated
    under correct CRCs, so the checks after the CRC see the change too."""
    kind = data.draw(st.sampled_from(["file", "ihdr", "scanlines"]))
    ihdr, scanlines = _IHDR, _SCANLINES.tobytes()
    if kind == "file":
        return mutate(data, png_blob(ihdr, zlib.compress(scanlines)))
    if kind == "ihdr":
        ihdr = mutate(data, ihdr)
    else:
        scanlines = mutate(data, scanlines)
    return png_blob(ihdr, zlib.compress(scanlines))


def manifest_blob() -> bytes:
    recs = [PairRecord("c/a.png", "d/a_d00.png", 120.5, 3, 2.0, 0.5, 0.4, (0.9, 0.8, 0.7), 7),
            PairRecord("c/b.png", "d/b_d01.png", 1e-05, 1, 2.5, 0.55, 1.0, (1.0,), 2**64 - 1)]
    return "".join(rec.to_line() + "\n" for rec in recs).encode()


@FUZZ
@given(data=st.data())
def test_weights_reader_raises_only_weights_format_error(tmp_path, data):
    path = tmp_path / "m.mdw"
    path.write_bytes(mutate(data, weights_blob(tmp_path)))
    try:
        load_weights(path)
    except WeightsFormatError:
        pass


@FUZZ
@given(data=st.data())
def test_png_reader_raises_only_decode_error(tmp_path, data):
    path = tmp_path / "m.png"
    path.write_bytes(png_mutant(data))
    try:
        read_png(path)
    except DecodeError:
        pass


@FUZZ
@given(data=st.data())
def test_manifest_reader_raises_only_manifest_error(tmp_path, data):
    path = tmp_path / "m.jsonl"
    path.write_bytes(mutate(data, manifest_blob()))
    try:
        DatasetManifest.load(path)
    except ManifestError:
        pass


def test_valid_blobs_read(tmp_path):
    (tmp_path / "w.mdw").write_bytes(weights_blob(tmp_path))
    assert list(load_weights(tmp_path / "w.mdw")) == ["a.w", "b", "c"]
    (tmp_path / "p.png").write_bytes(png_blob(_IHDR, zlib.compress(_SCANLINES.tobytes())))
    assert read_png(tmp_path / "p.png")[0].shape == (5, 3, 3)
    (tmp_path / "m.jsonl").write_bytes(manifest_blob())
    assert len(DatasetManifest.load(tmp_path / "m.jsonl").records) == 2
