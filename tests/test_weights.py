import errno
import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from marsdust.errors import WeightsFormatError
from marsdust.rng import splitmix64_at
from marsdust.tinynet import load_weights, save_weights


def sample_weights() -> dict[str, np.ndarray]:
    tensors = {}
    tensors["a.w"] = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
    tensors["a.b"] = np.array([0.5, -1.25], dtype=np.float32)
    tensors["z"] = np.float32(7.0).reshape(())  # rank-0 tensor
    return tensors


def deterministic_weights() -> dict[str, np.ndarray]:
    """Platform-independent pseudo-random tensors (splitmix64-driven)."""
    tensors = {}
    for k, (name, shape) in enumerate([("conv.w", (3, 2, 3, 3)), ("conv.b", (3,))]):
        n = int(np.prod(shape))
        vals = [splitmix64_at(k + 1, i) / 2.0**64 for i in range(n)]
        tensors[name] = np.array(vals, dtype=np.float32).reshape(shape)
    return tensors


# float32 tensors with any bit pattern, NaN payloads included, and float64
# tensors within float32's range, which save casts to float32.
_tensors = st.one_of(
    arrays(np.float32, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
           elements=st.floats(-3e38, 3e38)),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(weights=st.dictionaries(st.text(max_size=10), _tensors, max_size=4))
    def test_save_then_load_keeps_names_order_shapes_and_float32_bytes(self, tmp_path, weights):
        save_weights(weights, tmp_path / "w.mdw")
        back = load_weights(tmp_path / "w.mdw")
        assert list(back) == list(weights)
        for name, arr in weights.items():
            assert back[name].dtype == np.float32 and back[name].shape == arr.shape
            assert back[name].tobytes() == arr.astype(np.float32).tobytes()

    def test_bit_identical(self, tmp_path):
        w = sample_weights()
        path = tmp_path / "w.mdw"
        save_weights(w, path)
        back = load_weights(path)
        assert path.read_bytes()[4:8] == struct.pack("<I", 1)  # format version
        assert list(back) == list(w)
        for name in w:
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], w[name])

    def test_save_load_save_same_bytes(self, tmp_path):
        w = sample_weights()
        p1, p2 = tmp_path / "1.mdw", tmp_path / "2.mdw"
        save_weights(w, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_golden_checksum(self, tmp_path):
        # frozen once from the deterministic generator; guards the byte layout
        path = tmp_path / "golden.mdw"
        save_weights(deterministic_weights(), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "3cd86d3f285c88f663f30d9c20b01e103071eaf83bac88e90bb3a46715196764"


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mdw"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v9.mdw"
        p.write_bytes(b"MDW1" + struct.pack("<II", 9, 0))
        with pytest.raises(WeightsFormatError, match="version 9"):
            load_weights(p)

    def test_truncated_payload(self, tmp_path):
        w = sample_weights()
        p = tmp_path / "t.mdw"
        save_weights(w, p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.mdw"
        p.write_bytes(b"MDW1\x01\x00")
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(p)

    def test_shape_table_payload_mismatch(self, tmp_path):
        # claim a 2x2 tensor but provide a single float
        p = tmp_path / "m.mdw"
        body = b"MDW1" + struct.pack("<II", 1, 1)
        name = b"w"
        body += struct.pack("<I", len(name)) + name
        body += struct.pack("<I", 2) + struct.pack("<II", 2, 2)
        body += struct.pack("<f", 1.0)
        p.write_bytes(body)
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(p)

    def test_dims_whose_product_overflows_int64(self, tmp_path):
        # 2 * 3 * 682295299 * 3952736990 is past 2**63: the size must not wrap
        p = tmp_path / "huge.mdw"
        body = b"MDW1" + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"a"
        body += struct.pack("<5I", 4, 2, 3, 682295299, 3952736990)
        p.write_bytes(body)
        assert len(body) == 37
        with pytest.raises(WeightsFormatError, match="truncated file while reading values of a"):
            load_weights(p)

    def test_trailing_garbage(self, tmp_path):
        w = sample_weights()
        p = tmp_path / "g.mdw"
        save_weights(w, p)
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(WeightsFormatError, match="trailing"):
            load_weights(p)

    def test_duplicate_names(self, tmp_path):
        p = tmp_path / "d.mdw"
        body = b"MDW1" + struct.pack("<II", 1, 2)
        for _ in range(2):
            body += struct.pack("<I", 1) + b"w"
            body += struct.pack("<I", 1) + struct.pack("<I", 1)
            body += struct.pack("<f", 1.0)
        p.write_bytes(body)
        with pytest.raises(WeightsFormatError, match="duplicate"):
            load_weights(p)

    @pytest.mark.parametrize("tail, message", [
        (struct.pack("<I", 9), "implausible rank 9 for w"),
        (struct.pack("<I", 2), "truncated file while reading dims of w"),
        (struct.pack("<5I", 4, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1), "cannot shape w as \\(0, 4294967295"),
    ], ids=["rank-9", "short-dims", "zero-dim-beside-huge"])
    def test_tensor_header_errors(self, tmp_path, tail, message):
        p = tmp_path / "r.mdw"
        p.write_bytes(b"MDW1" + struct.pack("<III", 1, 1, 1) + b"w" + tail)
        with pytest.raises(WeightsFormatError, match=message):
            load_weights(p)

    @pytest.mark.parametrize("name_len, name, message", [
        (1, b"\xff", "tensor 0 name is not UTF-8"),
        (3, b"ab", "truncated file while reading name of tensor 0"),
    ])
    def test_tensor_name_errors(self, tmp_path, name_len, name, message):
        p = tmp_path / "n.mdw"
        p.write_bytes(b"MDW1" + struct.pack("<III", 1, 1, name_len) + name)
        with pytest.raises(WeightsFormatError, match=message):
            load_weights(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WeightsFormatError, match="cannot read"):
            load_weights(tmp_path / "absent.mdw")

    def test_unreadable_file_is_named_once(self, tmp_path):
        path = tmp_path / "absent.mdw"
        with pytest.raises(WeightsFormatError) as info:
            load_weights(path)
        assert str(info.value) == f"{path}: cannot read ({os.strerror(errno.ENOENT)})"
