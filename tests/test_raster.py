import errno
import os
import struct
import zlib

import numpy as np
import pytest

from marsdust.errors import DecodeError, ValidationError
from marsdust.pngio import write_png
from marsdust.raster import Image, list_pngs, load_image, save_image

from conftest import png_blob


def random_image(seed, h=17, w=23, c=3):
    rng = np.random.default_rng(seed)
    return Image(rng.random((h, w, c)))


class TestImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Image(np.full((4, 4, 3), 1.5))
        with pytest.raises(ValidationError):
            Image(np.full((4, 4, 3), -0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        arr = np.full((2, 3, 3), 0.5)
        arr[1, 2, 0] = bad
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            Image(arr)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValidationError):
            Image(np.zeros((4, 4, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Image(np.zeros((0, 4, 1)))

    def test_data_is_read_only(self):
        img = random_image(0)
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 0.0

    def test_gray_promotes_to_3d(self):
        img = Image(np.zeros((5, 6)))
        assert img.channels == 1 and img.width == 6 and img.height == 5


class TestCodec:
    def test_load_8bit_rgb_exact_scaling(self, tmp_path):
        arr = np.zeros((1, 1, 3), dtype=np.uint8)
        arr[0, 0] = (255, 128, 0)
        write_png(tmp_path / "p.png", arr, 8)
        img = load_image(tmp_path / "p.png")
        assert img.data[0, 0].tolist() == [1.0, 128 / 255, 0.0]

    def test_load_16bit_gray_max(self, tmp_path):
        arr = np.array([[[65535]]], dtype=np.uint16)
        write_png(tmp_path / "g.png", arr, 16)
        img = load_image(tmp_path / "g.png")
        assert img.data[0, 0, 0] == 1.0
        assert img.channels == 1

    def test_quantization_rule_round_half_up(self, tmp_path):
        img = Image(np.array([[[0.5, 0.0, 1.0]]]))
        save_image(img, tmp_path / "q.png", 8)
        from marsdust.pngio import read_png

        samples, depth = read_png(tmp_path / "q.png")
        assert depth == 8
        assert samples[0, 0].tolist() == [128, 0, 255]

    def test_quantization_endpoints_16bit(self, tmp_path):
        img = Image(np.array([[[0.0], [1.0]]]))
        save_image(img, tmp_path / "q16.png", 16)
        from marsdust.pngio import read_png

        samples, depth = read_png(tmp_path / "q16.png")
        assert depth == 16
        assert samples[0, 0, 0] == 0 and samples[0, 1, 0] == 65535

    def test_exhaustive_8bit_levels_roundtrip_exact(self, tmp_path):
        levels = np.arange(256, dtype=np.float64) / 255.0
        img = Image(levels.reshape(16, 16, 1))
        save_image(img, tmp_path / "levels.png", 8)
        back = load_image(tmp_path / "levels.png")
        assert np.array_equal(back.data, img.data)

    @pytest.mark.parametrize("depth,bound", [(8, 0.5 / 255), (16, 0.5 / 65535)])
    def test_roundtrip_error_bound(self, tmp_path, depth, bound):
        for seed in range(5):
            img = random_image(seed)
            save_image(img, tmp_path / "r.png", depth)
            back = load_image(tmp_path / "r.png")
            assert np.abs(back.data - img.data).max() <= bound + 1e-15

    def test_16bit_rgb_roundtrip(self, tmp_path):
        img = random_image(3, 9, 7, 3)
        save_image(img, tmp_path / "rgb16.png", 16)
        back = load_image(tmp_path / "rgb16.png")
        assert back.channels == 3
        assert np.abs(back.data - img.data).max() <= 0.5 / 65535 + 1e-15

    def test_save_rejects_bad_depth(self, tmp_path):
        with pytest.raises(ValidationError):
            save_image(random_image(0), tmp_path / "x.png", 12)

    def test_missing_file_is_decode_error(self, tmp_path):
        with pytest.raises(DecodeError):
            load_image(tmp_path / "nope.png")

    @pytest.mark.parametrize("kind, code", [("missing", errno.ENOENT), ("directory", errno.EISDIR)])
    def test_unreadable_file_message_starts_with_its_path(self, tmp_path, kind, code):
        p = tmp_path / "x.png"
        if kind == "directory":
            p.mkdir()
        with pytest.raises(DecodeError) as info:
            load_image(p)
        assert str(info.value) == f"{p}: cannot read ({os.strerror(code)})"

    def test_not_a_png(self, tmp_path):
        p = tmp_path / "fake.png"
        p.write_bytes(b"definitely not a png")
        with pytest.raises(DecodeError, match="signature"):
            load_image(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "t.png"
        save_image(random_image(1), p, 8)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(DecodeError, match="truncated|CRC"):
            load_image(p)

    def test_alpha_rejected_naming_property(self, tmp_path):
        # hand-build a 1x1 RGBA PNG (color type 6)
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 6, 0, 0, 0)
        p = tmp_path / "rgba.png"
        p.write_bytes(png_blob(ihdr, zlib.compress(b"\x00\x10\x20\x30\xff")))
        with pytest.raises(DecodeError, match="alpha"):
            load_image(p)

    def test_palette_rejected(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 3, 0, 0, 0)
        p = tmp_path / "pal.png"
        p.write_bytes(png_blob(ihdr, zlib.compress(b"\x00\x00"), extra=[(b"PLTE", b"\x00\x00\x00")]))
        with pytest.raises(DecodeError, match="palette"):
            load_image(p)

    def test_low_bit_depth_rejected_naming_depth(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 8, 1, 4, 0, 0, 0, 0)
        p = tmp_path / "lowdepth.png"
        p.write_bytes(png_blob(ihdr, zlib.compress(b"\x00\x12\x34\x56\x78")))
        with pytest.raises(DecodeError, match="bit depth 4"):
            load_image(p)

    def test_decodes_sub_and_up_filters(self, tmp_path):
        # foreign encoders may use any filter; exercise Sub(1) and Up(2)
        rows = np.array([[10, 20, 30, 40], [15, 25, 35, 45]], dtype=np.uint8)
        raw = bytearray()
        raw.append(1)  # Sub
        line = rows[0].astype(int)
        raw.extend(int(v) % 256 for v in [line[0], line[1] - line[0], line[2] - line[1], line[3] - line[2]])
        raw.append(2)  # Up
        raw.extend(int(v) % 256 for v in rows[1].astype(int) - rows[0].astype(int))
        ihdr = struct.pack(">IIBBBBB", 4, 2, 8, 0, 0, 0, 0)
        p = tmp_path / "filters.png"
        p.write_bytes(png_blob(ihdr, zlib.compress(bytes(raw))))
        img = load_image(p)
        assert np.array_equal(np.round(img.data[:, :, 0] * 255).astype(int), rows)


class TestListPngs:
    def test_directory_without_a_png_rejected_naming_it(self, tmp_path):
        (tmp_path / "notes.txt").write_text("no images here")
        with pytest.raises(ValidationError) as info:
            list_pngs(tmp_path)
        assert str(info.value) == f"no PNG images found in {tmp_path}"

    @pytest.mark.parametrize("blank", ["", " "])
    def test_blank_name_is_not_the_working_directory(self, tmp_path, monkeypatch, blank):
        save_image(random_image(2), tmp_path / "x.png", 8)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match="blank"):
            list_pngs(blank)
