"""Minimal PNG codec: 8/16-bit, grayscale and RGB, no alpha, no interlace.

Built on stdlib zlib rather than an imaging library because the pipeline
needs 16-bit RGB round trips and precise, typed decode errors.

The encoder always emits filter type 0 scanlines, and the bit depth fixes
its zlib level.  16-bit samples go out as stored (level 0) blocks: their
noisy low bytes leave nothing to deflate (dusty 512x512 RGB terrain frames
shrink only 1.014-1.018x at level 6, which takes about 65 ms a frame
against 1 ms), and stored blocks also inflate about ten times faster.
8-bit samples use level 1, which on the same frames is both smaller and
faster than level 6: 1.61-1.73x in about 19 ms against 1.46-1.59x in
48-58 ms.

The decoder understands all five standard filters so externally produced
files load too.  Images with any filtered row, such as the Average and
Paeth rows libpng picks for nearly every row of a photograph, go through a
wavefront that rebuilds one anti-diagonal of pixels per numpy step.  As
every predictor but None is upleft plus a function of left - upleft and
up - upleft, a step looks its predictions up in a 1 MB uint8 table of those
functions, built on the first filtered decode, not at import.  The decoder
refuses images of more than ``MAX_PIXELS`` pixels before it inflates
anything, inflates at most one byte more than the header promises, and
rejects critical chunks it does not know, as the PNG specification
requires; ancillary chunks are skipped.
"""

from __future__ import annotations

import functools
import struct
import zlib

import numpy as np

from .atomic import read_input, write_atomic
from .errors import DecodeError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# The most pixels read_png decodes (8192 x 8192), checked before any
# inflate.  A 16-bit RGB image at the limit holds 400 MB of samples, and
# read_png's memory peaks at about three times its samples, during inflate.
MAX_PIXELS = 1 << 26


def _chunk(tag: bytes, payload) -> tuple:
    """The length-and-tag header, the payload and the CRC of one chunk."""
    crc = zlib.crc32(payload, zlib.crc32(tag))
    return struct.pack(">I4s", len(payload), tag), payload, struct.pack(">I", crc)


def write_png(path, samples: np.ndarray, bit_depth: int) -> None:
    """Write integer samples shaped (height, width, channels) as a PNG file.

    ``samples`` must already be quantized: uint8 for bit_depth 8, uint16 for 16.
    Channels must be 1 (grayscale) or 3 (RGB).  The file appears whole or not
    at all.
    """
    height, width, channels = samples.shape
    color_type = 0 if channels == 1 else 2
    scanlines = np.empty((height, 1 + width * channels * bit_depth // 8), dtype=np.uint8)
    scanlines[:, 0] = 0  # filter type None
    # PNG samples are big-endian: one copy both swaps and places them
    sample_type = np.uint8 if bit_depth == 8 else np.dtype(">u2")
    scanlines[:, 1:].view(sample_type)[...] = samples.reshape(height, -1)
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    idat = zlib.compress(scanlines, 1 if bit_depth == 8 else 0)
    write_atomic(path, [_SIGNATURE, *_chunk(b"IHDR", ihdr), *_chunk(b"IDAT", idat), *_chunk(b"IEND", b"")])


def read_png(path) -> tuple[np.ndarray, int]:
    """Decode a PNG file to (samples, bit_depth).

    Samples are uint8 or uint16 shaped (height, width, channels).  Raises
    DecodeError naming the offending property for anything outside the
    supported subset (8/16-bit gray or RGB, non-interlaced, no alpha).
    Every DecodeError message starts with ``<path>: ``.
    """
    blob = read_input(path, DecodeError)
    if not blob.startswith(_SIGNATURE):
        raise DecodeError(f"{path}: not a PNG file (bad signature)")

    pos = len(_SIGNATURE)
    ihdr = None
    idat = bytearray()
    while True:
        if pos + 8 > len(blob):
            raise DecodeError(f"{path}: truncated chunk header")
        (length,) = struct.unpack_from(">I", blob, pos)
        tag = blob[pos + 4 : pos + 8]
        body_end = pos + 8 + length
        if body_end + 4 > len(blob):
            raise DecodeError(f"{path}: truncated {tag.decode('latin1')} chunk")
        payload = blob[pos + 8 : body_end]
        (crc,) = struct.unpack_from(">I", blob, body_end)
        if crc != (zlib.crc32(tag + payload) & 0xFFFFFFFF):
            raise DecodeError(f"{path}: CRC mismatch in {tag.decode('latin1')} chunk")
        pos = body_end + 4
        if tag == b"IHDR":
            ihdr = payload
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
        # an uppercase first letter marks a critical chunk; PLTE is only a
        # suggested palette in the truecolor files decoded here
        elif tag != b"PLTE" and not tag[0] & 0x20:
            raise DecodeError(f"{path}: unknown critical chunk {tag.decode('latin1')}")
    del blob  # each buffer is dropped once used, so decode peaks at inflate

    if ihdr is None or len(ihdr) != 13:
        raise DecodeError(f"{path}: missing or malformed IHDR")
    width, height, depth, color_type, compression, filt, interlace = struct.unpack(
        ">IIBBBBB", ihdr
    )
    if color_type == 3:
        raise DecodeError(f"{path}: palette (indexed) color not supported")
    if color_type in (4, 6):
        raise DecodeError(f"{path}: alpha channel not supported (color type {color_type})")
    if color_type not in (0, 2):
        raise DecodeError(f"{path}: unsupported color type {color_type}")
    if depth not in (8, 16):
        raise DecodeError(f"{path}: unsupported bit depth {depth}")
    if interlace != 0:
        raise DecodeError(f"{path}: interlaced PNG not supported")
    if compression != 0 or filt != 0:
        raise DecodeError(f"{path}: unsupported compression/filter method")
    if width < 1 or height < 1:
        raise DecodeError(f"{path}: invalid dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise DecodeError(f"{path}: image {width}x{height} too large (limit {MAX_PIXELS} pixels)")

    channels = 1 if color_type == 0 else 3
    bpp = channels * (depth // 8)
    row_bytes = width * bpp
    expected = height * (1 + row_bytes)
    inflater = zlib.decompressobj()
    try:
        # inflate at most one byte past the image, so a bomb cannot fill memory
        plain = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise DecodeError(f"{path}: corrupt compressed image data ({exc})") from exc
    if len(plain) != expected:
        raise DecodeError(f"{path}: image data length mismatch")
    if not inflater.eof:
        raise DecodeError(f"{path}: corrupt compressed image data (truncated stream)")
    del idat, inflater

    raw = np.frombuffer(plain, dtype=np.uint8).reshape(height, 1 + row_bytes)
    invalid = np.flatnonzero(raw[:, 0] > 4)
    if invalid.size:
        raise DecodeError(f"{path}: invalid scanline filter type {raw[invalid[0], 0]}")
    recon = _unfilter_wavefront(raw, width, bpp) if raw[:, 0].any() else raw[:, 1:].copy()
    del plain, raw
    if depth == 16:
        recon = recon.view(">u2").astype(np.uint16)  # PNG samples are big-endian
    return recon.reshape(height, width, channels), depth


@functools.cache
def _prediction_table() -> np.ndarray:
    """(prediction - upleft) mod 256 of filters 1-4, read-only, at flat index
    (ftype - 1) * 511**2 + 511 * (left - upleft + 255) + up - upleft + 255.
    The in-place steps keep the build's scratch below the table's 1.0 MB."""
    d = np.arange(-255, 256, dtype=np.int16)
    d1, d2 = d[:, None], d[None, :]  # left - upleft, up - upleft
    table = np.zeros((4, 511, 511), dtype=np.uint8)
    table[0], table[1] = d1, d2  # Sub, Up; stores wrap mod 256
    pc = d1 + d2
    np.right_shift(pc, 1, out=table[2], casting="unsafe")  # Average
    np.abs(pc, out=pc)  # Paeth: a if pa <= min(pb, pc), else b if pb <= pc, else c
    np.copyto(table[3], d2, casting="unsafe", where=np.abs(d1) <= pc)
    np.minimum(pc, np.abs(d1), out=pc)
    np.copyto(table[3], d1, casting="unsafe", where=np.abs(d2) <= pc)
    table.flags.writeable = False
    return table.reshape(-1)


def _unfilter_wavefront(raw: np.ndarray, width: int, bpp: int) -> np.ndarray:
    """Undo any mix of the five filters, one anti-diagonal of pixels per step.

    Pixel (y, x) is predicted from (y, x-1), (y-1, x) and (y-1, x-1) only, so
    every row advances one pixel per step, with its own filter.
    ``diag[d % 2][y + 1]`` holds pixel (y, d - y) while diagonals d and d + 1
    are built.  Slot 0 is the zero row above the image; a row's slot is the
    zero pixel left of column 0 until the wavefront enters the row, and stale
    but never read once it has left.
    """
    height = raw.shape[0]
    table = _prediction_table()
    offsets = np.maximum(raw[:, :1].astype(np.int32) - 1, 0) * 511**2 + 255 * 512  # None reads Sub's
    none_rows = raw[:, :1] == 0 if 0 in raw[:, 0] else None
    residuals = raw[:, 1:].reshape(height * width, bpp)
    recon = np.empty((height * width, bpp), dtype=np.uint8)
    diag = np.zeros((2, height + 1, bpp), dtype=np.uint8)
    for k in range(height + width - 1):
        lo, hi = max(0, k - width + 1), min(height, k + 1)
        last, before = diag[(k + 1) % 2], diag[k % 2]
        left, up, upleft = last[lo + 1 : hi + 1], last[lo:hi], before[lo:hi]
        index = offsets[lo:hi] + 511 * left.astype(np.int32) + up - 512 * upleft.astype(np.int32)
        pred = table.take(index)
        # pixel (y, k - y) has flat index k + y * (width - 1)
        pixels = slice(k + lo * (width - 1), k + (hi - 1) * (width - 1) + 1, max(width - 1, 1))
        pred += upleft  # uint8 adds wrap mod 256, as the filters do
        pred += residuals[pixels]
        if none_rows is not None:
            np.copyto(pred, residuals[pixels], where=none_rows[lo:hi])
        recon[pixels] = pred
        before[lo + 1 : hi + 1] = pred
    return recon.reshape(height, width * bpp)
