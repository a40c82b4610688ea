"""Block-DCT image codec: 8x8 orthonormal DCT with scaled quantization tables.

Channels are coded independently (no color transform, no subsampling) so the
pipeline stays auditable.  There is no entropy coder; bits_used is the
per-coefficient-position zero-order entropy of the quantized indices, which
reports rate consistently without affecting reconstruction.

Rounding everywhere is half-away-from-zero.

A codec instance owns the scratch buffers of one plane shape (_Workspace).
Every transform runs in place on the edge-padded plane, viewed as rows of 8x8
blocks: uint8 samples are level-shifted straight into it, and decoded pixels
go from it straight into a fresh uint8 image, so a stage allocates no
full-plane float temporary.  Only the payload and the rate read the indices
in block order, from one int16 copy.  One instance must not run two stages
at once.
"""
from __future__ import annotations

import struct

import numpy as np

from .codecs import Bitstream, Codec, CodecError
from .signals import ImageBuffer

# ITU-T T.81 Annex K luminance quantization table.
BASE_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

DEFAULT_NATIVE_QUALITIES = (5, 15, 25, 35, 45, 55, 65, 75)


def _dct_matrix() -> np.ndarray:
    j = np.arange(8)
    m = np.sqrt(2.0 / 8.0) * np.cos((2 * j[None, :] + 1) * j[:, None] * np.pi / 16)
    m[0, :] = np.sqrt(1.0 / 8.0)
    return m


_DCT = _dct_matrix()
# contiguous, so that matmul takes the BLAS path with it as either operand
_DCT_T = np.ascontiguousarray(_DCT.T)


def dct2_8x8(
    blocks: np.ndarray,
    direction: str = "forward",
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Orthonormal 2-D DCT-II ('forward') or its inverse of each 8x8 block in
    an array of block rows, shape (..., 8, 8 * m): block j of a row is columns
    8j .. 8j + 7, so an (..., 8, 8) stack of blocks is the case m = 1.

    The left product runs first, one (8, 8) @ (8, 8 * m) product per block
    row, then the right one as a single (rows, 8) @ (8, 8) product; every
    coefficient is the same 8-term sum of the same products, left then right,
    as in a per-block D @ block @ D.T.  out, a C-contiguous float64 array of
    the input's shape, takes the result and may be blocks itself; scratch,
    another such array distinct from both, takes the intermediate product."""
    b = np.asarray(blocks, dtype=np.float64)
    if b.ndim < 2 or b.shape[-2] != 8 or b.shape[-1] % 8 or not b.shape[-1]:
        raise ValueError(f"expected (..., 8, 8 * m) block rows, got {b.shape}")
    if direction == "forward":
        left, right = _DCT, _DCT_T
    elif direction == "inverse":
        left, right = _DCT_T, _DCT
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")  # the right product writes a reshape of it
    t = np.matmul(left, b, out=scratch)
    flat = None if out is None else out.reshape(-1, 8)
    return np.matmul(t.reshape(-1, 8), right, out=flat).reshape(b.shape)


def scale_quant_table(q_native: int) -> np.ndarray:
    """IJG quality scaling of the base table; entries clamped to [1, 255].

    Below quality 50 the scale 5000/q is kept exact, where libjpeg's
    jpeg_quality_scaling truncates it to an integer, so the tables at native
    qualities 15, 35 and 45 differ from libjpeg's in 4, 25 and 5 entries.
    """
    if not 1 <= q_native <= 100:
        raise ValueError(f"native quality {q_native} outside [1, 100]")
    if q_native < 50:
        # scale = 5000/q exactly: floor((b*5000/q + 50)/100) = (b*5000 + 50q) // (100q)
        scaled = (BASE_QUANT_TABLE * 5000 + 50 * q_native) // (100 * q_native)
    else:
        scale = 200 - 2 * q_native
        scaled = (BASE_QUANT_TABLE * scale + 50) // 100
    return np.clip(scaled, 1, 255)


def round_half_away(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """trunc(x + copysign(0.5, x)); out may be x itself, and scratch, an array
    of x's shape distinct from both, takes the signed halves."""
    y = np.copysign(0.5, x, out=scratch)
    if out is None:
        out = y
    np.add(x, y, out=out)
    return np.trunc(out, out=out)


def _pad_to_blocks(plane: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, a uint8 (H, W) buffer with H, W the plane's sides rounded up to
    multiples of 8, holding the plane edge-padded."""
    h, w = plane.shape
    out[:h, :w] = plane
    out[h:, :w] = out[h - 1, :w]
    out[:, w:] = out[:, w - 1 : w]
    return out


class _Workspace:
    """Scratch buffers for planes of one (height, width), padded to hb x wb
    blocks: the uint8 edge-padded plane; the float64 padded plane as hb block
    rows, (hb, 8, 8 * wb), which holds the level-shifted samples, then the
    coefficients and indices, then the decoded plane; a second such buffer for
    the DCT intermediate and the rounding signs; and every level's
    quantization table tiled along a block row, (levels, 8, 8 * wb)."""

    def __init__(self, height: int, width: int, tables: list[np.ndarray]):
        self.shape = (height, width)
        self.hb, self.wb = -(-height // 8), -(-width // 8)
        self.padded = np.empty((8 * self.hb, 8 * self.wb), np.uint8)
        self.rows = np.empty((self.hb, 8, 8 * self.wb))
        self.scratch = np.empty_like(self.rows)
        self.tables = np.tile(tables, self.wb)

    def block_order(self, indices: np.ndarray) -> np.ndarray:
        """Block rows of indices as the payload's little-endian int16 blocks,
        (blocks, 64), in row-major block order: one transposed copy."""
        blocks = indices.reshape(self.hb, 8, self.wb, 8).transpose(0, 2, 1, 3)
        return blocks.astype("<i2", order="C").reshape(-1, 64)


def _round_to_pixels(t: np.ndarray, out: np.ndarray) -> None:
    """clip(round_half_away(t), 0, 255) into the uint8 array out; t, float64
    of out's shape, is overwritten.

    Computed as clip(t, 0, 255) + 0.5, truncated by the cast to uint8, which
    is equal for every finite t: for 0 <= t <= 255 both are trunc(t + 0.5);
    below 0 both are 0 (round_half_away gives at most 0); above 255 both are
    255 (it gives at least 255).  The clip is two ufunc calls, not np.clip,
    whose Python wrappers cost more than the clip itself on small planes."""
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 255.0, out=t)
    t += 0.5
    out[...] = t


def _pixels_from_coeffs(ws: _Workspace, out: np.ndarray) -> None:
    """Inverse DCT of the dequantized coefficients in ws.rows, level-shifted,
    rounded and clipped into out, a uint8 (height, width) view."""
    pixels = dct2_8x8(ws.rows, "inverse", out=ws.rows, scratch=ws.scratch)
    pixels += 128.0
    h, w = ws.shape
    _round_to_pixels(pixels.reshape(ws.padded.shape)[:h, :w], out)


def _entropy_bits(indices: np.ndarray) -> float:
    """Sum over the 64 coefficient positions of blocks * H(position histogram).

    A position that holds one value is left out: it would add exactly
    -blocks * 0.0 (p = 1.0, log2(1.0) = 0.0).  One bincount counts the others
    over (position, value) keys, the m-th of them taking the keys start[m] ..
    start[m + 1] - 1.  Each position's p * log2(p) terms are summed on their
    own, positions in order, so the result is bit-for-bit that of a loop over
    the 64 positions."""
    nblocks = indices.shape[0]
    lo, hi = indices.min(axis=0), indices.max(axis=0)
    multi = np.flatnonzero(hi > lo)
    lo = lo[multi].astype(np.int64)
    start = np.zeros(len(multi) + 1, dtype=np.int64)
    np.cumsum(hi[multi] - lo + 1, out=start[1:])
    keys = np.take(indices, multi, axis=1) - lo
    keys += start[:-1]
    counts = np.bincount(keys.ravel(), minlength=int(start[-1]))
    seen = np.flatnonzero(counts)
    p = counts[seen] / nblocks
    terms = p * np.log2(p)
    ends = np.searchsorted(seen, start).tolist()
    total = 0.0
    for a, b in zip(ends[:-1], ends[1:]):
        total -= nblocks * float(terms[a:b].sum())
    return total


_HEADER = struct.Struct("<2sBBHH")  # magic, quality, channels, width, height
_MAGIC = b"BD"


class BlockDctCodec(Codec):
    """JPEG-style codec: pad, level-shift, 8x8 DCT, quantize, and back.

    Payload: header "<2sBBHH" (magic BD, quality, channels, width, height),
    then each plane's indices as little-endian int16, in row-major block order.
    """

    signal_kind = "image"
    codec_id = "block-dct"

    def __init__(self, native_qualities=DEFAULT_NATIVE_QUALITIES):
        qs = tuple(int(q) for q in native_qualities)
        if not qs or list(qs) != sorted(set(qs)):
            raise ValueError("native qualities must be strictly increasing")
        self.native_qualities = qs
        self._tables = [scale_quant_table(q).astype(np.float64) for q in qs]
        self._ws: _Workspace | None = None

    @property
    def num_levels(self) -> int:
        return len(self.native_qualities)

    def _workspace(self, height: int, width: int) -> _Workspace:
        """This instance's workspace, rebuilt when the plane shape changes."""
        ws = self._ws
        if ws is None or ws.shape != (height, width):
            ws = self._ws = _Workspace(height, width, self._tables)
        return ws

    def _channel_indices(self, plane: np.ndarray, q: int) -> np.ndarray:
        """Quantization indices at level q of one uint8 (height, width) plane,
        as block rows (hb, 8, 8 * wb) of float64 integers in int16 range.
        They live in the workspace's ws.rows, which the next call overwrites."""
        ws = self._workspace(*plane.shape)
        padded = _pad_to_blocks(plane, ws.padded)
        rows = ws.rows
        np.subtract(padded.reshape(rows.shape), 128.0, out=rows)
        dct2_8x8(rows, out=rows, scratch=ws.scratch)
        rows /= ws.tables[q - 1]
        round_half_away(rows, out=rows, scratch=ws.scratch)
        if rows.max() > 32767 or rows.min() < -32767:
            raise CodecError("quantized coefficient out of int16 range")
        return rows

    def encode(self, img: ImageBuffer, q: int) -> Bitstream:
        self.check_quality(q)
        bits = 0.0
        parts = [_HEADER.pack(_MAGIC, q, img.channels, img.width, img.height)]
        pixels = img.samples.reshape(img.height, img.width, img.channels)
        ws = self._workspace(img.height, img.width)
        for c in range(img.channels):
            blocks = ws.block_order(self._channel_indices(pixels[:, :, c], q))
            bits += _entropy_bits(blocks)
            parts.append(blocks.tobytes())
        return Bitstream(payload=b"".join(parts), bits_used=bits)

    def decode(self, bs: Bitstream) -> ImageBuffer:
        try:
            magic, q, channels, width, height = _HEADER.unpack_from(bs.payload)
        except struct.error as e:
            raise CodecError(f"corrupt header: {e}") from None
        if magic != _MAGIC:
            raise CodecError(f"corrupt header: magic {magic!r}")
        if channels not in (1, 3) or width < 1 or height < 1:
            raise CodecError("corrupt header: bad geometry")
        self.check_quality(q)
        nblocks = -(-height // 8) * -(-width // 8)
        expected, got = 2 * channels * nblocks * 64, len(bs.payload) - _HEADER.size
        if got != expected:
            raise CodecError(f"corrupt payload: expected {expected} body bytes, got {got}")
        out = np.empty((height, width, channels), np.uint8)
        ws = self._workspace(height, width)
        hb, wb = ws.hb, ws.wb
        # the payload's row-major blocks, viewed as block rows (hb, 8, wb, 8)
        body = np.frombuffer(bs.payload, "<i2", offset=_HEADER.size)
        body = body.reshape(channels, hb, wb, 8, 8).transpose(0, 1, 3, 2, 4)
        table = ws.tables[q - 1].reshape(8, wb, 8)
        for c in range(channels):
            np.multiply(body[c], table, out=ws.rows.reshape(hb, 8, wb, 8))
            _pixels_from_coeffs(ws, out[:, :, c])
        return ImageBuffer(width, height, channels, out)

    def stage(self, img: ImageBuffer, q: int, rate: bool = False):
        """Codec.stage with no payload: each plane's indices go straight to
        the rate and the inverse, not through int16 bytes."""
        self.check_quality(q)
        pixels = img.samples.reshape(img.height, img.width, img.channels)
        out = np.empty_like(pixels)
        ws = self._workspace(img.height, img.width)
        bits = 0.0 if rate else None
        for c in range(img.channels):
            indices = self._channel_indices(pixels[:, :, c], q)
            if rate:
                bits += _entropy_bits(ws.block_order(indices))
            indices *= ws.tables[q - 1]
            _pixels_from_coeffs(ws, out[:, :, c])
        return ImageBuffer(img.width, img.height, img.channels, out), bits
