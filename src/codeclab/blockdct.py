"""Block-DCT image codec: 8x8 orthonormal DCT with scaled quantization tables.

Channels are coded independently (no color transform, no subsampling) so the
pipeline stays auditable.  There is no entropy coder; bits_used is the
per-coefficient-position zero-order entropy of the quantized indices, which
reports rate consistently without affecting reconstruction.

Rounding everywhere is half-away-from-zero.

A codec instance owns the scratch buffers of one plane shape (_Workspace):
uint8 samples are level-shifted straight into its block buffer, and decoded
pixels go from it straight into a fresh uint8 image, so a stage allocates no
full-plane float temporary.  One instance must not run two stages at once.
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
# contiguous, so that matmul takes the BLAS path for the right-hand product
_DCT_T = np.ascontiguousarray(_DCT.T)


def dct2_8x8(
    blocks: np.ndarray,
    direction: str = "forward",
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Orthonormal 2-D DCT-II ('forward') or its inverse of each 8x8 block in
    an array of shape (..., 8, 8).  out, a float64 array of that shape, takes
    the result and may be blocks itself; scratch, another such array distinct
    from both, takes the intermediate product."""
    b = np.asarray(blocks, dtype=np.float64)
    if b.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8) blocks, got {b.shape}")
    if direction == "forward":
        left, right = _DCT, _DCT_T
    elif direction == "inverse":
        left, right = _DCT_T, _DCT
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return np.matmul(np.matmul(left, b, out=scratch), right, out=out)


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
    blocks: the uint8 edge-padded plane; the (blocks, 8, 8) coefficients; and
    a second such buffer for the DCT intermediate, the rounding signs and the
    decoded padded plane."""

    def __init__(self, height: int, width: int):
        self.shape = (height, width)
        self.hb, self.wb = -(-height // 8), -(-width // 8)
        self.padded = np.empty((8 * self.hb, 8 * self.wb), np.uint8)
        self.coeffs = np.empty((self.hb * self.wb, 8, 8))
        self.scratch = np.empty_like(self.coeffs)

    def as_plane(self, blocks: np.ndarray) -> np.ndarray:
        """A (blocks, 8, 8) buffer viewed as the padded plane, (hb, 8, wb, 8)."""
        return blocks.reshape(self.hb, self.wb, 8, 8).transpose(0, 2, 1, 3)


def _round_to_pixels(t: np.ndarray, out: np.ndarray) -> None:
    """clip(round_half_away(t), 0, 255) into the uint8 array out; t, float64
    of out's shape, is overwritten.

    Computed as clip(t, 0, 255) + 0.5, truncated by the cast to uint8, which
    is equal for every finite t: for 0 <= t <= 255 both are trunc(t + 0.5);
    below 0 both are 0 (round_half_away gives at most 0); above 255 both are
    255 (it gives at least 255)."""
    np.clip(t, 0, 255, out=t)
    t += 0.5
    out[...] = t


def _pixels_from_coeffs(ws: _Workspace, out: np.ndarray) -> None:
    """Inverse DCT of the dequantized coefficients in ws.coeffs, level-shifted,
    rounded and clipped into out, a uint8 (height, width) view."""
    dct2_8x8(ws.coeffs, "inverse", out=ws.coeffs, scratch=ws.scratch)
    # the unblocking transpose rides on the level shift into the padded plane
    pixels = ws.scratch.reshape(8 * ws.hb, 8 * ws.wb)
    np.add(ws.as_plane(ws.coeffs), 128.0, out=pixels.reshape(ws.hb, 8, ws.wb, 8))
    h, w = ws.shape
    _round_to_pixels(pixels[:h, :w], out)


def _entropy_bits(indices: np.ndarray) -> float:
    """Sum over the 64 coefficient positions of blocks * H(position histogram).

    One bincount over (position, value) keys, position pos taking the keys
    start[pos] .. start[pos + 1] - 1.  Each position's p * log2(p) terms are
    summed on their own, positions in order, so the result is bit-for-bit
    that of a loop over the 64 positions."""
    nblocks = indices.shape[0]
    lo = indices.min(axis=0).astype(np.int64)
    start = np.zeros(65, dtype=np.int64)
    np.cumsum(indices.max(axis=0) - lo + 1, out=start[1:])
    keys = indices - lo
    keys += start[:64]
    counts = np.bincount(keys.ravel(), minlength=int(start[-1]))
    seen = np.flatnonzero(counts)
    p = counts[seen] / nblocks
    terms = p * np.log2(p)
    ends = np.searchsorted(seen, start)
    total = 0.0
    for a, b in zip(ends[:-1].tolist(), ends[1:].tolist()):
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
            ws = self._ws = _Workspace(height, width)
        return ws

    def _channel_indices(self, plane: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Quantization indices of one uint8 (height, width) plane, (blocks,
        8, 8), as float64 integers in int16 range.  They live in the
        workspace's coefficient buffer, which the next call overwrites."""
        ws = self._workspace(*plane.shape)
        padded = _pad_to_blocks(plane, ws.padded)
        np.subtract(padded.reshape(ws.hb, 8, ws.wb, 8), 128.0, out=ws.as_plane(ws.coeffs))
        coeffs = dct2_8x8(ws.coeffs, out=ws.coeffs, scratch=ws.scratch)
        coeffs /= table
        round_half_away(coeffs, out=coeffs, scratch=ws.scratch)
        if coeffs.max() > 32767 or coeffs.min() < -32767:
            raise CodecError("quantized coefficient out of int16 range")
        return coeffs

    def encode(self, img: ImageBuffer, q: int) -> Bitstream:
        self.check_quality(q)
        table = self._tables[q - 1]
        bits = 0.0
        parts = [_HEADER.pack(_MAGIC, q, img.channels, img.width, img.height)]
        pixels = img.samples.reshape(img.height, img.width, img.channels)
        for c in range(img.channels):
            idx = self._channel_indices(pixels[:, :, c], table).astype("<i2")
            bits += _entropy_bits(idx.reshape(-1, 64))
            parts.append(idx.tobytes())
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
        table = self._tables[q - 1]
        nblocks = -(-height // 8) * -(-width // 8)
        expected, got = 2 * channels * nblocks * 64, len(bs.payload) - _HEADER.size
        if got != expected:
            raise CodecError(f"corrupt payload: expected {expected} body bytes, got {got}")
        body = np.frombuffer(bs.payload, "<i2", offset=_HEADER.size)
        body = body.reshape(channels, nblocks, 8, 8)
        out = np.empty((height, width, channels), np.uint8)
        ws = self._workspace(height, width)
        for c in range(channels):
            np.multiply(body[c], table, out=ws.coeffs)
            _pixels_from_coeffs(ws, out[:, :, c])
        return ImageBuffer(width, height, channels, out)

    def stage(self, img: ImageBuffer, q: int, rate: bool = False):
        """Codec.stage with no payload: each plane's indices go straight to
        the rate and the inverse, not through int16 bytes."""
        self.check_quality(q)
        table = self._tables[q - 1]
        pixels = img.samples.reshape(img.height, img.width, img.channels)
        out = np.empty_like(pixels)
        ws = self._workspace(img.height, img.width)
        bits = 0.0 if rate else None
        for c in range(img.channels):
            coeffs = self._channel_indices(pixels[:, :, c], table)
            if rate:
                bits += _entropy_bits(coeffs.reshape(-1, 64).astype(np.int16))
            coeffs *= table
            _pixels_from_coeffs(ws, out[:, :, c])
        return ImageBuffer(img.width, img.height, img.channels, out), bits
