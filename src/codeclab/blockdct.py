"""Block-DCT image codec: 8x8 orthonormal DCT with scaled quantization tables.

Channels are coded independently (no color transform, no subsampling) so the
pipeline stays auditable.  There is no entropy coder; bits_used is the
per-coefficient-position zero-order entropy of the quantized indices, which
reports rate consistently without affecting reconstruction.

Rounding everywhere is half-away-from-zero.
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
    blocks: np.ndarray, direction: str = "forward", out: np.ndarray | None = None
) -> np.ndarray:
    """Orthonormal 2-D DCT-II ('forward') or its inverse of each 8x8 block in
    an array of shape (..., 8, 8).  out, a float64 array of that shape, takes
    the result and may be blocks itself."""
    b = np.asarray(blocks, dtype=np.float64)
    if b.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8) blocks, got {b.shape}")
    if direction == "forward":
        left, right = _DCT, _DCT_T
    elif direction == "inverse":
        left, right = _DCT_T, _DCT
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return np.matmul(np.matmul(left, b), right, out=out)


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


def round_half_away(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """trunc(x + copysign(0.5, x)), in one temporary; out may be x itself."""
    y = np.copysign(0.5, x)
    if out is None:
        out = y
    np.add(x, y, out=out)
    return np.trunc(out, out=out)


def _pad_to_blocks(plane: np.ndarray) -> np.ndarray:
    """plane - 128 in a fresh buffer, edge-padded to whole 8x8 blocks."""
    h, w = plane.shape
    out = np.empty((h + (-h) % 8, w + (-w) % 8))
    np.subtract(plane, 128.0, out=out[:h, :w])
    out[h:, :w] = out[h - 1, :w]
    out[:, w:] = out[:, w - 1 : w]
    return out


def _to_blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) with H, W multiples of 8 -> (H//8 * W//8, 8, 8), row-major."""
    h, w = plane.shape
    return (
        plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    )


def _from_blocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    return (
        blocks.reshape(h // 8, w // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h, w)
    )


def _plane_from_indices(
    idx: np.ndarray, table: np.ndarray, height: int, width: int
) -> np.ndarray:
    """Dequantise (blocks, 8, 8) indices, inverse DCT, level-shift, round and
    clip to [0, 255]: the decoded (height, width) plane, padding cropped."""
    coeffs = idx * table
    dct2_8x8(coeffs, "inverse", out=coeffs)
    plane = _from_blocks(coeffs, height + (-height) % 8, width + (-width) % 8)
    plane = plane[:height, :width]
    plane += 128.0
    round_half_away(plane, out=plane)
    return np.clip(plane, 0, 255, out=plane)


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

    @property
    def num_levels(self) -> int:
        return len(self.native_qualities)

    def _channel_indices(self, plane: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Quantization indices of one plane, (blocks, 8, 8), as float64
        integers in int16 range."""
        blocks = _to_blocks(_pad_to_blocks(plane))
        coeffs = dct2_8x8(blocks, out=blocks)
        coeffs /= table
        round_half_away(coeffs, out=coeffs)
        if coeffs.max() > 32767 or coeffs.min() < -32767:
            raise CodecError("quantized coefficient out of int16 range")
        return coeffs

    def encode(self, img: ImageBuffer, q: int) -> Bitstream:
        self.check_quality(q)
        table = self._tables[q - 1]
        bits = 0.0
        parts = [_HEADER.pack(_MAGIC, q, img.channels, img.width, img.height)]
        for plane in img.planes():
            idx = self._channel_indices(plane, table).astype("<i2")
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
        ph, pw = height + (-height) % 8, width + (-width) % 8
        nblocks = (ph // 8) * (pw // 8)
        expected, got = 2 * channels * nblocks * 64, len(bs.payload) - _HEADER.size
        if got != expected:
            raise CodecError(f"corrupt payload: expected {expected} body bytes, got {got}")
        body = np.frombuffer(bs.payload, "<i2", offset=_HEADER.size)
        body = body.reshape(channels, nblocks, 8, 8)
        planes = np.empty((channels, height, width), dtype=np.float64)
        for c in range(channels):
            planes[c] = _plane_from_indices(body[c], table, height, width)
        return ImageBuffer.from_planes(planes)

    def stage(self, img: ImageBuffer, q: int) -> ImageBuffer:
        """reconstruct(img, q)[0] with no rate and no payload: each plane's
        indices go straight to the inverse, not through int16 bytes."""
        self.check_quality(q)
        table = self._tables[q - 1]
        planes = img.planes()
        for c in range(img.channels):
            idx = self._channel_indices(planes[c], table)
            planes[c] = _plane_from_indices(idx, table, img.height, img.width)
        return ImageBuffer.from_planes(planes)
