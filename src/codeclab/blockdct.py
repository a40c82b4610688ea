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


def dct2_8x8(blocks: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Orthonormal 2-D DCT-II ('forward') or its inverse of each 8x8 block in
    an array of shape (..., 8, 8)."""
    b = np.asarray(blocks, dtype=np.float64)
    if b.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8) blocks, got {b.shape}")
    if direction == "forward":
        return _DCT @ b @ _DCT.T
    if direction == "inverse":
        return _DCT.T @ b @ _DCT
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


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


def round_half_away(x: np.ndarray) -> np.ndarray:
    """trunc(x + copysign(0.5, x)), in one temporary."""
    y = np.copysign(0.5, x)
    y += x
    return np.trunc(y, out=y)


def _pad_to_blocks(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return np.pad(plane, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge")


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
    blocks = dct2_8x8(idx * table, "inverse")
    plane = _from_blocks(blocks, height + (-height) % 8, width + (-width) % 8)
    return np.clip(round_half_away(plane[:height, :width] + 128.0), 0, 255)


def _entropy_bits(indices: np.ndarray) -> float:
    """Sum over the 64 coefficient positions of blocks * H(position histogram)."""
    nblocks = indices.shape[0]
    total = 0.0
    for pos in range(64):
        col = indices[:, pos]
        counts = np.bincount(col - col.min())
        counts = counts[counts > 0]
        p = counts / nblocks
        total -= nblocks * float((p * np.log2(p)).sum())
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
        """Quantization indices of one plane, (blocks, 8, 8), in int16 range."""
        padded = _pad_to_blocks(plane) - 128.0
        coeffs = dct2_8x8(_to_blocks(padded))
        idx = round_half_away(coeffs / table).astype(np.int64)
        if np.any(np.abs(idx) > 32767):
            raise CodecError("quantized coefficient out of int16 range")
        return idx

    def encode(self, img: ImageBuffer, q: int) -> Bitstream:
        self.check_quality(q)
        table = self._tables[q - 1]
        bits = 0.0
        parts = [_HEADER.pack(_MAGIC, q, img.channels, img.width, img.height)]
        for plane in img.planes():
            idx = self._channel_indices(plane, table)
            bits += _entropy_bits(idx.reshape(-1, 64))
            parts.append(idx.astype("<i2").tobytes())
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
