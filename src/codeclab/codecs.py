"""Codec abstraction and the scalar quantizer codecs.

A codec exposes reconstruct(x, q): apply the encoder-decoder pair at
quality level q (1 = lowest).  Reconstruction is deterministic and pure.
stage(x, q) returns the same reconstruction without the bitstream.
"""
from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from .ladders import CodebookLadder, build_midpoint_ladder, build_nested_ladder, quantize_array
from .signals import SourceVector


class CodecError(RuntimeError):
    """Codec failed to encode or decode."""


@dataclasses.dataclass
class Bitstream:
    """Encoded payload plus its information-theoretic size in bits.

    bits_used may be fractional: the scalar codecs count log2(codebook)
    bits per sample, the DCT codec an empirical-entropy estimate.
    """

    payload: bytes
    bits_used: float

    def __post_init__(self):
        if self.bits_used < 0:
            raise ValueError("bits_used must be >= 0")


class Codec:
    """Encoder-decoder pair with a quality ladder, f(x, q)."""

    codec_id: str = "abstract"
    signal_kind: str = "image"  # "image" | "source"
    claims_strong_idempotence: bool = False

    @property
    def num_levels(self) -> int:
        raise NotImplementedError

    def check_quality(self, q: int) -> None:
        if not 1 <= q <= self.num_levels:
            raise CodecError(
                f"{self.codec_id}: quality {q} outside ladder [1, {self.num_levels}]"
            )

    def encode(self, x, q: int) -> Bitstream:
        raise NotImplementedError

    def decode(self, bs: Bitstream):
        raise NotImplementedError

    def reconstruct(self, x, q: int):
        """Return (reconstruction, bitstream)."""
        bs = self.encode(x, q)
        return self.decode(bs), bs

    def stage(self, x, q: int):
        """Return reconstruct(x, q)[0] alone, for chain stages whose rate
        nobody reads.  An override must return an identical result."""
        return self.reconstruct(x, q)[0]

    def bpp(self, bs: Bitstream, x) -> float:
        """Bits per sample: per pixel for images, per value for source vectors."""
        return bs.bits_used / (len(x) if isinstance(x, SourceVector) else x.pixel_count)


_SCALAR_MAGIC = b"SQ"
_SCALAR_HEADER = struct.Struct("<2sBBI")  # magic, quality, bits/index, n


def _pack_indices(indices: np.ndarray, bits: int) -> bytes:
    if bits == 0:
        return b""
    shifts = np.arange(bits - 1, -1, -1)
    bitmat = ((indices[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bitmat.ravel()).tobytes()


def _unpack_indices(data: bytes, n: int, bits: int) -> np.ndarray:
    if bits == 0:
        return np.zeros(n, dtype=np.int64)
    raw = np.unpackbits(np.frombuffer(data, np.uint8))[: n * bits]
    if raw.size < n * bits:
        raise CodecError("scalar payload truncated")
    weights = 1 << np.arange(bits - 1, -1, -1)
    return raw.reshape(n, bits).astype(np.int64) @ weights


class ScalarQuantizerCodec(Codec):
    """Per-sample nearest-codeword quantizer over a codebook ladder.

    bits_used is n * log2(|codebook|); the payload packs indices at
    ceil(log2 |codebook|) bits each behind a small header.
    """

    signal_kind = "source"

    def __init__(self, ladder: CodebookLadder):
        self.ladder = ladder
        self.codec_id = f"{ladder.kind}-scalar"
        self.claims_strong_idempotence = ladder.kind == "nested"

    @property
    def num_levels(self) -> int:
        return self.ladder.num_levels

    def encode(self, x: SourceVector, q: int) -> Bitstream:
        self.check_quality(q)
        codewords = self.ladder.level(q)
        indices, _ = quantize_array(x.values, codewords)
        size = len(codewords)
        bits_per_index = max(size - 1, 0).bit_length()
        header = _SCALAR_HEADER.pack(_SCALAR_MAGIC, q, bits_per_index, len(x))
        payload = header + _pack_indices(indices, bits_per_index)
        return Bitstream(payload=payload, bits_used=len(x) * math.log2(size))

    def decode(self, bs: Bitstream) -> SourceVector:
        try:
            magic, q, bits, n = _SCALAR_HEADER.unpack_from(bs.payload)
        except struct.error as e:
            raise CodecError(f"corrupt scalar header: {e}") from None
        if magic != _SCALAR_MAGIC:
            raise CodecError(f"corrupt scalar header: magic {magic!r}")
        self.check_quality(q)
        codewords = np.asarray(self.ladder.level(q))
        indices = _unpack_indices(bs.payload[_SCALAR_HEADER.size :], n, bits)
        if np.any(indices >= codewords.size):
            raise CodecError("scalar index out of codebook range")
        return SourceVector(codewords[indices])


def nested_scalar_codec(levels: int = 3) -> ScalarQuantizerCodec:
    return ScalarQuantizerCodec(build_nested_ladder(levels))


def midpoint_scalar_codec(levels: int = 3) -> ScalarQuantizerCodec:
    return ScalarQuantizerCodec(build_midpoint_ladder(levels))
