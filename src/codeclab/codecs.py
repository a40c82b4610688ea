"""Codec abstraction and the scalar quantizer codecs.

A codec exposes reconstruct(x, q): apply the encoder-decoder pair at
quality level q (1 = lowest).  Reconstruction is deterministic and pure.
stage(x, q, rate) returns it and, if rate, its bits, with no bitstream.
Every payload is a struct header, then fixed-width little-endian indices.
"""
from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from .ladders import CodebookLadder, quantize_array
from .signals import SourceVector


class CodecError(RuntimeError):
    """Codec failed to encode or decode."""


@dataclasses.dataclass
class Bitstream:
    """Encoded payload plus its information-theoretic size in bits, which
    may be fractional; each codec documents how it counts them."""

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

    def stage(self, x, q: int, rate: bool = False):
        """(reconstruct(x, q)[0], its bits_used if rate else None).  An
        override must return identical samples and identical bits."""
        y, bs = self.reconstruct(x, q)
        return y, bs.bits_used if rate else None


_SCALAR_MAGIC = b"SQ"
_SCALAR_HEADER = struct.Struct("<2sBI")  # magic, quality, n


def _pack_indices(indices: np.ndarray) -> bytes:
    return indices.astype("<u2").tobytes()


def _unpack_indices(body: bytes, n: int) -> np.ndarray:
    if len(body) != 2 * n:
        raise CodecError(f"corrupt scalar payload: expected {2 * n} bytes, got {len(body)}")
    return np.frombuffer(body, dtype="<u2")


class ScalarQuantizerCodec(Codec):
    """Per-sample nearest-codeword quantizer over a codebook ladder.

    Payload: header "<2sBI" (magic SQ, quality, n), then n little-endian
    uint16 codeword indices.  bits_used is n * log2(|codebook|), whatever
    the payload size.
    """

    signal_kind = "source"

    def __init__(self, ladder: CodebookLadder):
        if any(len(lv) > 1 << 16 for lv in ladder.levels):
            raise ValueError("scalar codecs hold at most 65536 codewords per level (uint16)")
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
        payload = _SCALAR_HEADER.pack(_SCALAR_MAGIC, q, len(x)) + _pack_indices(indices)
        return Bitstream(payload=payload, bits_used=len(x) * math.log2(len(codewords)))

    def decode(self, bs: Bitstream) -> SourceVector:
        try:
            magic, q, n = _SCALAR_HEADER.unpack_from(bs.payload)
        except struct.error as e:
            raise CodecError(f"corrupt scalar header: {e}") from None
        if magic != _SCALAR_MAGIC:
            raise CodecError(f"corrupt scalar header: magic {magic!r}")
        self.check_quality(q)
        codewords = np.asarray(self.ladder.level(q))
        indices = _unpack_indices(bs.payload[_SCALAR_HEADER.size :], n)
        if np.any(indices >= codewords.size):
            raise CodecError("scalar index out of codebook range")
        return SourceVector(codewords[indices])

    def _factors(self, x: SourceVector) -> tuple:
        """(cells, table) of x: a factored x's own, or a plain x's top-level
        cell indices, compact and quantised once per (vector, ladder) and
        kept on the vector, with the top codewords as the table."""
        if x.cells is not None:
            return x.cells, x.table
        top = self.ladder.level(self.num_levels)
        if x.nearest is None or x.nearest[0] is not top:
            indices, _ = quantize_array(x.values, top)
            cells = indices.astype(np.uint8 if len(top) <= 256 else np.uint16)
            cells.flags.writeable = False  # shared as is by every output
            x.nearest = (top, cells)
        return x.nearest[1], top

    def stage(self, x: SourceVector, q: int, rate: bool = False):
        """Codec.stage with no payload and no parse: the output keeps the
        cells of _factors(x) and quantises only its table.  Exact: a value is
        quantised as each sample holding it is, and a sample as its top
        cell's codeword is, since every lower-level boundary is a top-level
        boundary, ties go up at every level, and each top codeword lies in
        its own cell (CodebookLadder checks all three)."""
        self.check_quality(q)
        codewords = self.ladder.level(q)
        cells, table = self._factors(x)
        _, values = quantize_array(table, codewords)
        bits = len(x) * math.log2(len(codewords)) if rate else None
        return SourceVector(cells=cells, table=values), bits
