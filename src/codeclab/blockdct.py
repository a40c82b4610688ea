"""Block-DCT image codec: 8x8 orthonormal DCT with scaled quantization tables.

Channels are coded independently (no color transform, no subsampling) so the
pipeline stays auditable.  There is no entropy coder; bits_used is the
per-coefficient-position zero-order entropy of the quantized indices, which
reports rate consistently without affecting reconstruction.

Rounding everywhere is half-away-from-zero.

A codec instance owns the scratch buffers of one plane shape (_Workspace),
sized for a stack of such planes.  Every transform runs in place on the
edge-padded planes, viewed as rows of 8x8 blocks: uint8 samples are
level-shifted straight into them, and decoded pixels go from them straight
into fresh uint8 images, so a stage allocates no full-plane float temporary.
Only the payload and the rate read the indices in block order, from one
int16 copy.  One instance must not run two stages at once.
"""
from __future__ import annotations

import struct
from collections.abc import Sequence

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

# float64 bytes of block rows that one stacked transform covers, four 64x64
# planes: stacking spreads the per-call overhead of small planes, and twice
# this held about 1 MB more at peak for a few percent more speed; a plane
# larger than this is transformed on its own
STACK_BYTES = 128 * 1024


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


def _pad_to_blocks(planes: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """out, a uint8 (n, H, W) buffer with H, W the sides of the n (h, w)
    planes rounded up to multiples of 8, holding the planes edge-padded."""
    h, w = planes[0].shape
    for plane, buf in zip(planes, out):
        buf[:h, :w] = plane
    if h % 8:
        out[:, h:, :w] = out[:, h - 1 : h, :w]
    if w % 8:
        out[:, :, w:] = out[:, :, w - 1 : w]
    return out


def _block_rows(height: int, width: int) -> tuple[int, int]:
    """(hb, wb): a plane's sides in 8x8 blocks, rounded up."""
    return -(-height // 8), -(-width // 8)


def _runs(levels: Sequence[int]) -> list[list[int]]:
    """[q, first, stop] of each run of equal levels, in order."""
    runs = []
    for p, q in enumerate(levels):
        if runs and runs[-1][0] == q:
            runs[-1][2] = p + 1
        else:
            runs.append([q, p, p + 1])
    return runs


class _Workspace:
    """Scratch buffers for a stack of up to `planes` planes of one (height,
    width), padded to hb x wb blocks, as many as fit STACK_BYTES and at least
    one: the uint8 edge-padded planes, (planes, 8 * hb, 8 * wb); the float64
    padded planes as block rows, plane p being rows p * hb .. (p + 1) * hb - 1
    of (planes * hb, 8, 8 * wb), which hold the level-shifted samples, then
    the coefficients and indices, then the decoded planes; a second such
    buffer for the DCT intermediate and the rounding signs; and every level's
    quantization table tiled along a block row, (levels, 8, 8 * wb)."""

    def __init__(self, height: int, width: int, tables: list[np.ndarray]):
        self.shape = (height, width)
        self.hb, self.wb = _block_rows(height, width)
        self.planes = max(1, STACK_BYTES // (512 * self.hb * self.wb))
        self.padded = np.empty((self.planes, 8 * self.hb, 8 * self.wb), np.uint8)
        self.rows = np.empty((self.planes * self.hb, 8, 8 * self.wb))
        self.scratch = np.empty_like(self.rows)
        self.tables = np.tile(tables, self.wb)

    def block_order(self, indices: np.ndarray) -> np.ndarray:
        """Block rows of indices as the payload's little-endian int16 blocks,
        (blocks, 64), in row-major block order: one transposed copy."""
        blocks = indices.reshape(self.hb, 8, self.wb, 8).transpose(0, 2, 1, 3)
        return blocks.astype("<i2", order="C").reshape(-1, 64)


def _round_to_pixels(t: np.ndarray, outs: Sequence[np.ndarray]) -> None:
    """clip(round_half_away(t[p]), 0, 255) into the uint8 array outs[p] of
    t[p]'s shape, for each p; t, float64, is overwritten.

    Computed as clip(t, 0, 255) + 0.5, truncated by the cast to uint8, which
    is equal for every finite t: for 0 <= t <= 255 both are trunc(t + 0.5);
    below 0 both are 0 (round_half_away gives at most 0); above 255 both are
    255 (it gives at least 255).  The clip is two ufunc calls, not np.clip,
    whose Python wrappers cost more than the clip itself on small planes."""
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 255.0, out=t)
    t += 0.5
    for plane, out in zip(t, outs):
        out[...] = plane


def _pixels_from_coeffs(ws: _Workspace, outs: Sequence[np.ndarray]) -> None:
    """Inverse DCT of the dequantized coefficients of the first len(outs)
    planes in ws.rows, level-shifted, rounded and clipped into outs, uint8
    (height, width) views, plane p into outs[p]."""
    n, h, w = len(outs), *ws.shape
    rows = ws.rows[: n * ws.hb]
    pixels = dct2_8x8(rows, "inverse", out=rows, scratch=ws.scratch[: n * ws.hb])
    pixels += 128.0
    _round_to_pixels(pixels.reshape(n, *ws.padded.shape[1:])[:, :h, :w], outs)


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

    def _channel_indices(
        self, planes: Sequence[np.ndarray], levels: Sequence[int]
    ) -> np.ndarray:
        """Quantization indices of uint8 (height, width) planes, at most
        ws.planes of them, plane p at level levels[p], as block rows
        (n * hb, 8, 8 * wb) of float64 integers in int16 range, plane p in
        rows p * hb .. (p + 1) * hb - 1.  Each run of one level is divided by
        that level's table.  They live in the workspace's ws.rows, which the
        next call overwrites."""
        ws = self._workspace(*planes[0].shape)
        n, hb = len(planes), ws.hb
        padded = _pad_to_blocks(planes, ws.padded[:n])
        rows, scratch = ws.rows[: n * hb], ws.scratch[: n * hb]
        np.subtract(padded.reshape(rows.shape), 128.0, out=rows)
        dct2_8x8(rows, out=rows, scratch=scratch)
        for q, first, stop in _runs(levels):
            rows[first * hb : stop * hb] /= ws.tables[q - 1]
        round_half_away(rows, out=rows, scratch=scratch)
        if rows.max() > 32767 or rows.min() < -32767:
            raise CodecError("quantized coefficient out of int16 range")
        return rows

    def stack_size(self, img: ImageBuffer) -> int:
        """As many images of img's shape as fit STACK_BYTES of float64 block
        rows, and at least one: 4 for a 64x64 gray image, 1 for 512x384 RGB."""
        hb, wb = _block_rows(img.height, img.width)
        return max(1, STACK_BYTES // (512 * hb * wb * img.channels))

    def encode(self, img: ImageBuffer, q: int) -> Bitstream:
        self.check_quality(q)
        bits = 0.0
        parts = [_HEADER.pack(_MAGIC, q, img.channels, img.width, img.height)]
        pixels = img.samples.reshape(img.height, img.width, img.channels)
        ws = self._workspace(img.height, img.width)
        for c in range(img.channels):
            blocks = ws.block_order(self._channel_indices([pixels[:, :, c]], [q]))
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
            np.multiply(body[c], table, out=ws.rows[:hb].reshape(hb, 8, wb, 8))
            _pixels_from_coeffs(ws, [out[:, :, c]])
        return ImageBuffer(width, height, channels, out)

    def stage(self, img: ImageBuffer, q: int, rate: bool = False):
        return self.stage_many([img], [q], [rate])[0]

    def stage_many(self, imgs: list, qs: list[int], rates: list[bool]) -> list[tuple]:
        """Codec.stage_many with no payload, on stacked planes.  The planes of
        all images, sorted by level, go through the workspace's transforms
        ws.planes at a time, each run of one level divided and multiplied by
        that level's table; each plane's indices go straight to the rate, for
        an image whose rates entry is true, and to the inverse, not through
        int16 bytes.  Each image is written to its own fresh uint8 array.
        Images of more than one shape go one at a time."""
        for q in qs:
            self.check_quality(q)
        if len({(img.height, img.width, img.channels) for img in imgs}) != 1:
            return super().stage_many(imgs, qs, rates)  # one workspace shape per call
        h, w, channels = imgs[0].height, imgs[0].width, imgs[0].channels
        ws = self._workspace(h, w)
        outs = [np.empty((h, w, channels), np.uint8) for _ in imgs]
        bits = [0.0 if rate else None for rate in rates]
        # (image, level, input plane, output plane) of every plane, images in
        # level order
        planes = []
        for j in sorted(range(len(imgs)), key=qs.__getitem__):
            pixels = imgs[j].samples.reshape(h, w, channels)
            planes += [(j, qs[j], pixels[:, :, c], outs[j][:, :, c]) for c in range(channels)]
        for start in range(0, len(planes), ws.planes):
            images, levels, sources, targets = zip(*planes[start : start + ws.planes])
            rows = self._channel_indices(sources, levels)
            for p, j in enumerate(images):
                if rates[j]:
                    bits[j] += _entropy_bits(ws.block_order(rows[p * ws.hb : (p + 1) * ws.hb]))
            for q, first, stop in _runs(levels):
                rows[first * ws.hb : stop * ws.hb] *= ws.tables[q - 1]
            _pixels_from_coeffs(ws, targets)
        return [(ImageBuffer(w, h, channels, out), b) for out, b in zip(outs, bits)]
