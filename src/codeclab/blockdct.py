"""Block-DCT image codec: 8x8 orthonormal DCT with scaled quantization tables.

Channels are coded independently (no color transform, no subsampling) so the
pipeline stays auditable.  There is no entropy coder; bits_used is the
per-coefficient-position zero-order entropy of the quantized indices, which
reports rate consistently without affecting reconstruction.

Rounding everywhere is half-away-from-zero.

A codec instance owns the scratch buffers of one plane shape (_Workspace).
The unit of work is a band: at most STACK_BYTES of float64 block rows, as
many whole planes as fit or, for a larger plane, as many of its block rows.
Planes run in call order, each at its own level.  Each band runs the whole
pipeline while it is in cache, in place on the edge-padded planes viewed as
rows of 8x8 blocks: uint8 samples are level-shifted straight into them, the
band is divided and multiplied by its planes' tables, gathered once per
group of planes into a buffer of the band's shape, and decoded pixels go
from them straight into the band's rows of fresh uint8 images, so a stage
allocates no full-plane float temporary.  No index of uint8 samples passes
1024 with tables of at least 1, so a band's int16 range is checked only
when some level's table could let one out.  Only the payload and the rate
read the indices in block order, from an int16 copy that each band fills
its part of; decode copies them back into the band and shares the stage's
multiply, inverse and pixel tail.  One instance must not run two stages at
once.
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

# float64 bytes of block rows that one band covers, four 64x64 planes or 4
# block rows of a 512-wide plane: stacking spreads the per-call overhead of
# small planes, and twice this held about 1 MB more at peak for a few percent
# more speed; banding keeps a large plane's rows in L2 through every step
STACK_BYTES = 128 * 1024


def _dct_matrix() -> np.ndarray:
    j = np.arange(8)
    m = np.sqrt(2.0 / 8.0) * np.cos((2 * j[None, :] + 1) * j[:, None] * np.pi / 16)
    m[0, :] = np.sqrt(1.0 / 8.0)
    return m


_DCT = _dct_matrix()
# contiguous, so that matmul takes the BLAS path with it as either operand
_DCT_T = np.ascontiguousarray(_DCT.T)


def _coefficient_bound() -> np.ndarray:
    """The largest |coefficient| at each of the 64 positions of a block of
    level-shifted uint8 samples, -128 .. 127: coefficient (u, v) is the sum
    of the samples times basis b = D[u, x] * D[v, y], largest in magnitude
    at s = 127 or -128 by the sign of b, which gives 127.5 * sum |b| +
    0.5 * |sum b|, both sums outer products of row sums of D.  It peaks at
    1024, the DC term of a block of all 0 samples."""
    a, c = np.abs(_DCT).sum(axis=1), _DCT.sum(axis=1)
    return 127.5 * np.outer(a, a) + 0.5 * np.abs(np.outer(c, c))


_COEFF_BOUND = _coefficient_bound()


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


_SIGN_BIT = np.uint64(1 << 63)
_HALF_BITS = np.float64(0.5).view(np.uint64)


def round_half_away(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """trunc(x + copysign(0.5, x)) in float64; out may be x itself, and
    scratch, a float64 array of x's shape distinct from both, takes the
    signed halves.  Each half is built on the bits, x's sign bit or'ed into
    those of 0.5, which is copysign(0.5, x) bit for bit in two integer
    passes that cost less than np.copysign."""
    x = np.asarray(x, dtype=np.float64)
    if scratch is None:
        scratch = np.empty_like(x)
    bits = scratch.view(np.uint64)
    np.bitwise_and(x.view(np.uint64), _SIGN_BIT, out=bits)
    bits |= _HALF_BITS
    if out is None:
        out = scratch
    np.add(x, scratch, out=out)
    return np.trunc(out, out=out)


def _pad_to_blocks(planes: Sequence[np.ndarray], y0: int, out: np.ndarray) -> np.ndarray:
    """out, a float64 (n, Y, W) buffer with W the width of the n uint8 (h, w)
    planes rounded up to a multiple of 8, holding rows y0 .. y0 + Y - 1 of
    the planes edge-padded to whole blocks, minus 128; y0 < h."""
    h, w = planes[0].shape
    y1 = min(y0 + out.shape[1], h)
    for plane, buf in zip(planes, out):
        buf[: y1 - y0, :w] = plane[y0:y1]
    if y1 - y0 < out.shape[1]:
        out[:, y1 - y0 :, :w] = out[:, y1 - y0 - 1 : y1 - y0, :w]
    if w % 8:
        out[:, :, w:] = out[:, :, w - 1 : w]
    # one float subtract over the band: a uint8 - float ufunc per plane
    # costs more than these casting copies
    out -= 128.0
    return out


class _Workspace:
    """Scratch buffers for bands of planes of one (height, width), padded to
    hb x wb blocks.  A band is `planes` planes and `band` block rows of each,
    at most STACK_BYTES of float64 block rows: as many whole planes as fit,
    and at least one (band = hb); a plane larger than STACK_BYTES alone is
    cut into bands of `band` consecutive block rows, the last one possibly
    shorter, and at least one row.  rows, (planes * band, 8, 8 * wb), holds a
    band of n block rows per plane, plane p in rows p * n .. (p + 1) * n - 1,
    planes in call order: the level-shifted samples or decode's indices, then
    the coefficients and indices, then the decoded pixels; scratch, a second
    such buffer, takes the DCT intermediate and the rounding signs; tables
    holds every level's quantization table tiled along a block row,
    (levels, 8, 8 * wb), from which a group of planes gathers its planes'
    tables into band_tables, (planes, band, 8, 8 * wb), plane p's table in
    every block row of band_tables[p], so that a band is divided and
    multiplied by an array of its own shape; rated, (k, hb * wb, 64), holds
    the int16 block-order indices of a stage_many call's rated planes, k the
    most that any call has rated.  rated is kept across calls because fresh
    arrays of its size, 1.2 MB for 512x384 RGB, go back to the system
    between calls and are faulted in again.

    may_overflow is whether an index of uint8 samples can leave int16 range
    at some level, decided once from the tables: an index of 32768 needs a
    quotient of 32767.5, so a level whose coefficient bound over its table
    stays below 32767 cannot give one, the half to spare absorbing the float
    error of the transform.  With tables of at least 1, as every native
    quality gives, no index passes 1024 and no band is checked."""

    def __init__(self, height: int, width: int, tables: list[np.ndarray]):
        self.shape = (height, width)
        self.hb, self.wb = -(-height // 8), -(-width // 8)
        self.planes = max(1, STACK_BYTES // (512 * self.hb * self.wb))
        self.band = min(self.hb, max(1, STACK_BYTES // (512 * self.wb)))
        self.rows = np.empty((self.planes * self.band, 8, 8 * self.wb))
        self.scratch = np.empty_like(self.rows)
        self.tables = np.tile(tables, self.wb)
        self.band_tables = np.empty((self.planes, self.band, 8, 8 * self.wb))
        self.rated = np.empty((0, self.hb * self.wb, 64), np.int16)
        self.may_overflow = bool((_COEFF_BOUND / np.asarray(tables)).max() >= 32767)

    def block_view(self, blocks: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """Block rows r0 .. r1 - 1 of a plane's (hb * wb, 64) indices in
        row-major block order, viewed as block rows (r1 - r0, 8, wb, 8)."""
        return blocks[r0 * self.wb : r1 * self.wb].reshape(r1 - r0, self.wb, 8, 8).transpose(
            0, 2, 1, 3)


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


def _pixels_from_coeffs(ws: _Workspace, rows: np.ndarray, y0: int,
                        outs: Sequence[np.ndarray]) -> None:
    """Inverse DCT of the dequantized coefficients in rows, a band of ws.rows
    that starts at pixel row y0 of len(outs) planes, level-shifted, rounded
    and clipped into the band's rows of outs, uint8 (height, width) arrays,
    plane p into outs[p]."""
    h, w = ws.shape
    pixels = dct2_8x8(rows, "inverse", out=rows, scratch=ws.scratch[: len(rows)])
    pixels += 128.0
    pixels = pixels.reshape(len(outs), -1, 8 * ws.wb)
    y1 = min(y0 + pixels.shape[1], h)
    _round_to_pixels(pixels[:, : y1 - y0, :w], [out[y0:y1] for out in outs])


def _position_extremes(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-position min and max of (nblocks, 64) indices.  A reduction over
    axis 0 steps one 64-wide row at a time, so from 192 blocks on, where
    that per-row cost outweighs two more reductions (timeit), each run of
    64 whole blocks is one row of 64 * 64, reduced over the runs, then over
    its 64 blocks; the tail rows, fewer than 64, are reduced on their own."""
    if len(indices) < 192:
        return indices.min(axis=0), indices.max(axis=0)
    k = len(indices) - len(indices) % 64
    wide = indices[:k].reshape(-1, 64 * 64)
    lo = wide.min(axis=0).reshape(64, 64).min(axis=0)
    hi = wide.max(axis=0).reshape(64, 64).max(axis=0)
    if k < len(indices):
        np.minimum(lo, indices[k:].min(axis=0), out=lo)
        np.maximum(hi, indices[k:].max(axis=0), out=hi)
    return lo, hi


def _entropy_bits(indices: np.ndarray) -> float:
    """Sum over the 64 coefficient positions of blocks * H(position histogram).

    A position that holds one value is left out: it would add exactly
    -blocks * 0.0 (p = 1.0, log2(1.0) = 0.0).  One bincount counts the others
    over (position, value) keys, the m-th of them taking the keys start[m] ..
    start[m + 1] - 1.  Each position's p * log2(p) terms are summed on their
    own, positions in order, so the result is bit-for-bit that of a loop over
    the 64 positions."""
    nblocks = indices.shape[0]
    lo, hi = _position_extremes(indices)
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
_MAX_SIDE = 0xFFFF  # the header's unsigned 16-bit width and height


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
        self, ws: _Workspace, planes: Sequence[np.ndarray], tables: np.ndarray, r0: int, r1: int,
    ) -> np.ndarray:
        """Quantization indices of block rows r0 .. r1 - 1 of uint8 (height,
        width) planes, at most ws.planes of them, as block rows (m * n, 8,
        8 * wb) of float64 integers in int16 range, n = r1 - r0, plane p in
        rows p * n .. (p + 1) * n - 1.  The band is divided by tables, the
        planes' gathered tables of the band's shape, (m, n, 8, 8 * wb),
        plane p by tables[p]; its range is checked only if ws.may_overflow.
        They live in the workspace's ws.rows, which the next band
        overwrites."""
        n, m = r1 - r0, len(planes)
        rows, scratch = ws.rows[: m * n], ws.scratch[: m * n]
        _pad_to_blocks(planes, 8 * r0, rows.reshape(m, 8 * n, 8 * ws.wb))
        dct2_8x8(rows, out=rows, scratch=scratch)
        coeffs = rows.reshape(m, n, 8, 8 * ws.wb)
        coeffs /= tables
        round_half_away(rows, out=rows, scratch=scratch)
        if ws.may_overflow and (rows.max() > 32767 or rows.min() < -32767):
            raise CodecError("quantized coefficient out of int16 range")
        return rows

    def _bands(
        self, ws: _Workspace, levels: Sequence[int], sources: Sequence[np.ndarray] | None,
        blocks: Sequence[np.ndarray | None], targets: Sequence[np.ndarray] | None,
    ) -> None:
        """The block-DCT pipeline on planes of ws.shape, plane p at level
        levels[p], in call order, one band at a time: ws.planes planes and
        ws.band block rows of each, so that a band's float64 rows stay in
        cache through every step.  Each group of planes gathers its levels'
        tables once into ws.band_tables, and each band is divided and
        multiplied by them.

        sources are the uint8 (height, width) planes to quantize, or None to
        dequantize the indices in blocks, which are copied into the band and
        go through the same multiply, inverse and pixel tail as a stage's.
        blocks[p], a (hb * wb, 64) int16 array in row-major block order or
        None, takes plane p's indices band by band when sources is given,
        and gives them when it is not.  targets are the uint8 (height,
        width) arrays that take the decoded planes, or None to stop at the
        indices.  Raises CodecError at the first band whose indices leave
        int16 range."""
        for start in range(0, len(levels), ws.planes):
            stop = start + ws.planes
            group = ws.tables[np.asarray(levels[start:stop]) - 1]
            ws.band_tables[: len(group)] = group[:, None]
            for r0 in range(0, ws.hb, ws.band):
                r1 = min(r0 + ws.band, ws.hb)
                n = r1 - r0
                tables = ws.band_tables[: len(group), :n]
                if sources is None:
                    rows = ws.rows[: len(tables) * n]
                else:
                    rows = self._channel_indices(ws, sources[start:stop], tables, r0, r1)
                for i, b in enumerate(blocks[start:stop]):
                    if b is not None:
                        plane = rows[i * n : (i + 1) * n].reshape(n, 8, ws.wb, 8)
                        if sources is None:
                            plane[...] = ws.block_view(b, r0, r1)
                        else:
                            ws.block_view(b, r0, r1)[...] = plane
                if targets is not None:
                    coeffs = rows.reshape(len(tables), n, 8, 8 * ws.wb)
                    coeffs *= tables
                    _pixels_from_coeffs(ws, rows, 8 * r0, targets[start:stop])

    def stack_size(self, img: ImageBuffer) -> int:
        """As many images of img's shape as their planes fit one band of the
        workspace, and at least one: 4 for a 64x64 gray image, 1 for 512x384
        RGB."""
        return max(1, self._workspace(img.height, img.width).planes // img.channels)

    def encode(self, img: ImageBuffer, q: int) -> Bitstream:
        self.check_quality(q)
        if max(img.width, img.height) > _MAX_SIDE:
            raise CodecError(f"{img.width}x{img.height} image: the payload header "
                             f"holds sides up to {_MAX_SIDE}")
        pixels = img.samples.reshape(img.height, img.width, img.channels)
        ws = self._workspace(img.height, img.width)
        body = np.empty((img.channels, ws.hb * ws.wb, 64), "<i2")
        self._bands(ws, [q] * img.channels, [pixels[:, :, c] for c in range(img.channels)],
                    body, None)
        bits = 0.0
        for blocks in body:
            bits += _entropy_bits(blocks)
        header = _HEADER.pack(_MAGIC, q, img.channels, img.width, img.height)
        return Bitstream(payload=header + body.tobytes(), bits_used=bits)

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
        body = np.frombuffer(bs.payload, "<i2", offset=_HEADER.size)
        self._bands(self._workspace(height, width), [q] * channels, None,
                    body.reshape(channels, nblocks, 64), [out[:, :, c] for c in range(channels)])
        return ImageBuffer(width, height, channels, out)

    def stage(self, img: ImageBuffer, q: int, rate: bool = False):
        return self.stage_many([img], [q], [rate])[0]

    def stage_many(self, imgs: list, qs: list[int], rates: list[bool]) -> list[tuple]:
        """Codec.stage_many with no payload, on stacked planes.  The planes of
        all images, in call order, go through the workspace's bands; each
        plane's indices go to an int16 copy in the workspace for the rate,
        for an image whose rates entry is true, and to the inverse, not
        through int16 bytes.  Each image is written to its own fresh uint8
        array.  Images of more than one shape go one at a time."""
        for q in qs:
            self.check_quality(q)
        if len({(img.height, img.width, img.channels) for img in imgs}) != 1:
            return super().stage_many(imgs, qs, rates)  # one workspace shape per call
        h, w, channels = imgs[0].height, imgs[0].width, imgs[0].channels
        ws = self._workspace(h, w)
        outs = [np.empty((h, w, channels), np.uint8) for _ in imgs]
        if len(ws.rated) < channels * sum(rates):
            ws.rated = np.empty((channels * sum(rates), ws.hb * ws.wb, 64), np.int16)
        slots = iter(ws.rated)
        # plane p is channel p % channels of image p // channels
        blocks = [next(slots) if rate else None for rate in rates for _ in range(channels)]
        self._bands(ws, [q for q in qs for _ in range(channels)],
                    [img.samples.reshape(h, w, channels)[:, :, c]
                     for img in imgs for c in range(channels)],
                    blocks, [out[:, :, c] for out in outs for c in range(channels)])
        bits = [0.0 if rate else None for rate in rates]
        for p, b in enumerate(blocks):
            if b is not None:
                bits[p // channels] += _entropy_bits(b)
        return [(ImageBuffer(w, h, channels, out), b) for out, b in zip(outs, bits)]
