import itertools

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import codeclab.blockdct
from codeclab import (
    BlockDctCodec,
    ImageBuffer,
    SourceVector,
    dct2_8x8,
    make_codec,
    scale_quant_table,
)
from codeclab.blockdct import (
    _DCT,
    _HEADER,
    BASE_QUANT_TABLE,
    DEFAULT_NATIVE_QUALITIES,
    _entropy_bits,
    _position_extremes,
    _pad_to_blocks,
    _round_to_pixels,
    round_half_away,
)
from codeclab.chains import compress_chains, derive_rng, sample_quality_sequence
from codeclab.codecs import CodecError
from codeclab.signals import parse_pnm, serialize_pnm


def _rgb_37x21():
    """RGB image padded on both axes (37 -> 40 wide, 21 -> 24 high)."""
    rng = np.random.default_rng(37)
    return ImageBuffer(37, 21, 3, rng.integers(0, 256, 37 * 21 * 3, dtype=np.uint8))


class TestDct:
    def test_constant_block_is_pure_dc(self):
        out = dct2_8x8(np.full((8, 8), 3.5))
        assert out[0, 0] == pytest.approx(8 * 3.5, abs=1e-12)
        ac = out.copy()
        ac[0, 0] = 0.0
        assert np.abs(ac).max() < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        b = rng.random((8, 8)) * 255
        back = dct2_8x8(dct2_8x8(b, "forward"), "inverse")
        assert np.abs(back - b).max() <= 1e-9

    def test_energy_preserved(self):
        rng = np.random.default_rng(2)
        b = rng.random((8, 8)) * 255 - 128
        fwd = dct2_8x8(b)
        assert np.sum(fwd * fwd) == pytest.approx(np.sum(b * b), rel=1e-6)

    def test_matches_scipy_orthonormal_dct(self):
        rng = np.random.default_rng(3)
        b = rng.random((8, 8)) * 100
        ref = scipy.fft.dctn(b, norm="ortho")
        assert np.abs(dct2_8x8(b) - ref).max() < 1e-10

    def test_stack_matches_per_block(self):
        rng = np.random.default_rng(4)
        stack = rng.random((3, 2, 8, 8)) * 255 - 128
        for direction in ("forward", "inverse"):
            out = dct2_8x8(stack, direction)
            assert out.shape == stack.shape
            for idx in np.ndindex(3, 2):
                assert np.abs(out[idx] - dct2_8x8(stack[idx], direction)).max() < 1e-10

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_block_rows_match_per_block(self, direction):
        """(..., 8, 8 * m) block rows: block j of a row is columns 8j .. 8j + 7,
        and each is transformed exactly as on its own."""
        rng = np.random.default_rng(6)
        rows = rng.random((2, 3, 8, 8 * 5)) * 255 - 128
        out = dct2_8x8(rows, direction)
        assert out.shape == rows.shape
        for idx in np.ndindex(2, 3):
            for j in range(5):
                block = rows[idx][:, 8 * j : 8 * j + 8]
                assert np.array_equal(out[idx][:, 8 * j : 8 * j + 8], dct2_8x8(block, direction))

    def test_out_must_be_c_contiguous(self):
        rows = np.zeros((2, 8, 16))
        with pytest.raises(ValueError, match="C-contiguous"):
            dct2_8x8(rows, out=np.zeros((2, 8, 32))[:, :, ::2])

    def test_bad_shape(self):
        for shape in [(4, 4), (8, 8, 4), (8, 12), (8, 0), (8,)]:
            with pytest.raises(ValueError):
                dct2_8x8(np.zeros(shape))


class TestQuantTable:
    def test_q50_is_base(self):
        assert np.array_equal(scale_quant_table(50), BASE_QUANT_TABLE)

    def test_q100_all_ones(self):
        assert np.all(scale_quant_table(100) == 1)

    def test_q10_scaling(self):
        # floor((16*500 + 50)/100) = 80
        assert scale_quant_table(10)[0, 0] == 80

    @pytest.mark.parametrize("q", [0, 101, -5])
    def test_out_of_range(self, q):
        with pytest.raises(ValueError):
            scale_quant_table(q)

    def test_entries_bounded(self):
        """Entries of at least 1 at every quality keep every block-DCT index
        within the coefficient bound, 1024, and so in int16."""
        for q in range(1, 101):
            t = scale_quant_table(q)
            assert np.all(t >= 1) and np.all(t <= 255)


class TestRounding:
    def test_half_away_from_zero(self):
        vals = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4])
        assert np.array_equal(round_half_away(vals), [1, -1, 2, -2, 2, -2])

    def test_matches_sign_floor_reference(self):
        def reference(x):
            return np.sign(x) * np.floor(np.abs(x) + 0.5)

        ties = np.arange(-2000, 2000) + 0.5
        big = np.array([2.0**52, 2.0**52 + 1, 2.0**53 - 1, 2.0**52 - 0.5, 2.0**51 + 0.5])
        vals = np.concatenate([
            np.random.default_rng(5).normal(0.0, 300.0, 590_000),
            ties,
            np.nextafter(ties, np.inf),
            np.nextafter(ties, -np.inf),
            [0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 0), -np.nextafter(0.5, 0)],
            big,
            -big,
        ])
        # array_equal treats -0.0 == 0.0: only the sign of a zero may differ,
        # and every caller's integer cast erases it
        assert np.array_equal(round_half_away(vals), reference(vals))
        in_place = vals.copy()
        assert round_half_away(in_place, out=in_place) is in_place
        assert np.array_equal(in_place, reference(vals))

    def test_sign_bit_halves_equal_copysign(self):
        """The halves built on the bits are np.copysign(0.5, x), and the
        result trunc(x + copysign(0.5, x)), bit for bit: a zero's sign
        counts, as do subnormals, the neighbours of 2**52 and infinities."""
        tiny = np.finfo(np.float64).smallest_subnormal
        edge = np.array([2.0**52, 2.0**53, 2.0**51 + 0.5])
        pos = np.concatenate([
            [0.0, tiny, 2 * tiny, np.finfo(np.float64).smallest_normal / 3, np.inf],
            edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
            np.arange(0, 2000) + 0.5, np.nextafter(np.arange(0, 2000) + 0.5, 0),
        ])
        vals = np.concatenate([pos, -pos])
        halves, out = np.empty_like(vals), np.empty_like(vals)
        assert round_half_away(vals, out=out, scratch=halves) is out
        bits = np.copysign(0.5, vals)
        assert np.array_equal(halves.view(np.uint64), bits.view(np.uint64))
        old = np.trunc(vals + np.copysign(0.5, vals))
        assert np.array_equal(out.view(np.uint64), old.view(np.uint64))
        assert np.array_equal(round_half_away(vals).view(np.uint64), old.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.float32])
    def test_other_dtypes_round_in_float64(self, dtype):
        vals = np.array([0, 1, -2, 7, -0.5, 2.5, 0.49999997], dtype=dtype)
        wide = vals.astype(np.float64)
        got = round_half_away(vals)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.trunc(wide + np.copysign(0.5, wide)))


class TestBlockDctCodec:
    def test_constant_128_is_lossless_zero_rate(self):
        img = ImageBuffer(8, 8, 1, np.full(64, 128, np.uint8))
        codec = BlockDctCodec()
        bs = codec.encode(img, 3)
        assert bs.bits_used == 0.0
        recon = codec.decode(bs)
        assert recon.same_as(img)

    def test_dims_preserved_with_padding(self, dct_codec):
        rng = np.random.default_rng(11)
        img = ImageBuffer(13, 17, 1, rng.integers(0, 256, 13 * 17, dtype=np.uint8))
        recon, _ = dct_codec.reconstruct(img, 5)
        assert (recon.width, recon.height, recon.channels) == (13, 17, 1)

    def test_rgb_supported(self, dct_codec):
        rng = np.random.default_rng(12)
        img = ImageBuffer(16, 8, 3, rng.integers(0, 256, 16 * 8 * 3, dtype=np.uint8))
        recon, bs = dct_codec.reconstruct(img, 8)
        assert recon.channels == 3
        assert bs.bits_used > 0

    def test_header_roundtrips_dims_and_quality(self, dct_codec):
        img = ImageBuffer(10, 6, 1, np.zeros(60, np.uint8))
        bs = dct_codec.encode(img, 7)
        recon = dct_codec.decode(bs)
        assert (recon.width, recon.height, recon.channels) == (10, 6, 1)
        assert recon.same_as(dct_codec.reconstruct(img, 7)[0])

    def test_corrupt_payload(self, dct_codec):
        img = ImageBuffer(8, 8, 1, np.zeros(64, np.uint8))
        bs = dct_codec.encode(img, 1)
        bs.payload = bs.payload[:-4]
        with pytest.raises(CodecError, match="payload"):
            dct_codec.decode(bs)

    @pytest.mark.parametrize("corrupt", [
        lambda payload: payload + b"\x00",
        lambda payload: payload[:-1],
        lambda payload: payload[: codeclab.blockdct._HEADER.size + 1],
    ], ids=["one-byte-long", "one-byte-short", "header-plus-one"])
    def test_odd_length_payload(self, dct_codec, corrupt):
        rng = np.random.default_rng(3)
        img = ImageBuffer(16, 8, 1, rng.integers(0, 256, 128, dtype=np.uint8))
        bs = dct_codec.encode(img, 5)
        bs.payload = corrupt(bs.payload)
        with pytest.raises(CodecError, match="corrupt payload"):
            dct_codec.decode(bs)

    @pytest.mark.parametrize("width, height", [(65536, 1), (1, 65536)])
    def test_side_beyond_header_refused(self, monkeypatch, width, height):
        """A side the "<2sBBHH" header cannot hold is a CodecError that names
        the limit, raised before any transform; stage, which writes no
        header, takes the image, and a side of 65535 encodes."""
        codec, img = BlockDctCodec(), ImageBuffer(width, height, 1, np.zeros(65536, np.uint8))
        y, _ = codec.stage(img, 4)
        assert y.same_as(img)
        monkeypatch.setattr(BlockDctCodec, "_bands", lambda *args: pytest.fail("transformed"))
        for call in (codec.encode, codec.reconstruct):
            with pytest.raises(CodecError, match="holds sides up to 65535"):
                call(img, 4)
        monkeypatch.undo()
        edge = ImageBuffer(min(width, 65535), min(height, 65535), 1, np.zeros(65535, np.uint8))
        assert codec.reconstruct(edge, 4)[0].same_as(edge)

    def test_quality_improves_distortion(self, dct_codec, gray_images):
        img = gray_images[0]
        mses = []
        for q in range(1, 9):
            recon, _ = dct_codec.reconstruct(img, q)
            diff = recon.samples.astype(float) - img.samples.astype(float)
            mses.append(np.mean(diff**2))
        assert all(a > b for a, b in zip(mses, mses[1:]))

    def test_ladder_validation(self):
        for qs in ((10, 10, 20), ()):
            with pytest.raises(ValueError, match="non-empty and strictly increasing"):
                BlockDctCodec(native_qualities=qs)


class TestStage:
    @pytest.mark.parametrize("q", range(1, 9))
    def test_stage_is_reconstruct_image(self, dct_codec, gray_images, q):
        for img in [*gray_images, _rgb_37x21()]:
            assert dct_codec.stage(img, q)[0].same_as(dct_codec.reconstruct(img, q)[0])

    @pytest.mark.parametrize("rgb", [False, True])
    def test_chain_matches_reconstruct_loop(self, dct_codec, gray_images, rgb):
        x = _rgb_37x21() if rgb else gray_images[0]
        levels = sample_quality_sequence(1, 8, 50, "literal", derive_rng(50, rgb))
        y, bits = compress_chains(x, [levels], dct_codec, [True])[0]
        ref = x
        for q in levels:
            ref, ref_bs = dct_codec.reconstruct(ref, q)
        assert y.same_as(ref)
        assert bits == ref_bs.bits_used

    def test_tables_are_read_only(self):
        """The tables are one read-only (levels, 8, 8) float64 array of
        scale_quant_table's entries, all at least 1, which is what keeps
        every index in int16: no entry below 1 can be written into it."""
        codec = BlockDctCodec()
        assert codec._tables.shape == (8, 8, 8) and codec._tables.dtype == np.float64
        assert np.array_equal(codec._tables,
                              [scale_quant_table(q) for q in DEFAULT_NATIVE_QUALITIES])
        with pytest.raises(ValueError, match="read-only"):
            codec._tables[0] = np.full((8, 8), 0.01)
        with pytest.raises(ValueError, match="read-only"):
            codec._tables[0][0, 0] = 1 / 32

    @pytest.mark.parametrize("value, dc_index", [(0, -1024), (255, 1016)])
    @pytest.mark.parametrize("width, channels", [(8, 1), (9, 1), (8, 3)])
    def test_int16_bound_on_dc_index(self, value, dc_index, width, channels):
        """A constant block has only a DC coefficient, 8 * (value - 128), and
        quality 100's table is all ones, so the payload holds it as is:
        -1024 for 0s, the bound that no index passes, and 1016 for 255s.
        Width 9 is padded on the right, and its padded block is constant
        too."""
        codec = BlockDctCodec([100])
        x = ImageBuffer(width, 8, channels, np.full(8 * width * channels, value, np.uint8))
        bs = codec.encode(x, 1)
        body = np.frombuffer(bs.payload, "<i2", offset=_HEADER.size).reshape(-1, 64)
        assert len(body) == channels * -(-width // 8)
        assert np.all(body[:, 0] == dc_index) and not body[:, 1:].any()
        assert codec.decode(bs).same_as(codec.stage(x, 1)[0])

    def test_native_qualities_keep_indices_in_int16(self):
        """At every native quality 1-100, the 128 blocks of largest
        |coefficient| at one of the 64 positions, 0s and 255s by the sign of
        its basis or by the opposite sign, encode to indices within 1024,
        and quality 100's all-ones table gives 1024 itself, the DC index of
        a block of 0s."""
        blocks = []
        for u, v in itertools.product(range(8), repeat=2):
            basis = np.outer(_DCT[u], _DCT[v])
            blocks += [np.where(basis > 0, 255, 0), np.where(basis < 0, 255, 0)]
        # 8 block rows of 16 blocks
        pixels = np.array(blocks, np.uint8).reshape(8, 16, 8, 8).transpose(0, 2, 1, 3)
        x = ImageBuffer(128, 64, 1, pixels.ravel())
        codec = BlockDctCodec(range(1, 101))
        peaks = []  # max |index| at each quality, in int64, where no |-32768| wraps
        for q in range(1, 101):
            body = np.frombuffer(codec.encode(x, q).payload, "<i2", offset=_HEADER.size)
            peaks.append(np.abs(body.astype(np.int64)).max())
        assert max(peaks) <= 1024 and peaks[-1] == 1024

    def test_coefficient_bound_is_reached(self):
        """A block of 0s and 255s by the sign of basis (u, v), or by its
        opposite, the blocks of largest |coefficient| at (u, v), reaches the
        bound there within 1 and does not pass it: 255 where the basis is
        positive gives 127 * P + 128 * N, P and N the sums of its positive
        and negative parts, the opposite 128 * P + 127 * N.

        The bound: coefficient (u, v) of level-shifted samples s, -128 ..
        127, is the sum of s times basis b = D[u, x] * D[v, y], largest in
        magnitude at s = 127 or -128 by the sign of b, which gives 127.5 *
        sum |b| + 0.5 * |sum b|, both sums outer products of row sums of D.
        It peaks at 1024, the DC term of a block of 0s, so a table of
        entries of at least 1 keeps every index within 1024."""
        a, c = np.abs(_DCT).sum(axis=1), _DCT.sum(axis=1)
        bound = 127.5 * np.outer(a, a) + 0.5 * np.abs(np.outer(c, c))
        assert np.argmax(bound) == 0 and bound[0, 0] == pytest.approx(1024.0)
        for u, v in itertools.product(range(8), repeat=2):
            basis = np.outer(_DCT[u], _DCT[v])
            best = 0.0
            for high in (basis > 0, basis < 0):
                block = np.where(high, 255.0, 0.0) - 128.0
                best = max(best, abs(dct2_8x8(block)[u, v]))
            assert bound[u, v] - 1 <= best <= bound[u, v] + 1e-9

    @pytest.mark.parametrize("rgb, calls", [(False, 1), (True, 3)])
    def test_chain_entropy_codes_last_stage_only(
        self, monkeypatch, dct_codec, gray_images, rgb, calls
    ):
        entropy_bits = codeclab.blockdct._entropy_bits
        seen = []

        def counting(indices):
            seen.append(indices.shape)
            return entropy_bits(indices)

        monkeypatch.setattr(codeclab.blockdct, "_entropy_bits", counting)
        x = _rgb_37x21() if rgb else gray_images[0]
        levels = sample_quality_sequence(1, 8, 50, "literal", derive_rng(51))
        compress_chains(x, [levels], dct_codec, [True])[0]
        assert len(seen) == calls


def _random_image(width, height, channels, seed):
    rng = np.random.default_rng(seed)
    n = width * height * channels
    return ImageBuffer(width, height, channels, rng.integers(0, 256, n, dtype=np.uint8))


def _planes(img):
    """The image's (height, width) uint8 planes, views of its samples."""
    pixels = img.samples.reshape(img.height, img.width, img.channels)
    return [pixels[:, :, c] for c in range(img.channels)]


# the per-block products of the reference paths: (8, 8) @ (8, 8) for every
# block, left product first, both operands contiguous as in the codec's
_D, _D_T = _DCT, np.ascontiguousarray(_DCT.T)


def _reference_indices(plane, table):
    """The per-plane forward path that the block-row transform replaced, kept
    as its reference: a float64 copy, np.pad, a blocking copy, the DCT of each
    block of an (N, 8, 8) stack, quantize.  Returns (N, 8, 8) in row-major
    block order."""
    h, w = plane.shape
    padded = np.pad(plane.astype(np.float64) - 128.0, ((0, -h % 8), (0, -w % 8)), mode="edge")
    ph, pw = padded.shape
    blocks = padded.reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    idx = round_half_away(np.matmul(np.matmul(_D, blocks), _D_T) / table)
    assert np.abs(idx).max() <= 1024  # the coefficient bound over entries of at least 1
    return idx


def _reference_plane(idx, table, h, w):
    """The per-plane inverse path that the block-row transform replaced."""
    ph, pw = h + -h % 8, w + -w % 8
    coeffs = np.matmul(np.matmul(_D_T, idx * table), _D)
    plane = coeffs.reshape(ph // 8, pw // 8, 8, 8).transpose(0, 2, 1, 3).reshape(ph, pw)
    return np.clip(round_half_away(plane[:h, :w] + 128.0), 0, 255).astype(np.uint8)


def _as_blocks(rows, h, w):
    """Block rows (hb, 8, 8 * wb) of an h x w plane as an (N, 8, 8) stack in
    row-major block order."""
    hb, wb = -(-h // 8), -(-w // 8)
    return rows.reshape(hb, 8, wb, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def _reference_stage(codec, img, q):
    """(reconstruction samples, payload, bits) of the reference paths."""
    table = codec._tables[q - 1]
    out = np.empty((img.height, img.width, img.channels), np.uint8)
    body, bits = [], 0.0
    for c, plane in enumerate(_planes(img)):
        idx = _reference_indices(plane, table)
        body.append(idx.astype("<i2").tobytes())
        bits += _entropy_bits(idx.astype(np.int16).reshape(-1, 64))
        out[:, :, c] = _reference_plane(idx, table, img.height, img.width)
    return out.ravel(), b"".join(body), bits


# (width, height, channels): aligned, one block row or column, padded on one
# or both axes, down to a single pixel
MIXED_SHAPES = [(1, 1, 1), (8, 8, 1), (9, 8, 1), (8, 9, 1), (40, 8, 1), (8, 40, 1),
                (37, 21, 3), (64, 48, 3), (8, 8, 3), (9, 8, 3), (40, 8, 3), (8, 40, 3),
                (1, 1, 3)]
# block rows far longer and far more numerous than one block, where a BLAS
# build could pick other kernels for the block-row and the 2-D products: a
# 4096-wide and a 4096-high strip, and the 512 x 384 benchmark shape, aligned
# and padded
REFERENCE_SHAPES = MIXED_SHAPES + [(4096, 8, 1), (8, 4096, 1), (512, 384, 3), (513, 385, 3)]


class TestPadToBlocks:
    @pytest.mark.parametrize("height, width", [(8, 40), (40, 8), (8, 8), (9, 8), (21, 37), (1, 1)])
    def test_matches_np_pad(self, height, width):
        """Every band of 1, 2 or all block rows, the last one partial where
        the block rows do not divide evenly."""
        rng = np.random.default_rng(height * width)
        planes = [rng.integers(0, 256, (height, width)).astype(np.uint8) for _ in range(3)]
        padded_h = -(-height // 8) * 8
        expected = [np.pad(plane, ((0, -height % 8), (0, -width % 8)), mode="edge") - 128.0
                    for plane in planes]
        for band in (8, 16, padded_h):
            for y0 in range(0, padded_h, band):
                out = np.full((3, min(band, padded_h - y0), -(-width // 8) * 8), 7.0)
                assert _pad_to_blocks(planes, y0, out) is out
                for got, want in zip(out, expected):
                    assert np.array_equal(got, want[y0 : y0 + band])


def _check_against_reference(codec, x, q):
    """reconstruct, stage and rated stage at q equal the reference paths in
    samples, payload body and bits, and leave x unchanged."""
    before = x.samples.copy()
    samples, body, bits = _reference_stage(codec, x, q)
    y, bs = codec.reconstruct(x, q)
    assert np.array_equal(y.samples, samples)
    assert bs.payload[codeclab.blockdct._HEADER.size:] == body
    assert bs.bits_used == bits
    staged, no_bits = codec.stage(x, q)
    assert np.array_equal(staged.samples, samples) and no_bits is None
    rated, rated_bits = codec.stage(x, q, rate=True)
    assert np.array_equal(rated.samples, samples)
    assert rated_bits == bs.bits_used
    assert np.array_equal(x.samples, before)


class TestWorkspace:
    @pytest.mark.parametrize("width, height, channels", REFERENCE_SHAPES)
    def test_matches_reference_path(self, dct_codec, width, height, channels):
        x = _random_image(width, height, channels, width * height + channels)
        for q in range(1, dct_codec.num_levels + 1):
            _check_against_reference(dct_codec, x, q)

    @given(width=st.integers(1, 300), height=st.integers(1, 300),
           channels=st.sampled_from([1, 3]), q=st.integers(1, 8), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_shapes_match_reference_path(self, width, height, channels, q, seed):
        _check_against_reference(BlockDctCodec(), _random_image(width, height, channels, seed), q)

    def test_one_instance_across_shapes(self):
        """Gray, RGB, aligned and unaligned images in turn through one
        instance: each stage equals a fresh instance's and the reference's."""
        shared = BlockDctCodec()
        images = [_random_image(w, h, c, 100 + i) for i, (w, h, c) in enumerate(MIXED_SHAPES)]
        for q in (1, 4, 8):
            for x in images + images[::-1]:
                y, _ = shared.stage(x, q)
                assert y.same_as(BlockDctCodec().stage(x, q)[0])
                assert np.array_equal(y.samples, _reference_stage(shared, x, q)[0])
                assert shared.decode(shared.encode(x, q)).same_as(y)

    def test_results_share_no_memory_and_stay_put(self):
        codec = BlockDctCodec()
        x = _rgb_37x21()
        staged, _ = codec.stage(x, 3)
        decoded = codec.decode(codec.encode(x, 5))
        recon, _ = codec.reconstruct(x, 7)
        results = [staged, decoded, recon]
        kept = [r.samples.copy() for r in results]
        ws = codec._ws
        for r in results:
            assert r.samples.flags.c_contiguous
            assert not np.shares_memory(r.samples, x.samples)
            for buf in (ws.rows, ws.scratch, ws.rated, ws.tables):
                assert not np.shares_memory(r.samples, buf)
        # later stages on the same shape and on others reuse or replace the
        # workspace; the earlier results must not move
        for q in range(1, 9):
            codec.stage(staged, q)
            codec.stage(x, q, rate=True)
            codec.reconstruct(decoded, q)
            codec.stage(_random_image(64, 48, 3, q), q)
        for r, k in zip(results, kept):
            assert np.array_equal(r.samples, k)

    @pytest.mark.parametrize("width, height, channels", MIXED_SHAPES)
    def test_inputs_left_unchanged(self, dct_codec, width, height, channels):
        x = _random_image(width, height, channels, 7)
        before = x.samples.copy()
        frozen = parse_pnm(serialize_pnm(x))  # samples are a read-only buffer
        assert not frozen.samples.flags.writeable
        for q in range(1, dct_codec.num_levels + 1):
            for img in (x, frozen):
                bs = dct_codec.encode(img, q)
                payload = bytes(bs.payload)
                assert dct_codec.stage(img, q)[0].same_as(dct_codec.decode(bs))
                assert bs.payload == payload
                dct_codec.reconstruct(img, q)
                dct_codec.stage_many([img, img], [q, 1], [True, False])
                assert np.array_equal(img.samples, before)

    def test_channel_indices_live_in_the_workspace(self, dct_codec):
        x = _rgb_37x21()
        ws = dct_codec._workspace(x.height, x.width)

        def tables(levels):  # the gathered tables of planes at these levels
            return ws.tables[np.asarray(levels) - 1][:, None]

        for plane in _planes(x):
            idx = dct_codec._channel_indices(ws, [plane], tables([3]), 0, 3)
            assert idx.base is ws.rows and idx.shape == (3, 8, 40)
            expected = _reference_indices(plane, dct_codec._tables[2])
            assert np.array_equal(_as_blocks(idx, x.height, x.width), expected)
        # a stack: plane p in block rows 3p .. 3p + 2, each at its own level,
        # the levels out of order
        levels = [5, 3, 5]
        idx = dct_codec._channel_indices(ws, _planes(x), tables(levels), 0, 3)
        assert idx.base is ws.rows and idx.shape == (9, 8, 40)
        for p, (plane, q) in enumerate(zip(_planes(x), levels)):
            expected = _reference_indices(plane, dct_codec._tables[q - 1])
            assert np.array_equal(_as_blocks(idx[3 * p : 3 * p + 3], x.height, x.width),
                                  expected)
        # a band: block rows 1 .. 2 of each plane, plane p in rows 2p .. 2p + 1,
        # blocks 5 .. 14 in row-major block order; the bottom row is padded
        idx = dct_codec._channel_indices(ws, _planes(x), tables([4, 4, 4]), 1, 3)
        assert idx.base is ws.rows and idx.shape == (6, 8, 40)
        for p, plane in enumerate(_planes(x)):
            expected = _reference_indices(plane, dct_codec._tables[3])[5:]
            band = idx[2 * p : 2 * p + 2].reshape(2, 8, 5, 8).transpose(0, 2, 1, 3)
            assert np.array_equal(band.reshape(-1, 8, 8), expected)


# gray and RGB, aligned and padded: stacks of one workspace call (up to four
# 64x64 planes), stacks split across calls, RGB images split between two
# calls, and a plane too large to stack (131x77, one plane per call)
STACK_SHAPES = [(64, 64, 1), (64, 64, 3), (16, 8, 1), (40, 24, 3), (37, 21, 3),
                (13, 11, 1), (9, 17, 3), (131, 77, 1), (1, 1, 3)]

# a band budget under which small planes split into bands of block rows
SMALL_STACK_BYTES = 4 * 1024
# (width, height, channels, block rows per band) at SMALL_STACK_BYTES: full
# and partial last bands, edge padding on the right, at the bottom or both,
# one-row bands, a block row wider than the budget, and planes that still
# stack whole
BAND_SHAPES = [(13, 70, 1, 4), (16, 72, 1, 4), (37, 21, 3, 1), (30, 50, 3, 2),
               (64, 64, 1, 1), (100, 9, 1, 1), (8, 8, 3, 1), (16, 16, 1, 2)]


class TestStageMany:
    @given(shape=st.sampled_from(STACK_SHAPES + [s[:3] for s in BAND_SHAPES]),
           small=st.booleans(), data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_equals_loop_of_stage(self, shape, small, data):
        """stage_many over 1-6 images of one shape at mixed levels and rates
        gives, image for image, the samples and bits of one-image stages,
        each in an array of its own; with small, under a band budget that
        splits most of these planes into bands."""
        width, height, channels = shape
        m = data.draw(st.integers(1, 6))
        draws = st.lists(st.tuples(st.integers(0, 2**32), st.integers(1, 8), st.booleans(),
                                   st.integers(0, 8)), min_size=m, max_size=m)
        imgs, qs, rates = [], [], []
        loop = BlockDctCodec()
        for seed, q, rate, pre in data.draw(draws):
            img = _random_image(width, height, channels, seed)
            if pre:  # a stage output, as a chain's later stages take
                img = loop.stage(img, pre)[0]
            imgs.append(img)
            qs.append(q)
            rates.append(rate)
        refs = [loop.stage(img, q, rate) for img, q, rate in zip(imgs, qs, rates)]
        with pytest.MonkeyPatch.context() as mp:
            if small:
                mp.setattr(codeclab.blockdct, "STACK_BYTES", SMALL_STACK_BYTES)
            stacked = BlockDctCodec().stage_many(imgs, qs, rates)
        assert len(stacked) == m
        for rate, (ref, ref_bits), (y, bits) in zip(rates, refs, stacked):
            assert (y.width, y.height, y.channels) == (width, height, channels)
            assert np.array_equal(y.samples, ref.samples)
            assert bits == ref_bits and (bits is None) == (not rate)
        for a, b in itertools.combinations([y.samples for y, _ in stacked], 2):
            assert not np.shares_memory(a, b)

    def test_mixed_shapes_equal_loop(self, dct_codec):
        imgs = [_random_image(w, h, c, w + h) for w, h, c in MIXED_SHAPES]
        qs = [1 + n % 8 for n in range(len(imgs))]
        rates = [n % 2 == 0 for n in range(len(imgs))]
        for img, q, rate, (y, bits) in zip(imgs, qs, rates,
                                           dct_codec.stage_many(imgs, qs, rates)):
            ref, ref_bits = BlockDctCodec().stage(img, q, rate)
            assert y.same_as(ref) and bits == ref_bits

    def test_bad_level_raises_before_any_stage(self, dct_codec):
        with pytest.raises(CodecError, match="quality 9"):
            dct_codec.stage_many([_rgb_37x21()] * 2, [3, 9], [False, True])

    @pytest.mark.parametrize("codec_id, n_xs, qs, rates", [
        ("block-dct", 2, [1, 2], [False]),
        ("midpoint-scalar:3", 2, [1], [False]),
        ("block-dct", 1, [1, 2], [False, False]),
    ], ids=["dct-rates", "scalar-qs", "dct-xs"])
    def test_unequal_lengths_refused(self, codec_id, n_xs, qs, rates):
        """Lists of unequal lengths are refused, naming the lengths, not cut
        to the shortest by zip or broadcast against each other."""
        codec = make_codec(codec_id)
        x = _rgb_37x21() if codec.signal_kind == "image" else SourceVector(np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match=f"{n_xs} inputs, {len(qs)} qualities and "
                                             f"{len(rates)} rates"):
            codec.stage_many([x] * n_xs, qs, rates)

    @pytest.mark.parametrize("width, height, channels, size", [
        (64, 64, 1, 4), (64, 64, 3, 1), (37, 21, 3, 5), (512, 384, 3, 1), (1, 1, 1, 256)])
    def test_stack_size(self, dct_codec, width, height, channels, size):
        assert dct_codec.stack_size(_random_image(width, height, channels, 0)) == size


class TestBands:
    @pytest.mark.parametrize("width, height, channels, band", BAND_SHAPES)
    def test_split_planes_match_reference(self, monkeypatch, width, height, channels, band):
        """Under a small band budget, stage, rated stage, encode and decode
        equal the per-block reference paths, and stage_many, stage and
        encode give the samples, payload bytes and bits of a codec at the
        default budget."""
        imgs = [_random_image(width, height, channels, 500 + i) for i in range(3)]
        qs, rates = [2, 7, 2], [True, False, True]

        def outputs(codec):
            out = [(y.samples.tobytes(), bits) for y, bits in codec.stage_many(imgs, qs, rates)]
            for x in imgs:
                for q in (1, 8):
                    bs, (y, bits) = codec.encode(x, q), codec.stage(x, q, True)
                    out.append((bs.payload, bs.bits_used, y.samples.tobytes(), bits))
            return out

        default = outputs(BlockDctCodec())
        monkeypatch.setattr(codeclab.blockdct, "STACK_BYTES", SMALL_STACK_BYTES)
        codec = BlockDctCodec()
        for x in imgs:
            for q in range(1, codec.num_levels + 1):
                _check_against_reference(codec, x, q)
        assert codec._ws.band == band and (band < codec._ws.hb or codec._ws.planes > 1)
        assert outputs(codec) == default

    @pytest.mark.parametrize("channels", [1, 3])
    def test_int16_extreme_in_the_last_band(self, channels):
        """At quality 100, whose table is all ones, a constant 0 block has DC
        index -1024, the largest |index| of any block.  Only the bottom block
        row of a 512x384 image, the last of its 12 bands, holds such blocks,
        on 128s that give indices of 0: the payload holds exactly those
        indices, stage and decode(encode) equal the reference paths, and so
        do later stages on the instance."""
        codec = BlockDctCodec([75, 100])
        pixels = np.full((384, 512, channels), 128, np.uint8)
        pixels[-8:] = 0
        x = ImageBuffer(512, 384, channels, pixels.ravel().copy())
        ws = codec._workspace(384, 512)
        assert ws.band == 4 and ws.hb == 48
        bs = codec.encode(x, 2)
        body = np.frombuffer(bs.payload, "<i2", offset=_HEADER.size).reshape(
            channels, 48, 64, 64).copy()
        assert np.all(body[:, -1, :, 0] == -1024)
        body[:, -1, :, 0] = 0
        assert not body.any()
        samples, payload, bits = _reference_stage(codec, x, 2)
        assert bs.payload[_HEADER.size :] == payload and bs.bits_used == bits
        assert np.array_equal(codec.decode(bs).samples, samples)
        y, y_bits = codec.stage(x, 2, rate=True)
        assert np.array_equal(y.samples, samples) and y_bits == bits
        pixels[-8:] = 255  # DC index 1016
        bright = ImageBuffer(512, 384, channels, pixels.ravel())
        noise = _random_image(512, 384, channels, 3)
        for img, q in [(bright, 2), (noise, 1), (noise, 2)]:
            samples, _, bits = _reference_stage(codec, img, q)
            y, y_bits = codec.stage(img, q, rate=True)
            assert np.array_equal(y.samples, samples) and y_bits == bits

    def test_workspace_holds_one_band(self):
        """The float64 block-row buffers of a 512x384 RGB workspace hold one
        band, 4 block rows, not a plane."""
        codec = BlockDctCodec()
        x = _random_image(512, 384, 3, 1)
        codec.decode(codec.encode(x, 3))
        codec.stage_many([x, x], [2, 5], [True, False])
        ws = codec._ws
        for buf in (ws.rows, ws.scratch):
            assert buf.dtype == np.float64 and buf.shape == (4, 8, 512)
            assert buf.nbytes <= codeclab.blockdct.STACK_BYTES


class TestPixelRounding:
    def test_equals_clipped_half_away_rounding(self):
        ties = np.arange(-300, 300) + 0.5
        big = np.array([2.0**52, 2.0**53 - 1, 1e15 + 0.5, 1e300, np.finfo(float).max])
        t = np.concatenate([
            ties,
            np.nextafter(ties, np.inf),
            np.nextafter(ties, -np.inf),
            [-0.5, -0.0, 0.0, 0.5, 254.5, 255.5, 255.0, 256.0, -1.0],
            np.nextafter([-0.5, 0.5, 254.5, 255.5], np.inf),
            np.nextafter([-0.5, 0.5, 254.5, 255.5], -np.inf),
            big,
            -big,
            np.random.default_rng(9).normal(128.0, 100.0, 100_000),
        ])
        expected = np.clip(round_half_away(t), 0, 255).astype(np.uint8)
        out = np.empty(t.shape, np.uint8)
        _round_to_pixels(t.copy()[None], [out])
        assert np.array_equal(out, expected)

    def test_writes_a_strided_view(self):
        t = np.array([[[-3.2, 17.5], [255.5, 100.49]], [[1.5, -0.5], [254.5, 300.0]]])
        out = np.zeros((2, 2, 3), np.uint8)
        _round_to_pixels(t.copy(), [out[:, :, 1], out[:, :, 2]])
        assert out[:, :, 1].tolist() == [[0, 18], [255, 100]]
        assert out[:, :, 2].tolist() == [[2, 0], [255, 255]]
        assert not out[:, :, 0].any()


def _entropy_bits_loop(indices):
    """The per-position loop that _entropy_bits replaced, kept as its reference."""
    nblocks = indices.shape[0]
    total = 0.0
    for pos in range(64):
        col = indices[:, pos].astype(np.int64)
        counts = np.bincount(col - col.min())
        counts = counts[counts > 0]
        p = counts / nblocks
        total -= nblocks * float((p * np.log2(p)).sum())
    return total


def _entropy_cases():
    rng = np.random.default_rng(64)
    decay = np.linspace(40.0, 0.5, 64)  # DC-like spread down to almost constant
    extremes = rng.integers(-3, 4, (50, 64))
    extremes[::2, 5] = 32767
    extremes[1::2, 5] = -32767
    extremes[:, 9] = 32767
    extremes[:, 10] = -32767
    constant = np.zeros((20, 64), np.int64)
    constant[:, 3] = -7
    return {
        "one-block": rng.integers(-50, 50, (1, 64)),
        "laplacian-384": np.round(rng.laplace(0.0, decay, (384, 64))),
        "laplacian-3072": np.round(rng.laplace(0.0, decay, (3072, 64))),
        "uniform-wide": rng.integers(-2000, 2000, (777, 64)),
        "negative": rng.integers(-300, -1, (129, 64)),
        "constant-columns": constant,
        "plus-minus-32767": extremes,
    }


class TestEntropyBits:
    @pytest.mark.parametrize("name", list(_entropy_cases()))
    def test_equals_per_position_loop(self, name):
        indices = _entropy_cases()[name].astype(np.int16)
        assert _entropy_bits(indices) == _entropy_bits_loop(indices)

    def test_equals_loop_on_codec_indices(self, dct_codec, gray_images):
        for q in range(1, dct_codec.num_levels + 1):
            for img in [*gray_images, _rgb_37x21()]:
                payload = dct_codec.encode(img, q).payload
                body = np.frombuffer(payload, "<i2", offset=codeclab.blockdct._HEADER.size)
                for idx in body.reshape(img.channels, -1, 64):
                    assert _entropy_bits(idx) == _entropy_bits_loop(idx)

    def test_random_arrays(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 600))
            spread = rng.uniform(0.1, 300.0, 64)
            indices = np.clip(np.round(rng.laplace(0.0, spread, (n, 64))), -32767, 32767)
            indices = indices.astype(np.int16)
            assert _entropy_bits(indices) == _entropy_bits_loop(indices)

    @pytest.mark.parametrize("nblocks", [1, 63, 64, 65, 191, 192, 3072, 3073])
    def test_wide_rows_and_tail(self, nblocks):
        """From 192 blocks on, runs of 64 whole blocks are reduced as wide
        rows and the tail rows on their own: extremes placed in the last
        row and in the last whole run are found, and the rate is the loop's."""
        rng = np.random.default_rng(nblocks)
        indices = np.round(rng.laplace(0.0, np.linspace(30.0, 0.5, 64), (nblocks, 64)))
        indices[-1, ::2] = 900
        indices[-1, 1::2] = -900
        indices[(nblocks - 1) // 64 * 64 - 1, 3] = -1200
        indices = indices.astype(np.int16)
        lo, hi = _position_extremes(indices)
        assert np.array_equal(lo, indices.min(axis=0))
        assert np.array_equal(hi, indices.max(axis=0))
        assert _entropy_bits(indices) == _entropy_bits_loop(indices)

    def test_constant_is_zero_bits(self):
        assert _entropy_bits(np.full((10, 64), 5, np.int16)) == 0.0
