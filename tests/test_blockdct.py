import numpy as np
import pytest
import scipy.fft

from codeclab import BlockDctCodec, ImageBuffer, dct2_8x8, scale_quant_table
from codeclab.blockdct import BASE_QUANT_TABLE, round_half_away
from codeclab.codecs import CodecError


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

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            dct2_8x8(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            dct2_8x8(np.zeros((8, 8, 4)))


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
        for q in (1, 5, 37, 50, 77, 99, 100):
            t = scale_quant_table(q)
            assert np.all(t >= 1) and np.all(t <= 255)


class TestRounding:
    def test_half_away_from_zero(self):
        vals = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4])
        assert np.array_equal(round_half_away(vals), [1, -1, 2, -2, 2, -2])


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

    def test_quality_improves_distortion(self, dct_codec, gray_images):
        img = gray_images[0]
        mses = []
        for q in range(1, 9):
            recon, _ = dct_codec.reconstruct(img, q)
            diff = recon.samples.astype(float) - img.samples.astype(float)
            mses.append(np.mean(diff**2))
        assert all(a > b for a, b in zip(mses, mses[1:]))

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            BlockDctCodec(native_qualities=(10, 10, 20))
