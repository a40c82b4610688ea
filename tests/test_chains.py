import math

import numpy as np
import pytest

from codeclab import (
    ImageBuffer,
    SourceVector,
    compress_chain,
    distortion,
    generate_uniform_source,
    midpoint_scalar_codec,
    nested_scalar_codec,
    sample_quality_sequence,
)
from codeclab.chains import derive_rng, evaluate_cell, rho_from_outcomes
from codeclab.codecs import CodecError
from codeclab.signals import Dataset


@pytest.fixture(scope="module")
def source_ds():
    return Dataset.from_source(generate_uniform_source(2000, 31337))


class TestDistortion:
    def test_identical_signals(self):
        v = SourceVector(np.linspace(0, 1, 10))
        assert distortion(v, v, "MSE") == 0.0
        assert distortion(v, v, "PSNR") == math.inf

    def test_one_pixel_off_by_16(self):
        a = ImageBuffer(2, 2, 1, np.array([10, 10, 10, 10], np.uint8))
        b = ImageBuffer(2, 2, 1, np.array([10, 10, 10, 26], np.uint8))
        assert distortion(a, b, "MSE") == 64.0
        assert distortion(a, b, "RMSE") == 8.0

    def test_psnr_value(self):
        a = ImageBuffer(2, 2, 1, np.array([10, 10, 10, 10], np.uint8))
        b = ImageBuffer(2, 2, 1, np.array([10, 10, 10, 26], np.uint8))
        assert distortion(a, b, "PSNR") == pytest.approx(10 * math.log10(255**2 / 64))

    def test_source_peak_is_one(self):
        a = SourceVector(np.full(4, 0.5))
        b = SourceVector(np.full(4, 0.25))
        assert distortion(a, b, "PSNR") == pytest.approx(10 * math.log10(1 / 0.0625))

    def test_dimension_mismatch(self):
        a = ImageBuffer(2, 2, 1, np.zeros(4, np.uint8))
        b = ImageBuffer(4, 1, 1, np.zeros(4, np.uint8))
        with pytest.raises(ValueError):
            distortion(a, b)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            distortion(SourceVector(np.zeros(4) + 0.5), ImageBuffer(2, 2, 1, np.zeros(4, np.uint8)))


class TestSampleQualitySequence:
    def test_singleton_support(self):
        rng = derive_rng(0, 9)
        for mode in ("literal", "forced-min"):
            assert sample_quality_sequence(3, 3, 5, mode, rng) == (3, 3, 3, 3, 3)

    def test_forced_min_always_attains(self):
        rng = derive_rng(1, 9)
        for _ in range(200):
            assert min(sample_quality_sequence(2, 8, 4, "forced-min", rng)) == 2

    def test_literal_frequencies_uniform(self):
        rng = derive_rng(2, 9)
        k = 100_000
        q_min, q_max = 2, 6
        levels = np.asarray(sample_quality_sequence(q_min, q_max, k, "literal", rng))
        p = 1.0 / (q_max - q_min + 1)
        se = math.sqrt(p * (1 - p) / k)
        for q in range(q_min, q_max + 1):
            assert abs(np.mean(levels == q) - p) <= 5 * se

    def test_invalid_args(self):
        rng = derive_rng(3, 9)
        with pytest.raises(ValueError):
            sample_quality_sequence(5, 2, 3, "literal", rng)
        with pytest.raises(ValueError):
            sample_quality_sequence(1, 3, 0, "literal", rng)
        with pytest.raises(ValueError):
            sample_quality_sequence(1, 3, 2, "whatever", rng)


class TestCompressChain:
    def test_single_stage_equals_reconstruct(self, source_ds):
        codec = midpoint_scalar_codec(3)
        x = source_ds.items[0]
        y, chain_bs = compress_chain(x, (2,), codec)
        direct, bs = codec.reconstruct(x, 2)
        assert np.array_equal(y.values, direct.values)
        assert chain_bs == bs

    def test_midpoint_1_then_3_lands_on_five_eighths(self, source_ds):
        codec = midpoint_scalar_codec(3)
        y, _ = compress_chain(source_ds.items[0], (1, 3), codec)
        assert np.all(y.values == 0.625)

    def test_nested_chain_collapses_to_min(self, source_ds):
        codec = nested_scalar_codec(3)
        x = source_ds.items[0]
        rng = np.random.default_rng(8)
        for _ in range(50):
            levels = tuple(int(q) for q in rng.integers(1, 4, size=rng.integers(1, 7)))
            y, _ = compress_chain(x, levels, codec)
            single, _ = codec.reconstruct(x, min(levels))
            assert np.array_equal(y.values, single.values)

    def test_failure_annotated_with_stage(self, source_ds):
        codec = nested_scalar_codec(3)

        class Broken:
            codec_id = "broken"
            num_levels = 3

            def reconstruct(self, x, q):
                if q == 2:
                    raise RuntimeError("kaput")
                return codec.reconstruct(x, q)

            def bpp(self, bs, x):
                return codec.bpp(bs, x)

        x = source_ds.items[0]
        with pytest.raises(CodecError, match="stage 2"):
            compress_chain(x, (3, 2), Broken())
        with pytest.raises(CodecError, match="stage 1 \\(quality 0\\)"):
            compress_chain(x, (0, 3), Broken())
        with pytest.raises(ValueError, match="empty"):
            compress_chain(x, (), Broken())


def _rho(ds, codec, q_min, k, b, master_seed=0):
    return rho_from_outcomes(
        evaluate_cell(ds, codec, q_min, [k], b, master_seed=master_seed)[k], q_min, k, b
    )


def _per_trial(ds, codec, q_min, k, b, master_seed):
    return [
        o.mse_single_vs_chain
        for o in evaluate_cell(ds, codec, q_min, [k], b, master_seed=master_seed)[k]
    ]


class TestEstimateRho:
    def test_nested_forced_min_is_exactly_zero(self, source_ds):
        codec = nested_scalar_codec(3)
        for q_min in (1, 2, 3):
            est = _rho(source_ds, codec, q_min, k=10, b=5)
            assert est.mean == 0.0
            assert est.std_err == 0.0

    def test_midpoint_fixed_chain_mse(self, source_ds):
        # deterministic two-step oracle: f(x,1)=1/2, then quality 3 gives 5/8
        codec = midpoint_scalar_codec(3)
        x = source_ds.items[0]
        y, _ = compress_chain(x, (1, 3), codec)
        single, _ = codec.reconstruct(x, 1)
        assert distortion(single, y, "MSE") == 1 / 64

    def test_deterministic_per_trial(self, source_ds):
        codec = midpoint_scalar_codec(3)
        a = _per_trial(source_ds, codec, 1, 5, 8, master_seed=77)
        b = _per_trial(source_ds, codec, 1, 5, 8, master_seed=77)
        assert a == b
        assert _rho(source_ds, codec, 1, 5, 8, master_seed=77).n_pairs == 8

    def test_seed_changes_draws(self, source_ds):
        codec = midpoint_scalar_codec(3)
        a = _per_trial(source_ds, codec, 1, 8, 10, master_seed=1)
        b = _per_trial(source_ds, codec, 1, 8, 10, master_seed=2)
        assert a != b

    def test_std_err_shrinks_with_b(self, gray_images, dct_codec):
        # Monte Carlo: quadrupling b should roughly halve the standard error
        small = ImageBuffer(
            64, 64, 1, gray_images[0].planes()[0][:64, :64].astype(np.uint8)
        )
        ds = Dataset(items=[small], source_path="<mem>", item_names=["a"])
        e10 = _rho(ds, dct_codec, 2, 5, 10, master_seed=3)
        e40 = _rho(ds, dct_codec, 2, 5, 40, master_seed=3)
        assert 0.3 <= e40.std_err / e10.std_err <= 0.7

    def test_rmse_triangle_per_pair(self, source_ds):
        codec = midpoint_scalar_codec(3)
        outcomes = evaluate_cell(source_ds, codec, 1, [6], 20, "forced-min", 11)[6]
        for o in outcomes:
            lhs = math.sqrt(o.mse_x_vs_chain)
            rhs = math.sqrt(o.mse_x_vs_single) + math.sqrt(o.mse_single_vs_chain)
            assert lhs <= rhs
