import dataclasses
import math

import numpy as np
import pytest

from codeclab import (
    ImageBuffer,
    SourceVector,
    compress_chain,
    distortion,
    generate_uniform_source,
    make_codec,
    sample_quality_sequence,
)
import codeclab.protocol
from codeclab.chains import (
    STREAM_RD,
    STREAM_RHO,
    PairOutcome,
    derive_rng,
    evaluate_cell,
    rho_from_outcomes,
    signal_peak,
    signal_samples,
    theorem1_from_outcomes,
)
from codeclab.codecs import Codec, CodecError
from codeclab.protocol import EvalConfig, _rd_point, run_protocol
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

    @pytest.mark.parametrize(
        "width, height, channels", [(1, 1, 1), (1, 1, 3), (37, 21, 3), (64, 48, 1), (512, 384, 3)]
    )
    def test_image_mse_equals_float_mean(self, width, height, channels):
        n = width * height * channels
        rng = np.random.default_rng(n)
        near = rng.integers(0, 256, n, dtype=np.uint8)
        pairs = [
            (np.zeros(n, np.uint8), np.full(n, 255, np.uint8)),
            (rng.integers(0, 256, n, dtype=np.uint8), rng.integers(0, 256, n, dtype=np.uint8)),
            (near, np.clip(near + rng.integers(-3, 4, n), 0, 255).astype(np.uint8)),
        ]
        for a, b in pairs:
            diff = a.astype(np.float64) - b.astype(np.float64)
            expected = float(np.mean(diff * diff))
            x, y = (ImageBuffer(width, height, channels, s) for s in (a, b))
            assert distortion(x, y) == expected
            assert distortion(y, x) == expected

    @pytest.mark.parametrize("cells, n", [(8, 1), (8, 1000), (300, 100_003)])
    def test_source_mse_equals_per_sample_mean(self, cells, n):
        """Factored vectors, on one cell map or two, give the float64 mean of
        the per-sample squared differences, bit for bit."""
        rng = np.random.default_rng(n)
        dtype = np.uint8 if cells <= 256 else np.uint16
        shared = rng.integers(0, cells, n).astype(dtype)
        other = rng.integers(0, cells, n).astype(dtype)
        t1, t2 = rng.random(cells), rng.random(cells)
        t3 = t1.copy()
        t3[rng.integers(cells)] = 0.5
        for (c1, a), (c2, b) in [((shared, t1), (shared, t2)), ((shared, t1), (shared, t3)),
                                 ((shared, t1), (shared, t1.copy())), ((shared, t1), (other, t2))]:
            diff = a[c1] - b[c2]
            expected = float(np.mean(diff * diff))
            x = SourceVector(cells=c1, table=a)
            y = SourceVector(cells=c2, table=b)
            for u, v in [(x, y), (y, x), (SourceVector(a[c1]), y), (x, SourceVector(b[c2]))]:
                assert distortion(u, v) == expected


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
        codec = make_codec("midpoint-scalar:3")
        x = source_ds.items[0]
        y, bits = compress_chain(x, (2,), codec)
        direct, bs = codec.reconstruct(x, 2)
        assert np.array_equal(y.values, direct.values)
        assert bits == bs.bits_used

    def test_midpoint_1_then_3_lands_on_five_eighths(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        y, _ = compress_chain(source_ds.items[0], (1, 3), codec)
        assert np.all(y.values == 0.625)

    def test_nested_chain_collapses_to_min(self, source_ds):
        codec = make_codec("nested-scalar:3")
        x = source_ds.items[0]
        rng = np.random.default_rng(8)
        for _ in range(50):
            levels = tuple(int(q) for q in rng.integers(1, 4, size=rng.integers(1, 7)))
            y, _ = compress_chain(x, levels, codec)
            single, _ = codec.reconstruct(x, min(levels))
            assert np.array_equal(y.values, single.values)

    def test_failure_annotated_with_stage(self, source_ds):
        codec = make_codec("nested-scalar:3")

        class Broken(Codec):
            codec_id = "broken"
            num_levels = 3

            def stage(self, x, q, rate=False):
                if q == 2:
                    raise RuntimeError("kaput")
                return codec.stage(x, q, rate)

        x = source_ds.items[0]
        with pytest.raises(CodecError, match="stage 2"):
            compress_chain(x, (3, 2), Broken())
        with pytest.raises(CodecError, match="stage 1 \\(quality 2\\) failed: kaput"):
            compress_chain(x, (2, 3), Broken())
        with pytest.raises(CodecError, match="stage 1 \\(quality 0\\)"):
            compress_chain(x, (0, 3), Broken())
        with pytest.raises(ValueError, match="empty"):
            compress_chain(x, (), Broken())
        # a chain continued after its first stage still numbers from its start
        with pytest.raises(CodecError, match="stage 2 \\(quality 2\\) failed: kaput"):
            compress_chain(x, (3, 2), Broken(), applied=1)
        y, bs = compress_chain(x, (2,), Broken(), rate=False, applied=1)
        assert y is x and bs is None

    def test_failure_in_lean_stage_annotated(self, gray_images, dct_codec):
        with pytest.raises(CodecError, match="stage 1 \\(quality 9\\)"):
            compress_chain(gray_images[0], (9, 3), dct_codec)


def _rho(ds, codec, q_min, k, b, master_seed=0):
    return rho_from_outcomes(
        evaluate_cell(ds, codec, q_min, [k], b, master_seed=master_seed)[STREAM_RHO][k],
        q_min, k, b,
    )


def _per_trial(ds, codec, q_min, k, b, master_seed):
    return [
        o.mse_single_vs_chain
        for o in evaluate_cell(ds, codec, q_min, [k], b, master_seed=master_seed)[STREAM_RHO][k]
    ]


class TestEstimateRho:
    def test_nested_forced_min_is_exactly_zero(self, source_ds):
        codec = make_codec("nested-scalar:3")
        for q_min in (1, 2, 3):
            est = _rho(source_ds, codec, q_min, k=10, b=5)
            assert est.mean == 0.0
            assert est.std_err == 0.0

    def test_midpoint_fixed_chain_mse(self, source_ds):
        # deterministic two-step oracle: f(x,1)=1/2, then quality 3 gives 5/8
        codec = make_codec("midpoint-scalar:3")
        x = source_ds.items[0]
        y, _ = compress_chain(x, (1, 3), codec)
        single, _ = codec.reconstruct(x, 1)
        assert distortion(single, y, "MSE") == 1 / 64

    def test_deterministic_per_trial(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        a = _per_trial(source_ds, codec, 1, 5, 8, master_seed=77)
        b = _per_trial(source_ds, codec, 1, 5, 8, master_seed=77)
        assert a == b
        assert _rho(source_ds, codec, 1, 5, 8, master_seed=77).n_pairs == 8

    def test_seed_changes_draws(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        a = _per_trial(source_ds, codec, 1, 8, 10, master_seed=1)
        b = _per_trial(source_ds, codec, 1, 8, 10, master_seed=2)
        assert a != b

    def test_std_err_shrinks_with_b(self, gray_images, dct_codec):
        # Monte Carlo: quadrupling b should roughly halve the standard error
        small = ImageBuffer(64, 64, 1, gray_images[0].samples.reshape(128, 192)[:64, :64])
        ds = Dataset(items=[small], item_names=["a"])
        e10 = _rho(ds, dct_codec, 2, 5, 10, master_seed=3)
        e40 = _rho(ds, dct_codec, 2, 5, 40, master_seed=3)
        assert 0.3 <= e40.std_err / e10.std_err <= 0.7

    def test_rmse_triangle_per_pair(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        outcomes = evaluate_cell(source_ds, codec, 1, [6], 20, "forced-min", 11)[STREAM_RHO][6]
        for o in outcomes:
            lhs = math.sqrt(o.mse_x_vs_chain)
            rhs = math.sqrt(o.mse_x_vs_single) + math.sqrt(o.mse_single_vs_chain)
            assert lhs <= rhs


class TestEvaluateCellRates:
    @pytest.mark.parametrize("image", [False, True])
    def test_without_rates_same_distortions(self, source_ds, gray_images, dct_codec, image):
        if image:
            ds = Dataset(items=gray_images[:2], item_names=["a", "b"])
            codec = dct_codec
        else:
            ds, codec = source_ds, make_codec("midpoint-scalar:3")
        with_rates = _reference_evaluate_cell(
            ds, codec, 2, [1, 4], 2, "forced-min", 5, STREAM_RHO, True
        )
        without = evaluate_cell(ds, codec, 2, [1, 4], 2, master_seed=5)[STREAM_RHO]
        for k, outcomes in with_rates.items():
            assert len(without[k]) == len(outcomes)
            for o, lean in zip(outcomes, without[k]):
                assert o.single_bpp > 0 and o.chain_final_bpp > 0
                assert lean.single_bpp is None and lean.chain_final_bpp is None
                lean.single_bpp, lean.chain_final_bpp = o.single_bpp, o.chain_final_bpp
                assert lean == o

    def test_without_rates_no_reconstruct(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        calls = []

        class Counting(Codec):
            codec_id = "counting"
            signal_kind = "source"
            num_levels = 3

            def stage(self, x, q, rate=False):
                if rate:
                    calls.append(q)
                return codec.stage(x, q, rate)

        evaluate_cell(source_ds, Counting(), 1, [3, 5], 2, streams=(STREAM_RHO,))
        assert calls == []
        evaluate_cell(source_ds, Counting(), 1, [3, 5], 2, streams=(STREAM_RD,))
        assert len(calls) == 1 + 2 * 2


@pytest.mark.parametrize("streams", [(7,), (STREAM_RHO, STREAM_RHO), ()],
                         ids=["unknown", "repeated", "empty"])
def test_evaluate_cell_refuses_bad_streams(source_ds, streams):
    # the base Codec raises NotImplementedError on any call, so the
    # ValueError must come before the first one
    with pytest.raises(ValueError, match="streams must be distinct ids"):
        evaluate_cell(source_ds, Codec(), 1, [3], 2, streams=streams)


def _reference_evaluate_cell(ds, codec, q_min, k_list, b, mode, master_seed, stream, rates):
    """One stream of one cell, evaluated on its own: every chain runs all of
    its stages from x, and the single pass is its own codec call."""
    q_max = codec.num_levels
    cells = {k: [] for k in k_list}
    for i, x in enumerate(ds.items):
        single, single_bits = compress_chain(x, (q_min,), codec, rates)
        single_bpp = single_bits / signal_samples(x) if rates else None
        mse_x_single = distortion(x, single)
        for k, outcomes in cells.items():
            for t in range(b):
                rng = derive_rng(master_seed, stream, q_min, k, i, t)
                levels = sample_quality_sequence(q_min, q_max, k, mode, rng)
                y, bits = compress_chain(x, levels, codec, rates)
                outcomes.append(PairOutcome(
                    item=i, trial=t, levels=levels,
                    mse_single_vs_chain=distortion(single, y),
                    mse_x_vs_single=mse_x_single,
                    mse_x_vs_chain=distortion(x, y),
                    single_bpp=single_bpp,
                    chain_final_bpp=bits / signal_samples(x) if rates else None,
                    peak=signal_peak(x),
                ))
    return cells


def _as_measured_in(stream, cells):
    """Reference outcomes with the field that the stream does not measure
    set to None: an RD chain reads no distortion from the single pass."""
    if stream == STREAM_RHO:
        return cells
    return {k: [dataclasses.replace(o, mse_single_vs_chain=None) for o in outcomes]
            for k, outcomes in cells.items()}


def _rgb_dataset():
    rng = np.random.default_rng(12)
    yy, xx = np.mgrid[0:24, 0:40]
    items = []
    for n in range(2):
        planes = [np.clip(90 + 60 * np.sin((xx + 7 * c + n) / 5.0) + 20 * np.cos(yy / 3.0)
                          + rng.normal(0, 6, (24, 40)), 0, 255).astype(np.uint8)
                  for c in range(3)]
        items.append(ImageBuffer(40, 24, 3, np.stack(planes, axis=-1).reshape(-1)))
    return Dataset(items=items, item_names=["a", "b"])


class TestSharedSinglePass:
    """Streams that share one single pass give the outcomes each stream gives
    on its own, chain for chain."""

    @pytest.fixture(params=["midpoint", "nested", "dct-gray", "dct-rgb"])
    def case(self, request, source_ds, gray_images, dct_codec):
        if request.param == "midpoint":
            return source_ds, make_codec("midpoint-scalar:4")
        if request.param == "nested":
            return source_ds, make_codec("nested-scalar:4")
        if request.param == "dct-gray":
            small = [ImageBuffer(48, 40, 1, img.samples.reshape(128, 192)[:40, :48])
                     for img in gray_images[:2]]
            ds = Dataset(items=small, item_names=["a", "b"])
            return ds, dct_codec
        return _rgb_dataset(), dct_codec

    @pytest.mark.parametrize("mode", ["forced-min", "literal"])
    def test_outcomes_equal_per_stream(self, case, mode):
        ds, codec = case
        k_list, b = [1, 3, 2], 3
        for q_min in (3, 1, 3, codec.num_levels):
            cells = evaluate_cell(ds, codec, q_min, k_list, b, mode, 6, (STREAM_RHO, STREAM_RD))
            assert list(cells) == [STREAM_RHO, STREAM_RD]
            for stream, rates in {STREAM_RHO: False, STREAM_RD: True}.items():
                ref = _reference_evaluate_cell(
                    ds, codec, q_min, k_list, b, mode, 6, stream, rates
                )
                assert cells[stream] == _as_measured_in(stream, ref)

    def test_run_protocol_equals_per_stream_loops(self, case):
        """The grid in q_min_list order (unsorted, with a repeat) and the RD
        curves of one run_protocol equal those of a grid loop and an RD loop
        that each run every cell on its own."""
        ds, codec = case
        k_list, b, seed = [2, 1], 2, 4
        q_min_list = [codec.num_levels, 2, 1, 2]
        cfg = EvalConfig(codec="x", q_min_list=q_min_list, k_list=k_list, b=b,
                         mode="literal", distortion="PSNR", master_seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codeclab.protocol, "make_codec", lambda *args: codec)
            mp.setattr(codeclab.protocol, "resolve_dataset", lambda *args: ds)
            report = run_protocol(cfg)
        grid, theorem1 = [], []
        for q_min in q_min_list:
            cell = _reference_evaluate_cell(
                ds, codec, q_min, k_list, b, "literal", seed, STREAM_RHO, False
            )
            for k in k_list:
                grid.append(rho_from_outcomes(cell[k], q_min, k, b, "PSNR"))
                theorem1.append(theorem1_from_outcomes(cell[k], q_min, k))
        rd_single, rd_multi = [], {k: [] for k in k_list}
        for q in range(1, codec.num_levels + 1):
            cell = _reference_evaluate_cell(
                ds, codec, q, k_list, b, "literal", seed, STREAM_RD, True
            )
            singles = [o for o in cell[k_list[0]] if o.trial == 0]
            rd_single.append(_rd_point(q, [o.single_bpp for o in singles],
                                       [o.mse_x_vs_single for o in singles], singles[0].peak))
            for k in k_list:
                rd_multi[k].append(_rd_point(q, [o.chain_final_bpp for o in cell[k]],
                                             [o.mse_x_vs_chain for o in cell[k]],
                                             singles[0].peak))
        assert [(g.q_min, g.k) for g in report.grid] == [(q, k) for q in q_min_list
                                                          for k in k_list]
        assert report.grid == grid
        assert report.theorem1 == theorem1
        assert report.rd_single == rd_single
        assert report.rd_multi == rd_multi
