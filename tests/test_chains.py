import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeclab import (
    BlockDctCodec,
    ImageBuffer,
    SourceVector,
    compress_chain,
    distortion,
    generate_uniform_source,
    make_codec,
    sample_quality_sequence,
)
import codeclab.chains
import codeclab.cli
import codeclab.protocol
from codeclab.chains import (
    STREAM_RD,
    STREAM_RHO,
    PairOutcome,
    SinglePasses,
    compress_chains,
    derive_rng,
    rho_from_outcomes,
    signal_peak,
    signal_samples,
    theorem1_from_outcomes,
)
from codeclab.codecs import Codec, CodecError
from codeclab.protocol import EvalConfig, _rd_point, run_protocol, sweep_levels
from codeclab.signals import Dataset, serialize_pnm


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

    @pytest.mark.parametrize("width, height, channels", [
        (1, 1, 1), (1, 1, 3), (37, 21, 3), (64, 48, 1), (217, 151, 1), (128, 256, 1),
        (10923, 1, 3), (512, 384, 3),
    ])
    def test_image_mse_equals_float_mean(self, width, height, channels):
        """Also the Python-int sum of squares over n, at n of 1, 32767, 32768,
        32769 and 589824 among others, all-0 against all-255 too: every
        square 65025, so a partial sum that wrapped would show."""
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
            assert expected == sum(d * d for d in diff.astype(int).tolist()) / n
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

    def test_source_mse_keeps_no_values(self):
        """A distortion reads a factored vector's values without keeping
        them, and leaves values already kept as they were."""
        rng = np.random.default_rng(5)
        shared, other = (rng.integers(0, 8, 500).astype(np.uint8) for _ in range(2))
        plain = SourceVector(rng.random(500))
        x, y, z, built = (SourceVector(cells=c, table=rng.random(8))
                          for c in (shared, shared, other, other))
        kept = built.values
        for u, v in [(plain, x), (x, y), (y, z), (z, built), (built, plain)]:
            assert distortion(u, v) == distortion(v, u) > 0
        assert x._values is None and y._values is None and z._values is None
        assert built._values is kept


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
        # a chain whose first stage is seeded still numbers from its start
        known = codec.stage(x, 3)
        with pytest.raises(CodecError, match="stage 2 \\(quality 2\\) failed: kaput"):
            compress_chain(x, (3, 2), Broken(), seed=SinglePasses(x, {3: known}))
        # a seeded stage makes no codec call, and reads no rate with rate off
        y, bs = compress_chain(x, (2,), Broken(), rate=False,
                               seed=SinglePasses(x, {2: (known[0], 7.0)}))
        assert y is known[0] and bs is None

    def test_failure_in_lean_stage_annotated(self, gray_images, dct_codec):
        with pytest.raises(CodecError, match="stage 1 \\(quality 9\\)"):
            compress_chain(gray_images[0], (9, 3), dct_codec)


def _plain_chain(x, levels, codec, rate):
    """The reference chain: one Codec.stage call per level, no memo."""
    y, bits = x, None
    for n, q in enumerate(levels, start=1):
        y, bits = codec.stage(y, q, rate and n == len(levels))
    return y, bits


def _samples(a):
    """A signal's shape and sample bytes."""
    if isinstance(a, ImageBuffer):
        return a.width, a.height, a.channels, a.samples.tobytes()
    return a.values.tobytes()


class _Identity(Codec):
    """Returns a copy of its input, logging (q, rate) per call."""

    codec_id = "identity"
    num_levels = 3

    def __init__(self):
        self.calls = []

    def stage(self, x, q, rate=False):
        self.calls.append((q, rate))
        y = ImageBuffer(x.width, x.height, x.channels, x.samples.copy())
        return y, 8.0 * q if rate else None


def _memo_cases():
    rng = np.random.default_rng(60)
    gray = ImageBuffer(16, 12, 1, rng.integers(0, 256, 16 * 12, dtype=np.uint8))
    rgb = ImageBuffer(13, 11, 3, rng.integers(0, 256, 13 * 11 * 3, dtype=np.uint8))
    source = generate_uniform_source(300, 60)
    return [(make_codec("block-dct"), gray), (make_codec("block-dct"), rgb),
            (make_codec("nested-scalar:4"), source), (make_codec("midpoint-scalar:4"), source)]


MEMO_CASES = _memo_cases()


class TestStageMemo:
    """compress_chain runs each distinct (samples, q) stage of a chain once,
    and gives what a plain Codec.stage loop gives."""

    @given(data=st.data(), case=st.sampled_from(MEMO_CASES), rate=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_plain_loop(self, data, case, rate):
        codec, x = case
        q = st.integers(1, codec.num_levels)
        levels = tuple(data.draw(st.lists(q, min_size=1, max_size=60)))
        seed = None
        if data.draw(st.booleans()):
            first = data.draw(q)
            seed = SinglePasses(x, {first: codec.stage(x, first, data.draw(st.booleans()))})
        y, bits = compress_chain(x, levels, codec, rate, seed)
        ref, ref_bits = _plain_chain(x, levels, codec, rate)
        assert _samples(y) == _samples(ref)
        assert bits == ref_bits

    def test_fingerprint_collision_gives_the_same_outputs(self, monkeypatch):
        levels = (1, 3, 1, 3, 2, 3, 3, 1, 2, 1, 3)
        plain = [_plain_chain(x, levels, codec, True) for codec, x in MEMO_CASES]
        monkeypatch.setattr(codeclab.chains, "_fingerprint", lambda a: 0)
        for (codec, x), (ref, ref_bits) in zip(MEMO_CASES, plain):
            y, bits = compress_chain(x, levels, codec)
            assert _samples(y) == _samples(ref)
            assert bits == ref_bits

    def test_identity_codec_alternating_runs_two_stages(self, gray_images):
        codec = _Identity()
        y, bits = compress_chain(gray_images[0], (1, 2) * 20, codec, rate=False)
        assert codec.calls == [(1, False), (2, False)]
        assert y.same_as(gray_images[0]) and bits is None

    def test_rated_last_stage_after_unrated(self, gray_images):
        """A rated last stage that finds only an unrated stage runs; one that
        finds a rated seed does not."""
        x, codec = gray_images[0], _Identity()
        assert compress_chain(x, (1, 2, 1, 2), codec)[1] == 16.0
        assert codec.calls == [(1, False), (2, False), (2, True)]
        codec.calls.clear()
        seed = SinglePasses(x, {2: (x, 5.0)})
        assert compress_chain(x, (2, 1, 2), codec, seed=seed)[1] == 5.0
        assert codec.calls == [(1, False)]
        codec.calls.clear()
        assert compress_chain(x, (2,), codec, seed=SinglePasses(x, {2: (x, None)}))[1] == 16.0
        assert codec.calls == [(2, True)]


class _StageLog(Codec):
    """Forwards stage_many to a codec, logging each call's (q, rate) pairs;
    stage is the base class's, which fails."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []
        self.codec_id, self.signal_kind = inner.codec_id, inner.signal_kind

    @property
    def num_levels(self):
        return self.inner.num_levels

    def stage_many(self, xs, qs, rates):
        self.calls.append(list(zip(qs, rates)))
        return self.inner.stage_many(xs, qs, rates)


class TestLockstep:
    """compress_chains gives each chain what compress_chain gives it alone,
    and runs the same stages in at most one codec call per depth."""

    @given(data=st.data(), case=st.sampled_from(MEMO_CASES))
    @settings(max_examples=60, deadline=None)
    def test_equals_sequential_chains(self, data, case):
        codec, x = case
        level = st.integers(1, codec.num_levels)
        sequences = data.draw(st.lists(st.lists(level, min_size=1, max_size=30).map(tuple),
                                       min_size=1, max_size=6))
        rates = data.draw(st.lists(st.booleans(), min_size=len(sequences),
                                   max_size=len(sequences)))
        seed = None
        if data.draw(st.booleans()):
            levels = data.draw(st.sets(level, min_size=1))
            rated = data.draw(st.booleans())
            seed = SinglePasses(x, {q: codec.stage(x, q, rated) for q in sorted(levels)})
        stacked, alone = _StageLog(codec), _StageLog(codec)
        results = compress_chains(x, sequences, stacked, rates, seed)
        assert len(results) == len(sequences)
        for levels, rate, (y, bits) in zip(sequences, rates, results):
            ref, ref_bits = compress_chain(x, levels, alone, rate, seed)
            assert _samples(y) == _samples(ref)
            assert bits == ref_bits
        assert sorted(itertools.chain(*stacked.calls)) == sorted(itertools.chain(*alone.calls))
        assert len(stacked.calls) <= max(map(len, sequences))

    def test_one_call_per_depth(self, gray_images):
        x, codec = gray_images[0], _StageLog(make_codec("block-dct"))
        sequences = [(1, 2, 3), (3, 2), (2, 2, 2, 1)]
        compress_chains(x, sequences, codec, [True, False, True])
        # depth 3 of the last chain repeats its depth-2 stage, f(f(x, 2), 2)
        # being f(x, 2) here: its memo answers it
        assert codec.calls == [[(1, False), (3, False), (2, False)],
                               [(2, False), (2, False), (2, False)], [(3, True)], [(1, True)]]

    def test_failure_names_depth_and_qualities(self, gray_images):
        with pytest.raises(CodecError, match=r"stage 1 \(qualities \[9, 3\]\)"):
            compress_chains(gray_images[0], [(9,), (3,)], make_codec("block-dct"),
                            [False, False])
        with pytest.raises(ValueError, match="empty"):
            compress_chains(gray_images[0], [(1,), ()], make_codec("block-dct"), [False] * 2)


class _BrokenDct(BlockDctCodec):
    """block-dct whose stages at quality 3 fail when their input is one of
    its own outputs, naming the quality; it stacks as block-dct does, or
    takes one chain at a time when alone is true."""

    def __init__(self, alone):
        super().__init__()
        self.alone, self.outputs = alone, []

    def stack_size(self, x):
        return 1 if self.alone else super().stack_size(x)

    def stage_many(self, imgs, qs, rates):
        for img, q in zip(imgs, qs):
            if q == 3 and any(img is out for out in self.outputs):
                raise RuntimeError(f"kaput at {q}")
        results = super().stage_many(imgs, qs, rates)
        self.outputs += [y for y, _ in results]
        return results


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_failure_in_a_group_is_the_first_in_chain_order(tmp_path, monkeypatch, capsys, seed):
    """A chain failing inside a lockstep group gives the CodecError text and
    the exit code that running the chains one at a time gives: the first
    failing chain in (q_min, grid before RD, k, trial) order names its stage."""
    rng = np.random.default_rng(seed)
    items = [ImageBuffer(16, 16, 1, rng.integers(0, 256, 256, dtype=np.uint8))
             for _ in range(2)]
    for n, img in enumerate(items):
        (tmp_path / f"img{n}.pgm").write_bytes(serialize_pnm(img))
    ds = Dataset(items=items, item_names=["a", "b"])
    assert _BrokenDct(False).stack_size(items[0]) > 12
    messages = []
    for alone in (False, True):
        with pytest.raises(CodecError) as err:
            sweep_levels(ds, _BrokenDct(alone), [2], True, [6, 2], 3, "literal", seed)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("(quality 3) failed: kaput at 3")
    runs = []
    for alone in (False, True):
        codec = _BrokenDct(alone)
        monkeypatch.setattr(codeclab.cli, "make_codec", lambda *args: codec)
        code = codeclab.cli.main(["check-theorem1", "--codec", "block-dct", "--dataset",
                                  str(tmp_path), "--qmin", "2", "--k", "6", "--b", "3",
                                  "--seed", str(seed)])
        runs.append((code, capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 3 and "kaput at 3" in runs[0][1]


def _cell(ds, codec, q_min, k_list, b, mode="forced-min", master_seed=0):
    """One grid cell's {k: outcomes}, from a sweep that names it alone."""
    grid_cells, _ = sweep_levels(ds, codec, [q_min], False, k_list, b, mode, master_seed)
    return grid_cells[q_min]


def _rho(ds, codec, q_min, k, b, master_seed=0):
    return rho_from_outcomes(
        _cell(ds, codec, q_min, [k], b, master_seed=master_seed)[k], q_min, k, b,
    )


def _per_trial(ds, codec, q_min, k, b, master_seed):
    return [
        o.mse_single_vs_chain
        for o in _cell(ds, codec, q_min, [k], b, master_seed=master_seed)[k]
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
        outcomes = _cell(source_ds, codec, 1, [6], 20, "forced-min", 11)[6]
        for o in outcomes:
            lhs = math.sqrt(o.mse_x_vs_chain)
            rhs = math.sqrt(o.mse_x_vs_single) + math.sqrt(o.mse_single_vs_chain)
            assert lhs <= rhs


class TestSweepRates:
    @pytest.mark.parametrize("image", [False, True])
    def test_without_rates_same_distortions(self, source_ds, gray_images, dct_codec, image):
        if image:
            ds = Dataset(items=gray_images[:2], item_names=["a", "b"])
            codec = dct_codec
        else:
            ds, codec = source_ds, make_codec("midpoint-scalar:3")
        with_rates = _reference_cell(ds, codec, 2, [1, 4], 2, "forced-min", 5, STREAM_RHO, True)
        without = _cell(ds, codec, 2, [1, 4], 2, master_seed=5)
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

        _cell(source_ds, Counting(), 1, [3, 5], 2)
        assert calls == []
        sweep_levels(source_ds, Counting(), [], True, [3, 5], 2)
        # at each of the 3 levels, the rated single pass and the last stage
        # of each of the 2 x 2 chains
        assert len(calls) == 3 * (1 + 2 * 2)


def test_chain_ending_on_the_single_pass_reads_no_mse(monkeypatch, source_ds):
    """A nested forced-min chain ends on the single pass's cell map and
    table, so its distortions are the single pass's, with no _mse call and
    no values gathered: one _mse per item and level, the single pass's own."""
    mse, calls = codeclab.chains._mse, []

    def counting(a, b):
        calls.append((a, b))
        return mse(a, b)

    monkeypatch.setattr(codeclab.chains, "_mse", counting)
    grid_cells, rd_cells = sweep_levels(source_ds, make_codec("nested-scalar:3"), [2], True,
                                        [4, 7], 3)
    assert len(calls) == 3
    for by_k in [*grid_cells.values(), *rd_cells.values()]:
        for o in itertools.chain(*by_k.values()):
            assert o.mse_x_vs_chain == o.mse_x_vs_single
            assert o.mse_single_vs_chain in (0.0, None)


@pytest.mark.parametrize("q_min, k_list, mode, error, match", [
    (4, [3], "forced-min", CodecError, r"quality 4 outside ladder \[1, 3\]"),
    (2, [0], "forced-min", ValueError, "k must be >= 1"),
    (2, [], "forced-min", ValueError, "k_list must be non-empty"),
    (2, [3], "bogus", ValueError, "unknown mode 'bogus'"),
], ids=["q_min", "k", "no-k", "mode"])
def test_sweep_checks_every_q_min_before_any_stage(source_ds, q_min, k_list, mode, error, match):
    """A grid level off the ladder, in any place, raises CodecError, and a k
    below 1, an empty k_list or an unknown mode ValueError, before the first
    stage of the first cell runs."""
    codec, calls = make_codec("midpoint-scalar:3"), []

    class Counting(Codec):
        codec_id, signal_kind, num_levels = "counting", "source", 3

        def stage(self, x, q, rate=False):
            calls.append(q)
            return codec.stage(x, q, rate)

    with pytest.raises(error, match=match):
        sweep_levels(source_ds, Counting(), [1, q_min], True, k_list, 2, mode)
    assert calls == []


def _reference_cell(ds, codec, q_min, k_list, b, mode, master_seed, stream, rates):
    """One stream of one cell, evaluated on its own: every chain runs all of
    its stages from x in a plain loop, and the single pass is its own codec
    call."""
    q_max = codec.num_levels
    cells = {k: [] for k in k_list}
    for i, x in enumerate(ds.items):
        single, single_bits = _plain_chain(x, (q_min,), codec, rates)
        single_bpp = single_bits / signal_samples(x) if rates else None
        mse_x_single = distortion(x, single)
        for k, outcomes in cells.items():
            for t in range(b):
                rng = derive_rng(master_seed, stream, q_min, k, i, t)
                levels = sample_quality_sequence(q_min, q_max, k, mode, rng)
                y, bits = _plain_chain(x, levels, codec, rates)
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
    """Grid and RD cells that share one single pass give the outcomes each
    cell gives on its own, chain for chain."""

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
            cells = sweep_levels(ds, codec, [q_min], True, k_list, b, mode, 6)
            for stream, by_q in zip((STREAM_RHO, STREAM_RD), cells):
                ref = _reference_cell(
                    ds, codec, q_min, k_list, b, mode, 6, stream, stream == STREAM_RD
                )
                assert by_q[q_min] == _as_measured_in(stream, ref)

    @pytest.mark.parametrize("rd", [True, False])
    def test_cells_of_one_sweep_equal_per_stream(self, case, rd):
        """One sweep over an unsorted grid with a repeat, with or without the
        RD cells, gives each cell what that cell gives on its own: the grid
        cells in first-seen order, and the RD cells at every level."""
        ds, codec = case
        k_list, b, top = [2, 1], 2, codec.num_levels
        grid_cells, rd_cells = sweep_levels(ds, codec, [3, top, 1, 3], rd, k_list, b,
                                            "literal", 8)
        assert list(grid_cells) == [3, top, 1]
        assert list(rd_cells) == (list(range(1, top + 1)) if rd else [])
        for stream, cells in ((STREAM_RHO, grid_cells), (STREAM_RD, rd_cells)):
            for q_min, by_k in cells.items():
                ref = _reference_cell(
                    ds, codec, q_min, k_list, b, "literal", 8, stream, stream == STREAM_RD
                )
                assert by_k == _as_measured_in(stream, ref)

    def test_repeated_k_runs_once(self, case):
        """A k that k_list names twice is one key, drawn and run once: the
        sweep equals one that names it once, items x b outcomes per cell and
        k."""
        ds, codec = case
        twice = sweep_levels(ds, codec, [2], True, [3, 1, 3], 2, "literal", 4)
        assert twice == sweep_levels(ds, codec, [2], True, [3, 1], 2, "literal", 4)
        for cells in twice:
            for by_k in cells.values():
                assert list(by_k) == [3, 1]
                assert all(len(outcomes) == 2 * len(ds.items) for outcomes in by_k.values())

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
            cell = _reference_cell(
                ds, codec, q_min, k_list, b, "literal", seed, STREAM_RHO, False
            )
            for k in k_list:
                grid.append(rho_from_outcomes(cell[k], q_min, k, b, "PSNR"))
                theorem1.append(theorem1_from_outcomes(cell[k], q_min, k))
        rd_single, rd_multi = [], {k: [] for k in k_list}
        for q in range(1, codec.num_levels + 1):
            cell = _reference_cell(
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
