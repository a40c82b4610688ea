import dataclasses
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeclab.blockdct
import codeclab.codecs
from codeclab import (
    BlockDctCodec,
    ConfigError,
    EvalConfig,
    ImageBuffer,
    SourceVector,
    generate_uniform_source,
    make_codec,
    rd_points,
    run_protocol,
    serialize_pnm,
    sweep_levels,
    top_cell_inputs,
    verify_strong_idempotence,
)
import codeclab.protocol
import codeclab.chains
from codeclab.chains import (
    STREAM_RD,
    STREAM_RHO,
    derive_rng,
    distortion,
    sample_quality_sequence,
    theorem1_from_outcomes,
)
from codeclab.codecs import Codec, ScalarQuantizerCodec
from codeclab.protocol import IdempotenceSweep
from codeclab.ladders import quantize_array
from codeclab.report import emit_report
from codeclab.signals import Dataset


@pytest.fixture(scope="module")
def source_ds():
    return Dataset.from_source(generate_uniform_source(2000, 555))


def _nested_config(**overrides):
    doc = {
        "codec": "nested-scalar",
        "codec_options": {"levels": 3, "source_n": 2000},
        "k_list": [5, 10],
        "b": 4,
        "master_seed": 9,
    }
    doc.update(overrides)
    return EvalConfig.from_json(json.dumps(doc))


class TestEvalConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            EvalConfig.from_json('{"codec": "nested-scalar", "threads": 4}')

    def test_missing_codec(self):
        with pytest.raises(ConfigError, match="codec"):
            EvalConfig.from_json('{"b": 3}')

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            _nested_config(b=0)
        with pytest.raises(ConfigError):
            _nested_config(mode="sometimes")
        with pytest.raises(ConfigError):
            _nested_config(k_list=[])

    def test_not_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            EvalConfig.from_json("{nope")

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="b must be"):
            EvalConfig(codec="nested-scalar", b=0)

    def test_frozen(self):
        cfg = EvalConfig(codec="nested-scalar")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.b = 3


class TestRunProtocol:
    def test_grid_shape(self):
        rep = run_protocol(_nested_config())
        assert len(rep.grid) == 3 * 2  # all ladder levels x k_list
        cells = {(g.q_min, g.k) for g in rep.grid}
        assert cells == {(q, k) for q in (1, 2, 3) for k in (5, 10)}

    def test_nested_grid_all_zero(self):
        rep = run_protocol(_nested_config())
        assert all(g.mean == 0.0 for g in rep.grid)

    def test_rerun_byte_identical(self):
        a = emit_report(run_protocol(_nested_config()), "json")
        b = emit_report(run_protocol(_nested_config()), "json")
        assert a == b

    def test_q_min_outside_ladder(self):
        with pytest.raises(ConfigError, match="outside codec ladder"):
            run_protocol(_nested_config(q_min_list=[7]))

    def test_config_echo_complete(self):
        rep = run_protocol(_nested_config())
        for key in ("codec", "q_min_list", "k_list", "b", "mode", "distortion",
                    "master_seed", "decisions"):
            assert key in rep.config


@pytest.mark.parametrize("channels", [1, 3])
def test_grid_computes_no_rate(tmp_path, monkeypatch, channels):
    """Only the RD sweep reads rates: one entropy pass per plane of each of
    its single passes and of each chain longer than one stage, and none from
    the grid.  A forced-min k = 1 chain is the single pass and reads its rate."""
    rng = np.random.default_rng(channels)
    for i in range(2):
        img = ImageBuffer(24, 16, channels, rng.integers(0, 256, 24 * 16 * channels))
        (tmp_path / f"img{i}.pnm").write_bytes(serialize_pnm(img))
    entropy_bits = codeclab.blockdct._entropy_bits
    calls = []

    def counting(indices):
        calls.append(indices.shape)
        return entropy_bits(indices)

    monkeypatch.setattr(codeclab.blockdct, "_entropy_bits", counting)
    b, k_list = 2, [1, 3]
    run_protocol(EvalConfig.from_json(json.dumps({
        "codec": "block-dct", "dataset": str(tmp_path), "q_min_list": [1, 4, 8],
        "k_list": k_list, "b": b,
    })))
    levels, items = 8, 2
    assert len(calls) == levels * items * (1 + b * len([k for k in k_list if k > 1])) * channels


@pytest.mark.parametrize("codec_name", ["nested-scalar:4", "midpoint-scalar:4"])
def test_one_per_sample_quantisation_per_source(monkeypatch, codec_name):
    """A scalar report quantises each source item's samples once, to find
    their top-level cells; every stage quantises only a per-cell table."""
    quantize_array, sizes = codeclab.codecs.quantize_array, []

    def counting(xs, codewords):
        sizes.append(np.size(xs))
        return quantize_array(xs, codewords)

    monkeypatch.setattr(codeclab.codecs, "quantize_array", counting)
    n = 3000
    run_protocol(EvalConfig(codec=codec_name, codec_options={"source_n": n},
                            k_list=[1, 5, 10], b=3, master_seed=4))
    assert sizes.count(n) == 1
    assert len(sizes) > 90 and max(s for s in sizes if s != n) <= 8


class _Counting(Codec):
    """Forwards Codec.stage to a codec and logs (rate, item index or None, q)
    per call; the item index says the input is that dataset item itself.
    Any other codec call fails: encode is the base class's."""

    def __init__(self, inner, items):
        self.inner, self.items, self.calls = inner, items, []
        self.codec_id, self.signal_kind = inner.codec_id, inner.signal_kind

    @property
    def num_levels(self):
        return self.inner.num_levels

    def stage(self, x, q, rate=False):
        item = next((i for i, it in enumerate(self.items) if it is x), None)
        self.calls.append((rate, item, q))
        return self.inner.stage(x, q, rate)


@pytest.mark.parametrize("mode", ["forced-min", "literal"])
def test_one_single_pass_per_item_and_level(monkeypatch, mode):
    """One run_protocol runs each (item, q) single pass once, with its rate,
    and an item's passes seed every chain of that item at every level: a
    chain runs only its distinct (samples, q) stages that are not a pass of
    its item, asking for a rate at the last stage of an RD chain alone.
    Every call is Codec.stage.  Per (item, q_min), _mse runs once for the
    single pass, twice per grid chain, once per RD chain and never for a
    chain that is the single pass."""
    rng = np.random.default_rng(3)
    items = [ImageBuffer(16, 8, 1, rng.integers(0, 256, 128)) for _ in range(2)]
    ds = Dataset(items=items, item_names=["a", "b"])
    inner = make_codec("block-dct")
    codec = _Counting(inner, items)
    monkeypatch.setattr(codeclab.protocol, "make_codec", lambda *args: codec)
    monkeypatch.setattr(codeclab.protocol, "resolve_dataset", lambda *args: ds)
    # an _mse call belongs to the outcome built after it, so to its item and
    # to the q_min of the cell that sweep_levels returns it in
    mse, outcome, sweep = codeclab.chains._mse, codeclab.chains.PairOutcome, sweep_levels
    pending, mses_before, sweeps = [0], {}, []  # mses_before: id -> (outcome, _mse calls)

    def counting_mse(a, b):
        pending[0] += 1
        return mse(a, b)

    def counting_outcome(**fields):
        o = outcome(**fields)
        mses_before[id(o)], pending[0] = (o, pending[0]), 0
        return o

    def kept_sweep(*args):
        sweeps.append(sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(codeclab.chains, "_mse", counting_mse)
    monkeypatch.setattr(codeclab.chains, "PairOutcome", counting_outcome)
    monkeypatch.setattr(codeclab.protocol, "sweep_levels", kept_sweep)
    k_list, b, seed, q_min_list = [1, 3], 2, 7, [5, 2, 5]
    run_protocol(EvalConfig(codec="block-dct", q_min_list=q_min_list, k_list=k_list, b=b,
                            mode=mode, master_seed=seed))
    levels = codec.num_levels
    passes = {(i, q): 1 for i in range(len(items)) for q in range(1, levels + 1)}
    mses = dict(passes)  # the single pass's d(x, single)
    stages = {True: levels * len(items), False: 0}  # stage calls by rate
    for i, x in enumerate(items):
        known = {(_key(x), q): True for q in range(1, levels + 1)}
        for q_min in range(1, levels + 1):
            streams = (STREAM_RHO, STREAM_RD) if q_min in q_min_list else (STREAM_RD,)
            for stream, k, t in itertools.product(streams, k_list, range(b)):
                rates = stream == STREAM_RD
                chain = sample_quality_sequence(
                    q_min, levels, k, mode, derive_rng(seed, stream, q_min, k, i, t))
                if chain != (q_min,):
                    mses[i, q_min] += 1 if rates else 2
                runs, rated = _distinct_stages(inner, x, chain, known, rates)
                stages[True] += rated
                stages[False] += runs - rated
    seen = {key: 0 for key in passes}
    for _, item, q in codec.calls:
        if item is not None:
            seen[item, q] += 1
    assert seen == passes
    rates = [rate for rate, _, _ in codec.calls]
    assert {rate: rates.count(rate) for rate in stages} == stages
    [(grid_cells, rd_cells)] = sweeps
    mse_calls = dict.fromkeys(mses, 0)
    for q_min, by_k in [*grid_cells.items(), *rd_cells.items()]:
        for o in itertools.chain(*by_k.values()):
            mse_calls[o.item, q_min] += mses_before.pop(id(o))[1]
    assert not mses_before and pending == [0]
    assert mse_calls == mses


def test_sweep_holds_one_item_at_a_time():
    """When an item's first single pass runs, no stage output derived from
    an earlier item is still alive: the sweep keeps one item's passes."""
    rng = np.random.default_rng(8)
    items = [ImageBuffer(24, 16, 1, rng.integers(0, 256, 384)) for _ in range(3)]
    ds = Dataset(items=items, item_names=["a", "b", "c"])
    outputs = {}  # item -> weak references to the stage outputs derived from it

    class Tracking(_Counting):
        def stage(self, x, q, rate=False):
            item = next((i for i, it in enumerate(self.items) if it is x), None)
            if item is not None and item not in outputs:
                alive = [j for j, refs in outputs.items() if any(r() for r in refs)]
                assert alive == [], f"item {item}'s first pass ran with {alive} alive"
                outputs[item] = []
            y, bits = super().stage(x, q, rate)
            outputs[max(outputs)].append(weakref.ref(y))
            return y, bits

    codec = Tracking(make_codec("block-dct"), items)
    sweep_levels(ds, codec, [1, 4], True, [1, 3], 2, "literal", 5)
    assert sorted(outputs) == [0, 1, 2]
    assert all(len(refs) > codec.num_levels for refs in outputs.values())


def test_item_fingerprinted_once_per_report(monkeypatch):
    """Each item's fingerprint is taken once per report, with its single
    passes, however many chains they seed."""
    rng = np.random.default_rng(9)
    items = [ImageBuffer(16, 16, 1, rng.integers(0, 256, 256)) for _ in range(2)]
    ds = Dataset(items=items, item_names=["a", "b"])
    monkeypatch.setattr(codeclab.protocol, "resolve_dataset", lambda *args: ds)
    fingerprint, taken = codeclab.chains._fingerprint, []

    def counting(a):
        taken.extend(i for i, it in enumerate(items) if it is a)
        return fingerprint(a)

    monkeypatch.setattr(codeclab.chains, "_fingerprint", counting)
    run_protocol(EvalConfig(codec="block-dct", k_list=[2, 5], b=3, mode="literal"))
    assert taken == [0, 1]


def test_fingerprints_at_most_one_per_stage_and_item(monkeypatch):
    """A sweep takes at most one fingerprint per item and one per stage it
    runs: each signal is fingerprinted once, when it is made, and a
    chain's last stage not at all."""
    rng = np.random.default_rng(3)
    items = [ImageBuffer(16, 16, 1, rng.integers(0, 256, 256)) for _ in range(2)]
    ds = Dataset(items=items, item_names=["a", "b"])
    codec = make_codec("block-dct")
    fingerprint, stage_many, taken, stages = codeclab.chains._fingerprint, codec.stage_many, [], []

    def counting(a):
        taken.append(a)
        return fingerprint(a)

    def counting_stages(xs, qs, rates):
        stages.extend(xs)
        return stage_many(xs, qs, rates)

    monkeypatch.setattr(codeclab.chains, "_fingerprint", counting)
    monkeypatch.setattr(codec, "stage_many", counting_stages)
    sweep_levels(ds, codec, [2, 5], True, [20], 2, "forced-min", 3)
    assert stages and len(taken) <= len(stages) + len(items)


@pytest.mark.parametrize("case", ["dct-rgb", "dct-gray", "nested-scalar", "midpoint-scalar"])
def test_protocol_builds_no_payload(tmp_path, monkeypatch, case):
    """run_protocol calls no codec method but Codec.stage: with encode,
    decode and reconstruct raising, each report emits the same bytes."""
    doc = {"codec": case, "codec_options": {"levels": 3, "source_n": 500},
           "k_list": [1, 3], "b": 2, "master_seed": 4}
    if case.startswith("dct"):
        width, height, channels = (21, 13, 3) if case == "dct-rgb" else (24, 16, 1)
        samples = np.random.default_rng(6).integers(0, 256, width * height * channels)
        img = ImageBuffer(width, height, channels, samples.astype(np.uint8))
        (tmp_path / "img.pnm").write_bytes(serialize_pnm(img))
        doc.update(codec="block-dct", codec_options={}, dataset=str(tmp_path))
    cfg = EvalConfig.from_json(json.dumps(doc))

    def reports():
        rep = run_protocol(cfg)
        return emit_report(rep, "json"), emit_report(rep, "csv")

    expected = reports()

    def no_payload(*args):
        raise AssertionError("the protocol built or parsed a payload")

    monkeypatch.setattr(Codec, "reconstruct", no_payload)
    for cls in (ScalarQuantizerCodec, BlockDctCodec):
        monkeypatch.setattr(cls, "encode", no_payload)
        monkeypatch.setattr(cls, "decode", no_payload)
    assert reports() == expected


@pytest.mark.parametrize("case, expected", [
    ("block-dct", (701, 206, 24)),
    ("midpoint-scalar:4", (93, 93, 0)),
], ids=["block-dct", "midpoint-scalar"])
def test_work_per_report(tmp_path, monkeypatch, gray_images, case, expected):
    """The stages, Codec.stage_many calls and block-DCT entropy codings that
    one seeded report runs: a 64x64 crop of a test image through block-dct,
    and a synthetic source through a midpoint ladder.  The block-DCT item's
    eight single passes take it as input in two rated calls of four."""
    stages, calls, entropy = [], [], []
    dct = case == "block-dct"
    cls = BlockDctCodec if dct else Codec
    stage_many, entropy_bits = cls.stage_many, codeclab.blockdct._entropy_bits

    def counting_stages(self, xs, qs, rates):
        stages.extend(xs)
        calls.append((xs, qs, rates))
        return stage_many(self, xs, qs, rates)

    def counting_entropy(blocks):
        entropy.append(blocks.shape)
        return entropy_bits(blocks)

    monkeypatch.setattr(cls, "stage_many", counting_stages)
    monkeypatch.setattr(codeclab.blockdct, "_entropy_bits", counting_entropy)
    if dct:
        crop = ImageBuffer(64, 64, 1, gray_images[0].samples.reshape(128, 192)[:64, :64])
        (tmp_path / "a.pgm").write_bytes(serialize_pnm(crop))
        cfg = EvalConfig(codec=case, dataset=str(tmp_path), q_min_list=[2, 5], k_list=[50],
                         b=2, master_seed=1)
    else:
        cfg = EvalConfig(codec=case, codec_options={"source_n": 500}, q_min_list=[2, 3],
                         k_list=[3, 10], b=2, master_seed=1)
    run_protocol(cfg)
    assert (len(stages), len(calls), len(entropy)) == expected
    if dct:
        item = stages[0]  # the first single pass's input
        passes = [call for call in calls if any(x is item for x in call[0])]
        assert len(passes) == math.ceil(8 / 4) == 2
        assert all(x is item for xs, _, _ in passes for x in xs)
        assert sorted(q for _, qs, _ in passes for q in qs) == list(range(1, 9))
        assert all(all(rates) for _, _, rates in passes)


def _theorem1(ds, codec, q_min, k, b):
    grid_cells, _ = sweep_levels(ds, codec, [q_min], False, [k], b)
    return theorem1_from_outcomes(grid_cells[q_min][k], q_min, k)


class TestTheorem1:
    def test_nested_equality(self, source_ds):
        codec = make_codec("nested-scalar:3")
        rec = _theorem1(source_ds, codec, 2, 10, 5)
        assert rec.mean_chain == rec.mean_single
        assert rec.satisfied

    def test_k1_forced_min_identical(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        rec = _theorem1(source_ds, codec, 1, 1, 5)
        assert rec.mean_chain == rec.mean_single
        assert rec.satisfied

    def test_dct_lowest_quality(self, image_dataset, dct_codec):
        rec = _theorem1(image_dataset, dct_codec, 1, 10, 10)
        assert rec.satisfied


def _rd_curves(ds, codec, k_list, b):
    """rd_points of a sweep with no grid level, as rd-curve does."""
    return rd_points(sweep_levels(ds, codec, [], True, k_list, b)[1])


class TestRdCurves:
    def test_nested_multi_matches_single_distortion(self, source_ds):
        codec = make_codec("nested-scalar:3")
        rd_single, rd_multi = _rd_curves(source_ds, codec, k_list=[10], b=5)
        # per-chain equality is exact (see test_chains); the aggregate mean
        # re-sums identical values, so allow last-ulp float noise here
        for s, m in zip(rd_single, rd_multi[10]):
            assert m.mean_psnr == pytest.approx(s.mean_psnr, rel=1e-12)
            assert m.mean_mse == pytest.approx(s.mean_mse, rel=1e-12)

    def test_nested_psnr_increases_with_level(self, source_ds):
        rd_single, _ = _rd_curves(source_ds, make_codec("nested-scalar:3"), [5], 3)
        psnrs = [p.mean_psnr for p in rd_single]
        assert all(a < b for a, b in zip(psnrs, psnrs[1:]))

    def test_k1_forced_min_collapses_for_any_codec(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        rd_single, rd_multi = _rd_curves(source_ds, codec, k_list=[1], b=4)
        for s, m in zip(rd_single, rd_multi[1]):
            assert (m.mean_bpp, m.mean_psnr, m.mean_mse) == (
                s.mean_bpp, s.mean_psnr, s.mean_mse,
            )


def _key(a):
    """A signal's samples as bytes."""
    return (a.samples if isinstance(a, ImageBuffer) else a.values).tobytes()


def _distinct_stages(codec, x, levels, known, rate=False):
    """(stages, rated stages) a chain must run: replay it with a plain
    Codec.stage loop.  A stage runs when neither known, {(samples, q):
    rated}, nor an earlier stage of the chain holds its (samples, q); and
    when it is the last, rate is true and only an unrated one does."""
    seen, y = dict(known), x
    runs = rated_runs = 0
    for n, q in enumerate(levels, start=1):
        key, rated = (_key(y), q), rate and n == len(levels)
        if key not in seen or (rated and not seen[key]):
            runs += 1
            rated_runs += rated
            seen[key] = seen.get(key, False) or rated
        y, _ = codec.stage(y, q)
    return runs, rated_runs


def _plain_sweep(codec, inputs, max_len):
    """verify_strong_idempotence as a plain loop: a Codec.stage chain per
    sequence of itertools.product, a sequential sum and a strict > worst."""
    levels = range(1, codec.num_levels + 1)
    max_mse, sum_mse, count, worst = 0.0, 0.0, 0, None
    for x in inputs:
        singles = {q: codec.stage(x, q)[0] for q in levels}
        for length in range(1, max_len + 1):
            for sequence in itertools.product(levels, repeat=length):
                y = x
                for q in sequence:
                    y, _ = codec.stage(y, q)
                dev = distortion(singles[min(sequence)], y)
                sum_mse += dev
                count += 1
                if dev > max_mse:
                    max_mse, worst = dev, sequence
    return IdempotenceSweep(count, max_mse, sum_mse / count, math.sqrt(max_mse), worst)


class TestVerifySweep:
    def test_no_rate_and_first_stage_shared(self):
        """The sweep reads no rate, runs one stage per sequence, and runs
        each input's three single passes first, on the input itself."""
        inputs = [SourceVector(np.linspace(0, 1, 201)), SourceVector(np.linspace(0.2, 0.4, 50))]
        inner = make_codec("midpoint-scalar:3")
        codec = _Counting(inner, inputs)
        sweep = verify_strong_idempotence(codec, inputs, 3)
        assert sweep == verify_strong_idempotence(make_codec("midpoint-scalar:3"), inputs, 3)
        rates = [rate for rate, _, _ in codec.calls]
        assert rates.count(True) == 0
        assert rates.count(False) == len(inputs) * (3 + 9 + 27)
        singles = [(item, q) for _, item, q in codec.calls if item is not None]
        assert singles == [(i, q) for i in range(len(inputs)) for q in (1, 2, 3)]

    @pytest.mark.parametrize("case", ["nested-scalar:8", "block-dct"])
    def test_one_stage_per_trie_node(self, monkeypatch, case):
        """Each sequence is one unrated stage from its prefix's output, and
        a node's children go through one stage_many call: with 8 levels and
        max_len 3, 8 + 64 + 512 stages in 1 + 8 + 64 calls per input.  No
        stage runs outside stage_many, and no signal is fingerprinted."""
        codec = make_codec(case)
        if case == "block-dct":
            rng = np.random.default_rng(29)
            inputs = [ImageBuffer(16, 16, 1, rng.integers(0, 256, 256, dtype=np.uint8)),
                      ImageBuffer(13, 9, 3, rng.integers(0, 256, 13 * 9 * 3, dtype=np.uint8))]
        else:
            inputs = top_cell_inputs(codec)
        calls, alone, fingerprints, inside = [], [], [], []
        stage_many, stage, fingerprint = codec.stage_many, codec.stage, codeclab.chains._fingerprint

        def counting_many(xs, qs, rates):
            calls.append(list(rates))
            inside.append(True)
            try:
                return stage_many(xs, qs, rates)
            finally:
                inside.pop()

        def counting_stage(x, q, rate=False):
            if not inside:
                alone.append((q, rate))
            return stage(x, q, rate)

        monkeypatch.setattr(codec, "stage_many", counting_many)
        monkeypatch.setattr(codec, "stage", counting_stage)
        monkeypatch.setattr(codeclab.chains, "_fingerprint",
                            lambda a: fingerprints.append(a) or fingerprint(a))
        sweep = verify_strong_idempotence(codec, inputs, 3)
        assert sweep.sequences_checked == len(inputs) * 584
        assert sum(map(len, calls)) == len(inputs) * 584
        assert len(calls) == len(inputs) * 73
        assert not any(itertools.chain(*calls))
        assert alone == [] and fingerprints == []

    @given(data=st.data(), kind=st.sampled_from(["midpoint", "nested", "block-dct"]),
           levels=st.integers(1, 5), max_len=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_equals_plain_stage_loop(self, data, kind, levels, max_len):
        """The trie walk gives the sweep, bit for bit, that a plain stage
        loop over itertools.product gives; block-DCT sweeps a gray and an
        RGB image of odd sides, up to length 3 (1,672 plain stages each)."""
        codec = make_codec(kind if kind == "block-dct" else f"{kind}-scalar:{levels}")
        if kind == "block-dct":
            max_len = min(max_len, 3)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            inputs = [ImageBuffer(11, 7, 1, rng.integers(0, 256, 11 * 7, dtype=np.uint8)),
                      ImageBuffer(9, 5, 3, rng.integers(0, 256, 9 * 5 * 3, dtype=np.uint8))]
        elif data.draw(st.booleans()):
            inputs = top_cell_inputs(codec)
        else:
            vector = st.lists(st.floats(0, 1), min_size=1, max_size=50)
            inputs = [SourceVector(np.array(v))
                      for v in data.draw(st.lists(vector, min_size=1, max_size=2))]
        assert verify_strong_idempotence(codec, inputs, max_len) == _plain_sweep(
            codec, inputs, max_len)

    def test_first_worst_across_lengths(self):
        """Of equal deviations, the shorter sequence's is the worst: on
        midpoint-scalar:4, (1, 2, 3, 4) deviates as much as (1, 1, 2, 3, 4)."""
        codec = make_codec("midpoint-scalar:4")
        inputs = top_cell_inputs(codec)
        sweep = verify_strong_idempotence(codec, inputs, 5)
        assert sweep == _plain_sweep(codec, inputs, 5)
        assert sweep.worst_sequence == (1, 2, 3, 4)

    def test_nested_zero(self):
        codec = make_codec("nested-scalar:3")
        inputs = [SourceVector(np.linspace(0, 1, 2001))]
        sweep = verify_strong_idempotence(codec, inputs, 4)
        assert sweep.sequences_checked == 120
        assert sweep.max_mse == 0.0

    def test_midpoint_nonzero(self):
        codec = make_codec("midpoint-scalar:3")
        inputs = [SourceVector(np.linspace(0, 1, 2001))]
        sweep = verify_strong_idempotence(codec, inputs, 4)
        assert sweep.max_mse >= 1 / 64

    def test_max_len_1_always_zero(self, source_ds, image_dataset, dct_codec):
        for codec, inputs in (
            (make_codec("midpoint-scalar:3"), source_ds.items),
            (dct_codec, [image_dataset.items[0]]),
        ):
            sweep = verify_strong_idempotence(codec, inputs, 1)
            assert sweep.max_mse == 0.0

    @pytest.mark.parametrize("codec_id", ["midpoint-scalar:3", "midpoint-scalar:4",
                                          "nested-scalar:3", "nested-scalar:4"])
    def test_top_cells_stand_for_their_cells(self, codec_id):
        """verify's one input per top cell sweeps as 64 interior points of
        every cell do."""
        codec = make_codec(codec_id)
        (top,) = top_cell_inputs(codec)
        n = len(top)
        offsets = (np.arange(64) + 0.5) / 64
        interior = SourceVector(((np.arange(n)[:, None] + offsets) / n).ravel())
        cells = verify_strong_idempotence(codec, [top], 3)
        dense = verify_strong_idempotence(codec, [interior], 3)
        q = codec.num_levels
        assert cells.sequences_checked == dense.sequences_checked == q + q**2 + q**3
        if codec.claims_strong_idempotence:
            assert cells.max_mse == dense.max_mse == cells.mean_mse == dense.mean_mse == 0.0
        else:
            assert cells.max_mse > 0
            assert cells.max_mse == pytest.approx(dense.max_mse, rel=1e-12)
            assert cells.mean_mse == pytest.approx(dense.mean_mse, rel=1e-12)

    @pytest.mark.parametrize("codec_id", ["midpoint-scalar:1", "midpoint-scalar:5",
                                          "nested-scalar:1", "nested-scalar:4",
                                          "nested-scalar:8"])
    def test_top_cell_inputs_are_each_lower_edge_once(self, codec_id):
        """top_cell_inputs holds each top-level cell's lower edge once, in
        order: on a grid 16 times finer than the cells, the least point that
        the top level quantises to each codeword."""
        codec = make_codec(codec_id)
        codewords = codec.ladder.level(codec.num_levels)
        fine = np.arange(16 * len(codewords)) / (16 * len(codewords))
        idx, _ = quantize_array(fine, codewords)
        (top,) = top_cell_inputs(codec)
        assert top.values.tolist() == [fine[idx == c].min() for c in range(len(codewords))]

    def test_enumeration_guard(self):
        codec = make_codec("midpoint-scalar:3")
        with pytest.raises(ValueError, match="guard"):
            verify_strong_idempotence(codec, [], 20)

    def test_no_inputs_refused(self):
        """No inputs is refused, not divided by a count of 0 sequences."""
        with pytest.raises(ValueError, match="inputs must be non-empty"):
            verify_strong_idempotence(make_codec("midpoint-scalar:3"), [], 2)


def test_make_codec_ids():
    assert make_codec("nested-scalar:4").num_levels == 4
    assert make_codec("midpoint-scalar", {"levels": 2}).num_levels == 2
    assert make_codec("block-dct").num_levels == 8
    with pytest.raises(ValueError):
        make_codec("wavelet")
    with pytest.raises(ValueError):
        make_codec("block-dct", {"gamma": 1})
    with pytest.raises(ValueError):
        make_codec("external")


@pytest.mark.parametrize("codec_id,options", [
    ("midpoint-scalar", {"levels": 2.7}),
    ("nested-scalar", {"levels": True}),
    ("midpoint-scalar", {"levels": float("inf")}),
    ("midpoint-scalar", {"levels": "3"}),
    ("midpoint-scalar", {"levels": 17}),
    ("midpoint-scalar:+2", None),
    ("nested-scalar", {"source_n": 50.9}),
    ("nested-scalar", {"source_n": "40"}),
    ("nested-scalar", {"source_n": 0}),
    ("block-dct", {"native_qualities": 7}),
    ("block-dct", {"native_qualities": [5.5, 20]}),
    ("external", {"spec": 5}),
    ("external", {"spec_path": 5}),
    ("block-dct:5", None),
    ("nested-scalar:", None),
    ("midpoint-scalar:", None),
    ("block-dct:", None),
    ("external:", None),
    ("nested-scalar:9", None),
])
def test_make_codec_rejects_bad_option_values(codec_id, options):
    with pytest.raises(ValueError):
        make_codec(codec_id, options)
