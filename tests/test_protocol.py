import dataclasses
import json

import numpy as np
import pytest

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
    run_protocol,
    serialize_pnm,
    sweep_levels,
    verify_strong_idempotence,
)
import codeclab.protocol
import codeclab.chains
from codeclab.chains import (
    STREAM_RD,
    STREAM_RHO,
    derive_rng,
    evaluate_cell,
    sample_quality_sequence,
    theorem1_from_outcomes,
)
from codeclab.cli import _top_cell_inputs
from codeclab.codecs import Codec, ScalarQuantizerCodec
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
    """One run_protocol runs each (item, q) single pass once, shared by the
    grid and the RD sweep, and each chain runs k - (levels[0] == q_min)
    stages: a chain that starts at q_min continues from the single pass.
    Every call is Codec.stage, asking for a rate at single passes and at the
    last stage of each RD chain alone.  Per (item, q), _mse runs once for
    the single pass, twice per grid chain, once per RD chain and never for
    a chain that is the single pass."""
    rng = np.random.default_rng(3)
    items = [ImageBuffer(16, 8, 1, rng.integers(0, 256, 128)) for _ in range(2)]
    ds = Dataset(items=items, item_names=["a", "b"])
    codec = _Counting(make_codec("block-dct"), items)
    monkeypatch.setattr(codeclab.protocol, "make_codec", lambda *args: codec)
    monkeypatch.setattr(codeclab.protocol, "resolve_dataset", lambda *args: ds)
    # an _mse call belongs to the cell's q_min and to the item last staged
    cell_q, mse_calls = [], []
    evaluate_cell_, mse = codeclab.protocol.evaluate_cell, codeclab.chains._mse

    def counting_cell(ds, codec, q_min, *args):
        cell_q.append(q_min)
        return evaluate_cell_(ds, codec, q_min, *args)

    def counting_mse(a, b):
        item = next(it for _, it, _ in reversed(codec.calls) if it is not None)
        mse_calls.append((item, cell_q[-1]))
        return mse(a, b)

    monkeypatch.setattr(codeclab.protocol, "evaluate_cell", counting_cell)
    monkeypatch.setattr(codeclab.chains, "_mse", counting_mse)
    k_list, b, seed, q_min_list = [1, 3], 2, 7, [5, 2, 5]
    run_protocol(EvalConfig(codec="block-dct", q_min_list=q_min_list, k_list=k_list, b=b,
                            mode=mode, master_seed=seed))
    levels = codec.num_levels
    on_item = {(i, q): 1 for i in range(len(items)) for q in range(1, levels + 1)}
    mses = dict(on_item)  # the single pass's d(x, single)
    stages = {True: levels * len(items), False: 0}  # stage calls by rate
    for q_min in range(1, levels + 1):
        streams = (STREAM_RHO, STREAM_RD) if q_min in q_min_list else (STREAM_RD,)
        for stream in streams:
            rates = stream == STREAM_RD
            for k in k_list:
                for i in range(len(items)):
                    for t in range(b):
                        chain = sample_quality_sequence(
                            q_min, levels, k, mode, derive_rng(seed, stream, q_min, k, i, t))
                        if chain[0] != q_min:
                            on_item[i, chain[0]] += 1
                        if chain != (q_min,):
                            mses[i, q_min] += 1 if rates else 2
                        runs = k - (chain[0] == q_min)
                        rated = rates and runs > 0  # the last stage gives the rate
                        stages[True] += rated
                        stages[False] += runs - rated
    seen = {key: 0 for key in on_item}
    for _, item, q in codec.calls:
        if item is not None:
            seen[item, q] += 1
    assert seen == on_item
    rates = [rate for rate, _, _ in codec.calls]
    assert {rate: rates.count(rate) for rate in stages} == stages
    assert {key: mse_calls.count(key) for key in mses} == mses
    assert len(mse_calls) == sum(mses.values())


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


def _theorem1(ds, codec, q_min, k, b):
    return theorem1_from_outcomes(evaluate_cell(ds, codec, q_min, [k], b)[STREAM_RHO][k], q_min, k)


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


class TestRdCurves:
    def test_nested_multi_matches_single_distortion(self, source_ds):
        codec = make_codec("nested-scalar:3")
        rd_single, rd_multi, _ = sweep_levels(source_ds, codec, k_list=[10], b=5)
        # per-chain equality is exact (see test_chains); the aggregate mean
        # re-sums identical values, so allow last-ulp float noise here
        for s, m in zip(rd_single, rd_multi[10]):
            assert m.mean_psnr == pytest.approx(s.mean_psnr, rel=1e-12)
            assert m.mean_mse == pytest.approx(s.mean_mse, rel=1e-12)

    def test_nested_psnr_increases_with_level(self, source_ds):
        rd_single, _, _ = sweep_levels(source_ds, make_codec("nested-scalar:3"), [5], 3)
        psnrs = [p.mean_psnr for p in rd_single]
        assert all(a < b for a, b in zip(psnrs, psnrs[1:]))

    def test_k1_forced_min_collapses_for_any_codec(self, source_ds):
        codec = make_codec("midpoint-scalar:3")
        rd_single, rd_multi, _ = sweep_levels(source_ds, codec, k_list=[1], b=4)
        for s, m in zip(rd_single, rd_multi[1]):
            assert (m.mean_bpp, m.mean_psnr, m.mean_mse) == (
                s.mean_bpp, s.mean_psnr, s.mean_mse,
            )


class TestVerifySweep:
    def test_no_rate_and_first_stage_shared(self):
        """The sweep reads no rate, and each sequence continues from the
        single pass at its first level: one stage fewer per sequence."""
        inputs = [SourceVector(np.linspace(0, 1, 201)), SourceVector(np.linspace(0.2, 0.4, 50))]
        codec = _Counting(make_codec("midpoint-scalar:3"), inputs)
        sweep = verify_strong_idempotence(codec, inputs, 3)
        assert sweep == verify_strong_idempotence(make_codec("midpoint-scalar:3"), inputs, 3)
        rates = [rate for rate, _, _ in codec.calls]
        assert rates.count(True) == 0
        per_input = 3 + sum(3**length * (length - 1) for length in (1, 2, 3))
        assert rates.count(False) == len(inputs) * per_input
        singles = [(item, q) for _, item, q in codec.calls if item is not None]
        assert singles == [(i, q) for i in range(len(inputs)) for q in (1, 2, 3)]

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
        (top,) = _top_cell_inputs(codec)
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

    def test_enumeration_guard(self):
        codec = make_codec("midpoint-scalar:3")
        with pytest.raises(ValueError, match="guard"):
            verify_strong_idempotence(codec, [], 20)


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
