import json

import numpy as np
import pytest

from codeclab import (
    ConfigError,
    EvalConfig,
    SourceVector,
    compute_rd_curves,
    generate_uniform_source,
    make_codec,
    midpoint_scalar_codec,
    nested_scalar_codec,
    run_protocol,
    verify_strong_idempotence,
)
from codeclab.chains import evaluate_cell
from codeclab.protocol import theorem1_from_outcomes
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


def _theorem1(ds, codec, q_min, k, b):
    return theorem1_from_outcomes(evaluate_cell(ds, codec, q_min, [k], b)[k], q_min, k)


class TestTheorem1:
    def test_nested_equality(self, source_ds):
        codec = nested_scalar_codec(3)
        rec = _theorem1(source_ds, codec, 2, 10, 5)
        assert rec.mean_chain == rec.mean_single
        assert rec.satisfied

    def test_k1_forced_min_identical(self, source_ds):
        codec = midpoint_scalar_codec(3)
        rec = _theorem1(source_ds, codec, 1, 1, 5)
        assert rec.mean_chain == rec.mean_single
        assert rec.satisfied

    def test_dct_lowest_quality(self, image_dataset, dct_codec):
        rec = _theorem1(image_dataset, dct_codec, 1, 10, 10)
        assert rec.satisfied


class TestRdCurves:
    def test_nested_multi_matches_single_distortion(self, source_ds):
        codec = nested_scalar_codec(3)
        rd_single, rd_multi = compute_rd_curves(source_ds, codec, k_list=[10], b=5)
        # per-chain equality is exact (see test_chains); the aggregate mean
        # re-sums identical values, so allow last-ulp float noise here
        for s, m in zip(rd_single, rd_multi[10]):
            assert m.mean_psnr == pytest.approx(s.mean_psnr, rel=1e-12)
            assert m.mean_mse == pytest.approx(s.mean_mse, rel=1e-12)

    def test_nested_psnr_increases_with_level(self, source_ds):
        rd_single, _ = compute_rd_curves(source_ds, nested_scalar_codec(3), [5], 3)
        psnrs = [p.mean_psnr for p in rd_single]
        assert all(a < b for a, b in zip(psnrs, psnrs[1:]))

    def test_k1_forced_min_collapses_for_any_codec(self, source_ds):
        codec = midpoint_scalar_codec(3)
        rd_single, rd_multi = compute_rd_curves(source_ds, codec, k_list=[1], b=4)
        for s, m in zip(rd_single, rd_multi[1]):
            assert (m.mean_bpp, m.mean_psnr, m.mean_mse) == (
                s.mean_bpp, s.mean_psnr, s.mean_mse,
            )


class TestVerifySweep:
    def test_nested_zero(self):
        codec = nested_scalar_codec(3)
        inputs = [SourceVector(np.linspace(0, 1, 2001))]
        sweep = verify_strong_idempotence(codec, inputs, 4)
        assert sweep.sequences_checked == 120
        assert sweep.max_mse == 0.0

    def test_midpoint_nonzero(self):
        codec = midpoint_scalar_codec(3)
        inputs = [SourceVector(np.linspace(0, 1, 2001))]
        sweep = verify_strong_idempotence(codec, inputs, 4)
        assert sweep.max_mse >= 1 / 64

    def test_max_len_1_always_zero(self, source_ds, image_dataset, dct_codec):
        for codec, inputs in (
            (midpoint_scalar_codec(3), source_ds.items),
            (dct_codec, [image_dataset.items[0]]),
        ):
            sweep = verify_strong_idempotence(codec, inputs, 1)
            assert sweep.max_mse == 0.0

    def test_enumeration_guard(self):
        codec = midpoint_scalar_codec(3)
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
])
def test_make_codec_rejects_bad_option_values(codec_id, options):
    with pytest.raises(ValueError):
        make_codec(codec_id, options)
