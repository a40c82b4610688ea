"""Acceptance gate: one test (and one printed verdict line) per criterion."""
import json
import math
import shutil
import time

import numpy as np
import pytest

from codeclab import (
    EvalConfig,
    ExternalCodecSpec,
    ExternalCodec,
    SourceVector,
    compress_chain,
    compute_rd_curves,
    distortion,
    generate_uniform_source,
    midpoint_scalar_codec,
    nested_scalar_codec,
    run_protocol,
    verify_strong_idempotence,
)
from codeclab.chains import evaluate_cell, rho_from_outcomes
from codeclab.cli import main
from codeclab.protocol import theorem1_from_outcomes
from codeclab.signals import Dataset


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def grid_source():
    return [SourceVector(np.linspace(0.0, 1.0, 10_000))]


@pytest.fixture(scope="module")
def dct_cells(image_dataset, dct_codec):
    """Per-pair outcomes for every (q_min, k) cell used by criteria 4-6."""
    cells = {}
    for q_min in range(1, 9):
        per_k = evaluate_cell(
            image_dataset, dct_codec, q_min, [10, 50], b=10, mode="forced-min",
            master_seed=2024,
        )
        for k, outcomes in per_k.items():
            cells[(q_min, k)] = outcomes
    return cells


def test_criterion_1_exhaustive_strong_idempotence(grid_source):
    start = time.monotonic()
    sweep = verify_strong_idempotence(nested_scalar_codec(3), grid_source, max_len=4)
    elapsed = time.monotonic() - start
    ok = sweep.sequences_checked == 120 and sweep.max_mse == 0.0 and elapsed < 60
    _verdict(1, ok, f"nested codec max deviation {sweep.max_mse!r} over "
                    f"{sweep.sequences_checked} sequences in {elapsed:.1f}s")


def test_criterion_2_midpoint_witness(grid_source):
    codec = midpoint_scalar_codec(3)
    rhos = []
    for x in (grid_source[0], generate_uniform_source(5000, 77)):
        single, _ = codec.reconstruct(x, 1)
        y, _ = compress_chain(x, (1, 3), codec)
        rhos.append(distortion(single, y, "MSE"))
    sweep = verify_strong_idempotence(codec, grid_source, max_len=4)
    ok = all(r == 0.015625 for r in rhos) and sweep.max_mse > 0.0
    _verdict(2, ok, f"chain (1,3) rho {rhos} (want exactly 1/64), "
                    f"sweep max deviation {sweep.max_mse!r}")


def test_criterion_3_metric_zero_property():
    cfg = EvalConfig.from_json(json.dumps({
        "codec": "nested-scalar",
        "codec_options": {"levels": 3, "source_n": 10_000},
        "k_list": [10, 50],
        "b": 10,
        "master_seed": 1,
    }))
    start = time.monotonic()
    rep = run_protocol(cfg)
    elapsed = time.monotonic() - start
    means = [g.mean for g in rep.grid]
    ok = all(m == 0.0 for m in means) and elapsed < 60
    _verdict(3, ok, f"nested forced-min grid means {sorted(set(means))} in {elapsed:.1f}s")


def test_criterion_4_theorem1_statistical(dct_cells):
    records = [
        theorem1_from_outcomes(dct_cells[(q, 10)], q, 10) for q in range(1, 9)
    ]
    ok = all(r.satisfied for r in records)
    worst = min(r.mean_chain - r.mean_single for r in records)
    _verdict(4, ok, f"block-DCT k=10: chain >= single - 3*SE at all 8 q_min "
                    f"(min margin {worst:.3f} MSE)")


def test_criterion_5_table1_growth_trend(dct_cells):
    ok = True
    detail = []
    for q in range(1, 9):
        r10 = rho_from_outcomes(dct_cells[(q, 10)], q, 10, 10)
        r50 = rho_from_outcomes(dct_cells[(q, 50)], q, 50, 10)
        slack = 3.0 * math.sqrt(r10.std_err**2 + r50.std_err**2)
        ok &= r50.mean >= r10.mean - slack
        detail.append(f"q{q}:{r10.mean:.1f}->{r50.mean:.1f}")
    _verdict(5, ok, "rho(q,50) >= rho(q,10) - 3*SE; " + " ".join(detail))


def test_criterion_6_rmse_triangle(dct_cells):
    checked = 0
    ok = True
    for outcomes in dct_cells.values():
        for o in outcomes:
            lhs = math.sqrt(o.mse_x_vs_chain)
            rhs = math.sqrt(o.mse_x_vs_single) + math.sqrt(o.mse_single_vs_chain)
            ok &= lhs <= rhs
            checked += 1
    _verdict(6, ok, f"RMSE triangle bound held on all {checked} (image, trial) pairs")


def test_criterion_7_bitrate_property():
    codec = nested_scalar_codec(3)
    x = generate_uniform_source(4000, 13)
    ds = Dataset.from_source(x)
    ok = True
    for q_min in (1, 2, 3):
        for o in evaluate_cell(ds, codec, q_min, [6], b=5, master_seed=3)[6]:
            y, _ = compress_chain(x, o.levels, codec)
            single, _ = codec.reconstruct(x, q_min)
            ok &= (
                codec.encode(y, q_min).payload
                == codec.encode(single, q_min).payload
            )
    _verdict(7, ok, "forced-min chain finals re-encode byte-identically at q_min")


def test_criterion_8_evaluate_determinism(tmp_path):
    cfg = {
        "codec": "nested-scalar",
        "codec_options": {"levels": 3, "source_n": 4000},
        "k_list": [10, 50],
        "b": 10,
        "master_seed": 99,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _verdict(8, ok, f"two evaluate runs produced byte-identical reports "
                    f"({len(outs[0])} bytes)")


def test_criterion_9_dct_sanity(image_dataset, dct_codec):
    per_level = []
    for q in range(1, 9):
        psnrs = [
            distortion(x, dct_codec.reconstruct(x, q)[0], "PSNR")
            for x in image_dataset.items
        ]
        per_level.append(float(np.mean(psnrs)))
    monotone = all(a < b for a, b in zip(per_level, per_level[1:]))
    ok = per_level[-1] >= 30.0 and monotone
    _verdict(9, ok, f"level-8 mean PSNR {per_level[-1]:.2f} dB, "
                    f"ladder PSNRs {[round(p, 2) for p in per_level]}")


def _jpeg_spec(tmp_path):
    """System cjpeg/djpeg if present, else a Pillow (libjpeg) wrapper."""
    qualities = [str(q) for q in (5, 15, 25, 35, 45, 55, 65, 75)]
    cjpeg, djpeg = shutil.which("cjpeg"), shutil.which("djpeg")
    if cjpeg and djpeg:
        return ExternalCodecSpec(
            encode_cmd=f"{cjpeg} -quality {{quality}} -outfile {{output}} {{input}}",
            decode_cmd=f"{djpeg} -pnm -outfile {{output}} {{input}}",
            quality_map=qualities,
        )
    try:
        import PIL.Image  # noqa: F401
    except ImportError:
        pytest.skip("no JPEG tools on host (cjpeg/djpeg or Pillow)")
    import sys

    enc = tmp_path / "jpeg_enc.py"
    enc.write_text(
        "import sys\nfrom PIL import Image\n"
        "Image.open(sys.argv[1]).save(sys.argv[2], 'JPEG', quality=int(sys.argv[3]))\n"
    )
    dec = tmp_path / "jpeg_dec.py"
    dec.write_text(
        "import sys\nfrom PIL import Image\n"
        "Image.open(sys.argv[1]).save(sys.argv[2], 'PPM')\n"
    )
    return ExternalCodecSpec(
        encode_cmd=f"{sys.executable} {enc} {{input}} {{output}} {{quality}}",
        decode_cmd=f"{sys.executable} {dec} {{input}} {{output}}",
        quality_map=qualities,
    )


def test_criterion_10_external_jpeg(image_dataset, tmp_path):
    spec = _jpeg_spec(tmp_path)
    codec = ExternalCodec(spec)
    ds = Dataset(
        items=image_dataset.items[:1],
        source_path=image_dataset.source_path,
        item_names=image_dataset.item_names[:1],
    )
    rd_single, rd_multi = compute_rd_curves(ds, codec, [5], b=2, master_seed=5)
    ok = all(m.mean_psnr <= s.mean_psnr for s, m in zip(rd_single, rd_multi[5]))
    _verdict(10, ok, "multi-round JPEG curve at or below single-pass in PSNR")
