import json

import numpy as np
import pytest

from codeclab import EvalConfig, ImageBuffer, run_protocol, serialize_pnm
from codeclab.cli import main
from codeclab.chains import RhoEstimate
from codeclab.protocol import EvalReport, RdPoint, Theorem1Record
from codeclab.report import emit_report, render_svg


@pytest.fixture(scope="module")
def scalar_report():
    cfg = EvalConfig.from_json(json.dumps({
        "codec": "midpoint-scalar",
        "codec_options": {"levels": 3, "source_n": 500},
        "k_list": [3, 5],
        "b": 3,
        "master_seed": 4,
    }))
    return run_protocol(cfg)


@pytest.fixture(scope="module")
def tiny_image_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tinyimgs")
    rng = np.random.default_rng(0)
    img = ImageBuffer(16, 16, 1, rng.integers(0, 256, 256, dtype=np.uint8))
    (d / "t.pgm").write_bytes(serialize_pnm(img))
    return d


class TestEmitReport:
    def test_purity(self, scalar_report):
        assert emit_report(scalar_report, "json") == emit_report(scalar_report, "json")
        assert emit_report(scalar_report, "csv") == emit_report(scalar_report, "csv")

    def test_csv_row_count_16_cells(self, tiny_image_dir):
        cfg = EvalConfig.from_json(json.dumps({
            "codec": "block-dct",
            "dataset": str(tiny_image_dir),
            "k_list": [2, 3],
            "b": 2,
        }))
        rep = run_protocol(cfg)
        lines = emit_report(rep, "csv").decode().splitlines()
        assert len(lines) == 17  # header + 8 q_min x 2 k
        assert lines[0] == "codec,q_min,k,b,mode,kind,mean,std_err"

    def test_json_roundtrip_exact(self, scalar_report):
        doc = json.loads(emit_report(scalar_report, "json"))
        for parsed, orig in zip(doc["grid"], scalar_report.grid):
            assert parsed["mean"] == orig.mean
            assert parsed["std_err"] == orig.std_err
        assert doc["config"]["master_seed"] == 4

    def test_json_schema_keys_and_inf_markers(self):
        inf = float("inf")
        rd = [RdPoint(1, 0.5, inf, 0.0), RdPoint(2, 1.0, 30.0, 2.0)]
        rep = EvalReport(
            config={"codec": "toy", "k_list": [2, 10]},
            grid=[RhoEstimate(1, 2, 3, "PSNR", inf, 0.0, 0.0, 3)],
            rd_single=rd,
            rd_multi={2: rd, 10: [RdPoint(1, 0.5, inf, 0.0)]},
            theorem1=[Theorem1Record(1, 2, 0.5, 0.75, 0.0, 0.125, True)],
            provenance={"tool": "codeclab"},
        )
        text = emit_report(rep, "json").decode()
        doc = json.loads(text)
        assert list(doc) == ["config", "grid", "provenance", "rd_multi", "rd_single", "theorem1"]
        assert list(doc["rd_multi"]) == ["10", "2"]
        assert text.index('"10"') < text.index('"2"')
        assert doc["grid"] == [{
            "q_min": 1, "k": 2, "b": 3, "distortion_kind": "PSNR", "mean": "inf",
            "sample_std": 0.0, "std_err": 0.0, "n_pairs": 3,
        }]
        rd_doc = [
            {"quality": 1, "mean_bpp": 0.5, "mean_psnr": "inf", "mean_mse": 0.0},
            {"quality": 2, "mean_bpp": 1.0, "mean_psnr": 30.0, "mean_mse": 2.0},
        ]
        assert doc["rd_single"] == rd_doc
        assert doc["rd_multi"] == {"2": rd_doc, "10": rd_doc[:1]}
        assert doc["theorem1"] == [{
            "q_min": 1, "k": 2, "mean_single": 0.5, "mean_chain": 0.75,
            "std_err_single": 0.0, "std_err_chain": 0.125, "satisfied": True,
        }]
        assert doc["config"] == {"codec": "toy", "k_list": [2, 10]}
        assert doc["provenance"] == {"tool": "codeclab"}

    def test_unknown_format(self, scalar_report):
        with pytest.raises(ValueError):
            emit_report(scalar_report, "xml")


class TestRenderSvg:
    def _points(self, vals):
        return [RdPoint(q, b, p, m) for q, b, p, m in vals]

    def test_deterministic(self):
        s = self._points([(1, 0.5, 20.0, 9.0), (2, 1.0, 30.0, 3.0)])
        m = self._points([(1, 0.5, 18.0, 12.0), (2, 1.0, 27.0, 5.0)])
        assert render_svg(s, m) == render_svg(s, m)

    def test_single_point_curves(self):
        s = self._points([(1, 1.0, 30.0, 1.0)])
        m = self._points([(1, 1.0, 28.0, 2.0)])
        out = render_svg(s, m)
        assert out.startswith(b"<svg") and out.rstrip().endswith(b"</svg>")
        assert out.count(b"<circle") == 2

    def test_infinite_points_dropped_with_note(self):
        s = self._points([(1, 0.5, float("inf"), 0.0), (2, 1.0, 30.0, 3.0)])
        m = self._points([(1, 0.5, 25.0, 4.0), (2, 1.0, 28.0, 5.0)])
        assert b"not shown" in render_svg(s, m)

    def test_empty_curve_rejected(self):
        s = self._points([(1, 0.5, float("inf"), 0.0)])
        with pytest.raises(ValueError):
            render_svg(s, s)


class TestCli:
    def test_toy_demo_nested(self, capsys):
        assert main(["toy-demo", "--levels", "3", "--ladder", "nested", "--n", "2001"]) == 0
        out = capsys.readouterr().out
        assert "strong idempotent" in out
        assert "0.125" in out

    def test_toy_demo_midpoint(self, capsys):
        assert main(["toy-demo", "--levels", "3", "--ladder", "midpoint", "--n", "2001"]) == 0
        assert "NOT strong idempotent" in capsys.readouterr().out

    def test_verify_nested(self, capsys):
        assert main(["verify", "--codec", "nested-scalar", "--max-len", "3",
                     "--grid", "1001"]) == 0

    def test_verify_rejects_image_codec(self):
        assert main(["verify", "--codec", "block-dct", "--max-len", "2"]) == 2

    @pytest.mark.parametrize("max_len", ["0", "-2"])
    def test_verify_max_len_below_one_exit_2(self, capsys, max_len):
        assert main(["verify", "--codec", "nested-scalar", "--max-len", max_len,
                     "--grid", "11"]) == 2
        assert "max_len must be >= 1" in capsys.readouterr().err

    def test_evaluate_roundtrip(self, tmp_path, capsys):
        cfg = {
            "codec": "nested-scalar",
            "codec_options": {"levels": 3, "source_n": 500},
            "k_list": [3],
            "b": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert all(cell["mean"] == 0.0 for cell in doc["grid"])

    def test_evaluate_csv(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "codec": "midpoint-scalar",
            "codec_options": {"source_n": 300},
            "k_list": [2], "b": 2,
        }))
        out_path = tmp_path / "report.csv"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out_path),
                     "--format", "csv"]) == 0
        assert out_path.read_text().startswith("codec,q_min,k,")

    def test_evaluate_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"codec": "nested-scalar", "bogus": 1}')
        assert main(["evaluate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("override", [
        {"b": "10"},
        {"k_list": [1.5]},
        {"q_min_list": [1.0]},
        {"master_seed": True},
        {"codec": 5},
        {"codec_options": [1]},
        {"dataset": 3},
        {"codec_options": {"levels": 2.7, "source_n": 50}},
    ])
    def test_evaluate_config_types_exit_2(self, tmp_path, capsys, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"codec": "nested-scalar", **override}))
        assert main(["evaluate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_evaluate_bad_external_spec_exit_2(self, tmp_path, capsys, tiny_image_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "codec": "external",
            "codec_options": {"spec": {
                "encode_cmd": 7, "decode_cmd": "cp {input} {output}", "quality_map": ["1"],
            }},
            "dataset": str(tiny_image_dir),
            "k_list": [1], "b": 1,
        }))
        assert main(["evaluate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "encode_cmd must be a string" in capsys.readouterr().err

    def test_check_theorem1_seed_seeds_source(self, capsys):
        means = []
        for seed in ("1", "99"):
            assert main(["check-theorem1", "--codec", "midpoint-scalar", "--qmin", "1",
                         "--k", "5", "--b", "3", "--seed", seed]) == 0
            out = capsys.readouterr().out
            means.append(next(ln for ln in out.splitlines() if "single-pass" in ln))
        assert means[0] != means[1]

    def test_rd_curve_svg(self, tmp_path):
        out = tmp_path / "rd.svg"
        assert main(["rd-curve", "--codec", "midpoint-scalar", "--k", "3",
                     "--b", "2", "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"<svg")

    def test_rd_curve_image_codec_needs_dataset(self, tmp_path):
        assert main(["rd-curve", "--codec", "block-dct", "--k", "2", "--b", "1",
                     "--out", str(tmp_path / "x.svg")]) == 2

    def test_check_theorem1(self, capsys):
        assert main(["check-theorem1", "--codec", "nested-scalar", "--qmin", "1",
                     "--k", "4", "--b", "3"]) == 0
        assert "satisfied" in capsys.readouterr().out

    @pytest.mark.parametrize("qmin", ["0", "9"])
    def test_check_theorem1_qmin_outside_ladder_exit_2(self, capsys, qmin):
        assert main(["check-theorem1", "--codec", "midpoint-scalar", "--qmin", qmin,
                     "--k", "2", "--b", "1"]) == 2
        assert f"q_min {qmin} outside codec ladder [1, 3]" in capsys.readouterr().err

    def test_runtime_error_exit_3(self, tmp_path, tiny_image_dir):
        spec = tmp_path / "ext.json"
        spec.write_text(json.dumps({
            "encode_cmd": "/bin/false {input} {output}",
            "decode_cmd": "/bin/false {input} {output}",
            "quality_map": ["1", "2"],
        }))
        assert main(["check-theorem1", "--codec", f"external:{spec}",
                     "--dataset", str(tiny_image_dir),
                     "--qmin", "1", "--k", "2", "--b", "1"]) == 3
