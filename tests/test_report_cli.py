import json
import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import codeclab.cli
import codeclab.external
import codeclab.protocol
from codeclab import (
    EvalConfig,
    ImageBuffer,
    load_dataset,
    make_codec,
    run_protocol,
    serialize_pnm,
)
from codeclab.cli import main
from codeclab.chains import RhoEstimate, Theorem1Record
from codeclab.codecs import ScalarQuantizerCodec
from codeclab.protocol import EvalReport, RdPoint, verify_strong_idempotence
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

    def test_infinite_points_on_top_edge_with_note(self):
        """An infinite-PSNR point is drawn at its bpp on the top edge, the
        PSNR axis's top, 30 dB here, at y = 70."""
        s = self._points([(1, 0.5, float("inf"), 0.0), (2, 1.0, 30.0, 3.0)])
        m = self._points([(1, 0.5, 25.0, 4.0), (2, 1.0, 28.0, 5.0)])
        out = render_svg(s, m)
        assert b"1 infinite-PSNR point(s) on the top edge" in out
        assert out.count(b"<circle") == 4
        assert b'<polyline points="70,70 730,70" fill="none" stroke="#1f509e"' in out
        assert b'<circle cx="70" cy="70" r="3" fill="#1f509e"/>' in out

    def test_no_finite_point_drawn_with_note(self):
        """With no finite PSNR, the points still span the bpp axis, all on
        the top edge."""
        s = self._points([(1, 0.5, float("inf"), 0.0), (2, 2.5, float("inf"), 0.0)])
        out = render_svg(s, s)
        assert b"4 infinite-PSNR point(s) on the top edge" in out
        assert out.count(b'<polyline points="70,70 730,70"') == 2
        assert out.count(b"<circle") == 4 and out.count(b'cy="70"') == 4
        assert b">0.5</text>" in out and b">2.5</text>" in out

    @staticmethod
    def _elements(out, tag):
        return list(ET.fromstring(out).iter(f"{{http://www.w3.org/2000/svg}}{tag}"))

    @pytest.mark.parametrize("psnr", [30.0, float("inf")], ids=["finite", "lossless"])
    def test_legend_in_top_margin(self, psnr):
        """The legend lies between the title and the plot rectangle, whose
        top is y = 70, left-aligned at its left edge, x = 70, and left of
        the right-aligned note, taking 0.6 em per character."""
        s = self._points([(1, 0.5, float("inf"), 0.0), (2, 1.0, psnr, 3.0)])
        m = self._points([(1, 0.5, float("inf"), 0.0), (2, 1.0, psnr, 5.0)])
        out = render_svg(s, m)
        lines = [e for e in self._elements(out, "line") if e.get("stroke") != "black"]
        texts = {e.text: e for e in self._elements(out, "text")}
        legend = [texts["single-pass"], texts["multi-round"]]
        assert len(lines) == 2 and min(float(e.get("x1")) for e in lines) == 70
        assert all(30 < float(e.get(y)) < 70 for e in lines for y in ("y1", "y2"))
        assert all(30 < float(e.get("y")) - 12 and float(e.get("y")) + 3 < 70 for e in legend)
        [note] = [e for e in texts.values() if "infinite-PSNR" in e.text]
        note_left = float(note.get("x")) - 0.6 * 11 * len(note.text)
        assert all(float(e.get("x")) + 0.6 * 12 * len(e.text) < note_left for e in legend)

    def test_lossless_psnr_axis_has_one_inf_tick(self):
        """With no finite PSNR the PSNR axis has one tick, at the top edge,
        labelled inf; with one, it keeps its five numbered ticks."""
        inf = float("inf")
        for vals, ticks in [([(1, 0.5, inf, 0.0), (2, 2.5, inf, 0.0)], [("70", "inf")]),
                            ([(1, 0.5, inf, 0.0), (2, 2.5, 30.0, 1.0)],
                             [("530", "29.5"), ("415", "29.75"), ("300", "30"),
                              ("185", "30.25"), ("70", "30.5")])]:
            out = render_svg(self._points(vals), self._points(vals))
            marks = [e for e in self._elements(out, "line") if e.get("x1") == "64"]
            labels = [e for e in self._elements(out, "text") if e.get("x") == "60"]
            assert [(e.get("y1"), e.get("y2")) for e in marks] == [(y, y) for y, _ in ticks]
            assert [(float(e.get("y")) - 4, e.text) for e in labels] == [
                (float(y), label) for y, label in ticks]


def _no_sweep(monkeypatch):
    """Make any sweep of the CLI fail the test: a refused command runs no stage."""
    def refuse(*_):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(codeclab.cli, "sweep_levels", refuse)
    monkeypatch.setattr(codeclab.cli, "verify_strong_idempotence", refuse)


class TestCli:
    def test_toy_demo_nested(self, capsys):
        assert main(["toy-demo", "--levels", "3", "--ladder", "nested"]) == 0
        out = capsys.readouterr().out
        assert "strong idempotent" in out
        assert "0.125" in out

    def test_toy_demo_midpoint(self, capsys):
        assert main(["toy-demo", "--levels", "3", "--ladder", "midpoint"]) == 0
        assert "NOT strong idempotent" in capsys.readouterr().out

    def test_verify_nested(self, capsys):
        assert main(["verify", "--codec", "nested-scalar", "--max-len", "3"]) == 0

    def test_verify_nested_eight_levels(self, capsys, monkeypatch):
        """A scalar verify sweeps top_cell_inputs; no synthetic source is drawn."""
        def no_source(*_):
            raise AssertionError("synthetic source drawn")

        monkeypatch.setattr(codeclab.protocol, "generate_uniform_source", no_source)
        assert main(["verify", "--codec", "nested-scalar:8", "--max-len", "3"]) == 0
        out = capsys.readouterr().out
        assert "sequences checked: 584" in out
        assert "max deviation  MSE=0.0 " in out

    @pytest.mark.parametrize("argv", [
        ["verify", "--codec", "nested-scalar", "--max-len", "2", "--grid", "11"],
        ["toy-demo", "--levels", "3", "--ladder", "nested", "--n", "64"],
    ])
    def test_sample_size_flags_gone_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_image_codecs(self, tmp_path, capsys, tiny_image_dir):
        """verify sweeps an image codec over its dataset's images: block-DCT
        prints the sweep verify_strong_idempotence gives on them, and a cp
        coder deviates nowhere."""
        ds = str(tiny_image_dir)
        assert main(["verify", "--codec", "block-dct", "--dataset", ds, "--max-len", "2"]) == 0
        sweep = verify_strong_idempotence(make_codec("block-dct"), load_dataset(ds).items, 2)
        out = capsys.readouterr().out
        assert f"sequences checked: {sweep.sequences_checked}\n" in out
        assert f"max deviation  MSE={sweep.max_mse!r}  RMSE={sweep.max_rmse!r}\n" in out
        assert f"mean deviation MSE={sweep.mean_mse!r}\n" in out
        assert f"worst sequence: {sweep.worst_sequence}\n" in out
        assert "verdict: NOT strong idempotent" in out
        spec = tmp_path / "cp.json"
        spec.write_text(json.dumps({"encode_cmd": "cp {input} {output}",
                                    "decode_cmd": "cp {input} {output}",
                                    "quality_map": ["1", "2", "3"]}))
        assert main(["verify", "--codec", f"external:{spec}", "--dataset", ds,
                     "--max-len", "2"]) == 0
        out = capsys.readouterr().out
        assert "sequences checked: 12\n" in out and "max deviation  MSE=0.0 " in out
        assert "verdict: strong idempotent" in out

    def test_verify_guard_refuses_before_counting_every_length(self, capsys):
        """A sweep over the guard is refused as soon as the count passes it,
        not after summing L**len up to max_len: at max_len 200000 that sum
        runs for most of a minute and is too long to print."""
        start = time.monotonic()
        assert main(["verify", "--codec", "nested-scalar:2", "--max-len", "200000"]) == 2
        assert time.monotonic() - start < 5.0
        assert "more than 1000000 sequences" in capsys.readouterr().err
        with pytest.raises(ValueError, match="guard"):
            verify_strong_idempotence(make_codec("nested-scalar:2"), [], 200_000)

    @pytest.mark.parametrize("max_len", ["0", "-2"])
    def test_verify_max_len_below_one_exit_2(self, capsys, max_len):
        assert main(["verify", "--codec", "nested-scalar", "--max-len", max_len]) == 2
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
        {"k_list": 5},
        {"q_min_list": 2},
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

    @pytest.mark.parametrize("where", ["spec", "external:PATH"])
    @pytest.mark.parametrize("override", [
        {"quality_map": [None]},
        {"quality_map": [True]},
        {"quality_map": [{"a": 1}]},
        {"quality_map": [1.5]},
        {"encode_cmd": ""},
        {"encode_cmd": "   "},
        {"decode_cmd": ""},
        {"decode_cmd": "   "},
    ])
    def test_evaluate_refused_spec_exit_2(
        self, tmp_path, capsys, monkeypatch, tiny_image_dir, where, override
    ):
        """A quality_map entry that is neither a string nor an integer, and a
        blank command template, are refused when the spec loads: exit 2, and
        no command runs."""
        runs = []
        monkeypatch.setattr(codeclab.external, "_run", lambda *args: runs.append(args))
        spec = {"encode_cmd": "cp {input} {output}", "decode_cmd": "cp {input} {output}",
                "quality_map": ["1"], **override}
        if where == "spec":
            cfg = {"codec": "external", "codec_options": {"spec": spec}}
        else:
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(spec))
            cfg = {"codec": f"external:{spec_path}"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "dataset": str(tiny_image_dir),
                                        "k_list": [1], "b": 1}))
        assert main(["evaluate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert runs == []

    @pytest.mark.parametrize("case", ["config", "external-spec", "evaluate-out", "rd-curve-out"])
    def test_directory_as_path_exit_2(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"codec": "midpoint-scalar",
                                        "codec_options": {"source_n": 50},
                                        "k_list": [1], "b": 1}))
        d = str(tmp_path)
        argv = {
            "config": ["evaluate", "--config", d, "--out", str(tmp_path / "r.json")],
            "external-spec": ["verify", "--codec", f"external:{d}", "--max-len", "1"],
            "evaluate-out": ["evaluate", "--config", str(cfg_path), "--out", d],
            "rd-curve-out": ["rd-curve", "--codec", "midpoint-scalar", "--k", "1", "--b", "1",
                             "--out", d],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_check_theorem1_seed_seeds_source(self, capsys):
        means = []
        for seed in ("1", "99"):
            assert main(["check-theorem1", "--codec", "midpoint-scalar", "--qmin", "1",
                         "--k", "5", "--b", "3", "--seed", seed]) == 0
            out = capsys.readouterr().out
            means.append(next(ln for ln in out.splitlines() if "single-pass" in ln))
        assert means[0] != means[1]

    @pytest.mark.parametrize("command", ["evaluate", "rd-curve", "check-theorem1", "verify"])
    def test_scalar_codec_with_dataset_exit_2(
        self, tmp_path, capsys, monkeypatch, tiny_image_dir, command
    ):
        ds = str(tiny_image_dir)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"codec": "nested-scalar", "dataset": ds,
                                        "k_list": [2], "b": 1}))
        out = tmp_path / "out"
        args = {
            "evaluate": ["--config", str(cfg_path), "--out", str(out)],
            "rd-curve": ["--codec", "nested-scalar", "--dataset", ds, "--k", "2", "--b", "1",
                         "--out", str(out)],
            "check-theorem1": ["--codec", "nested-scalar", "--dataset", ds, "--qmin", "1",
                               "--k", "2", "--b", "1"],
            "verify": ["--codec", "nested-scalar", "--dataset", ds, "--max-len", "2"],
        }[command]
        _no_sweep(monkeypatch)
        assert main([command, *args]) == 2
        assert "'nested-scalar' takes no dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "rd-curve", "check-theorem1", "verify"])
    def test_empty_dataset_exit_2(self, tmp_path, capsys, monkeypatch, tiny_image_dir, command):
        """An empty dataset path is refused, not read as the working
        directory, which here holds an image."""
        monkeypatch.chdir(tiny_image_dir)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"codec": "block-dct", "dataset": "",
                                        "k_list": [1], "b": 1}))
        out = tmp_path / "out"
        args = {
            "evaluate": ["--config", str(cfg_path), "--out", str(out)],
            "rd-curve": ["--codec", "block-dct", "--dataset", "", "--k", "1", "--b", "1",
                         "--out", str(out)],
            "check-theorem1": ["--codec", "block-dct", "--dataset", "", "--qmin", "1",
                               "--k", "1", "--b", "1"],
            "verify": ["--codec", "block-dct", "--dataset", "", "--max-len", "2"],
        }[command]
        assert main([command, *args]) == 2
        assert "dataset must be a non-empty string or null" in capsys.readouterr().err
        assert not out.exists()

    def test_rd_curve_svg(self, tmp_path):
        out = tmp_path / "rd.svg"
        assert main(["rd-curve", "--codec", "midpoint-scalar", "--k", "3",
                     "--b", "2", "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"<svg")

    def test_rd_curve_lossless_codec(self, tmp_path, tiny_image_dir):
        """With cp as the coder every PSNR is infinite: the chart is written,
        with each of the 2 x levels points on the top edge, at the one bpp
        of a copied 16x16 PGM, in the middle of the bpp axis."""
        spec = tmp_path / "cp.json"
        spec.write_text(json.dumps({"encode_cmd": "cp {input} {output}",
                                    "decode_cmd": "cp {input} {output}",
                                    "quality_map": ["1", "2", "3"]}))
        out = tmp_path / "rd.svg"
        assert main(["rd-curve", "--codec", f"external:{spec}", "--dataset",
                     str(tiny_image_dir), "--k", "2", "--b", "1", "--out", str(out)]) == 0
        svg = out.read_bytes()
        bpp = (tiny_image_dir / "t.pgm").stat().st_size * 8 / 256
        assert b"6 infinite-PSNR point(s) on the top edge" in svg
        assert svg.count(b'<circle cx="400" cy="70"') == 6
        assert f">{bpp:.6g}</text>".encode() in svg

    @pytest.mark.parametrize("command", ["rd-curve", "check-theorem1", "verify"])
    def test_image_codec_without_dataset_exit_2(self, tmp_path, capsys, monkeypatch, command):
        args = {
            "rd-curve": ["--k", "2", "--b", "1", "--out", str(tmp_path / "x.svg")],
            "check-theorem1": ["--qmin", "1", "--k", "2", "--b", "1"],
            "verify": ["--max-len", "2"],
        }[command]
        _no_sweep(monkeypatch)
        assert main([command, "--codec", "block-dct", *args]) == 2
        assert "codec 'block-dct' needs a dataset directory" in capsys.readouterr().err

    def test_check_theorem1(self, capsys):
        assert main(["check-theorem1", "--codec", "nested-scalar", "--qmin", "1",
                     "--k", "4", "--b", "3"]) == 0
        assert "satisfied" in capsys.readouterr().out

    @pytest.mark.parametrize("qmin", ["0", "9"])
    def test_check_theorem1_qmin_outside_ladder_exit_2(self, capsys, qmin):
        assert main(["check-theorem1", "--codec", "midpoint-scalar", "--qmin", qmin,
                     "--k", "2", "--b", "1"]) == 2
        assert f"q_min {qmin} outside codec ladder [1, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("failing_rate, names", [
        (False, "grid cell (q_min=1) failed: chain stage"),
        (True, "RD cell (q_min=1) failed: chain stage 1 (quality 1) failed: boom"),
    ])
    def test_evaluate_codec_failure_exit_3(
        self, tmp_path, capsys, monkeypatch, failing_rate, names
    ):
        """A codec failing only in stages that read no rate, or only in those
        that do, stops the one loop over levels with exit 3, naming the level
        and the grid or the RD."""
        stage = ScalarQuantizerCodec.stage

        def boom(self, x, q, rate=False):
            if rate == failing_rate:
                raise RuntimeError("boom")
            return stage(self, x, q, rate)

        monkeypatch.setattr(ScalarQuantizerCodec, "stage", boom)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"codec": "midpoint-scalar",
                                        "codec_options": {"source_n": 50},
                                        "k_list": [2], "b": 1}))
        out = tmp_path / "r.json"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: " + names) and err.rstrip().endswith("boom")
        assert not out.exists()

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

    @pytest.mark.parametrize("message", ["Unable to allocate 72.8 TiB", ""])
    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch, message):
        """Running out of memory, as a huge source_n does, exits 3 with one
        `runtime error:` line and no traceback."""
        def no_memory(n, seed):
            raise MemoryError(message)

        monkeypatch.setattr(codeclab.protocol, "generate_uniform_source", no_memory)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"codec": "midpoint-scalar",
                                        "codec_options": {"source_n": 10000000000000},
                                        "k_list": [2], "b": 1}))
        out = tmp_path / "r.json"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"runtime error: out of memory{': ' + message if message else ''}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def corpus_gray64(tmp_path_factory):
    """One 64x64 gray image of the benchmark's corpus (perfbench/corpus.py, seed 1)."""
    out = tmp_path_factory.mktemp("gray64")
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    subprocess.run([sys.executable, str(corpus), "--kind", "gray", "--count", "1",
                    "--width", "64", "--height", "64", "--seed", "1", "--out", str(out)],
                   check=True)
    return out


def _from_json(value):
    return math.inf if value == "inf" else value


class TestOnePathPerNumber:
    """check-theorem1 and rd-curve print and draw the numbers that evaluate
    reports for the same codec, dataset, q_min, k, b, mode and seed."""

    @pytest.mark.parametrize("codec, image, mode", [
        ("block-dct", True, "forced-min"),
        ("block-dct", True, "literal"),
        ("midpoint-scalar", False, "forced-min"),
        ("nested-scalar:4", False, "literal"),
    ])
    def test_commands_print_the_evaluate_report(
        self, tmp_path, capsys, corpus_gray64, codec, image, mode
    ):
        qmin, k, b, seed = 2, 3, 2, 5
        dataset = ["--dataset", str(corpus_gray64)] if image else []
        cfg_path, report_path = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps({
            "codec": codec, "dataset": str(corpus_gray64) if image else None,
            "q_min_list": [qmin], "k_list": [k], "b": b, "mode": mode, "master_seed": seed,
        }))
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        args = [*dataset, "--k", str(k), "--b", str(b), "--seed", str(seed)]

        if mode == "forced-min":  # check-theorem1 always draws forced-min chains
            (rec,) = report["theorem1"]
            capsys.readouterr()
            code = main(["check-theorem1", "--codec", codec, "--qmin", str(qmin), *args])
            assert capsys.readouterr().out == (
                f"q_min={qmin} k={k}\n"
                f"mean MSE single-pass: {rec['mean_single']!r} (SE {rec['std_err_single']!r})\n"
                f"mean MSE chain:       {rec['mean_chain']!r} (SE {rec['std_err_chain']!r})\n"
                f"satisfied (chain >= single - 3*SE): {rec['satisfied']}\n"
            )
            assert code == (0 if rec["satisfied"] else 4)

        svg = tmp_path / "rd.svg"
        assert main(["rd-curve", "--codec", codec, "--mode", mode, *args,
                     "--out", str(svg)]) == 0
        points = {name: [RdPoint(**{f: _from_json(v) for f, v in p.items()}) for p in curve]
                  for name, curve in [("single", report["rd_single"]),
                                      ("multi", report["rd_multi"][str(k)])]}
        title = f"{make_codec(codec).codec_id} RD, k={k}"
        assert svg.read_bytes() == render_svg(points["single"], points["multi"], title=title)

    @pytest.mark.parametrize("b", [1, 3])
    def test_check_theorem1_exits_4_when_not_satisfied(self, capsys, corpus_gray64, b):
        """check-theorem1 exits 4 exactly when its satisfied line reads
        False, and 0 otherwise."""
        code = main(["check-theorem1", "--codec", "block-dct", "--dataset", str(corpus_gray64),
                     "--qmin", "6", "--k", "2", "--b", str(b), "--seed", "1"])
        last = capsys.readouterr().out.splitlines()[-1]
        assert last in ("satisfied (chain >= single - 3*SE): True",
                        "satisfied (chain >= single - 3*SE): False")
        assert code == (4 if last.endswith("False") else 0)
