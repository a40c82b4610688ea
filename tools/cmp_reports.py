"""Check that this working tree's reports are byte-identical to a git ref's.

    python3 tools/cmp_reports.py --base REF

Extracts `git archive REF` into a temporary directory, writes small image
corpora (perfbench/corpus.py), the configs and two external codec specs, `cp`
and an always failing `false`, into the same directory, and runs one fixed set
of `python3 -m codeclab.cli` commands against each tree's `src/`.  Prints
`same` or `DIFFERS` for every artefact (a report or SVG file, or a command's
exit code, stdout and stderr), with the first differing line of base and of
head under each `DIFFERS` of two text artefacts, then one tally line,
`N same, M DIFFERS`, and exits 1 if any differs, 2 if REF cannot be archived.
The temporary directory is removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _corpus(out: Path, kind: str, count: int, width: int, height: int) -> None:
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "corpus.py"), "--kind", kind,
         "--count", str(count), "--width", str(width), "--height", str(height),
         "--seed", "1", "--out", str(out)],
        check=True,
    )


def _commands(work: Path) -> list[tuple[str, list[str], str | None]]:
    """Write the corpus, spec and configs into work; return the command set as
    (artefact, CLI arguments, output file name or None for stdout)."""
    gray, rgb = work / "gray", work / "rgb"
    _corpus(gray, "gray", 2, 131, 77)
    _corpus(rgb, "rgb", 1, 37, 21)
    # whole-block planes, where the edge padding copies no row or column: a
    # single block row, and several block rows and columns
    row, rgb_aligned = work / "gray-block-row", work / "rgb-aligned"
    _corpus(row, "gray", 2, 40, 8)
    _corpus(rgb_aligned, "rgb", 1, 64, 48)
    # the benchmark's dct-large-rgb shape: 64 blocks to a block row and 48
    # block rows, so the transform runs long block-row and 2-D products
    rgb_large = work / "rgb-large"
    _corpus(rgb_large, "rgb", 1, 512, 384)
    # planes cut into bands of block rows: 38 blocks to a block row, so bands
    # of 6 of its 26 block rows, the last one 2; 5 rows padded at the bottom
    # and 4 columns on the right
    rgb_bands = work / "rgb-bands"
    _corpus(rgb_bands, "rgb", 1, 300, 203)
    # one 64x64 gray image whose b = 1 theorem-1 check fails (exit 4)
    gray64 = work / "gray64"
    _corpus(gray64, "gray", 1, 64, 64)
    # several small RGB items: five chains of one item go through each
    # stacked block-DCT call, 15 planes
    rgb_stack = work / "rgb-stack"
    _corpus(rgb_stack, "rgb", 3, 37, 21)
    # sizes and channel counts alternating within one dataset, so one codec
    # instance switches plane shape from item to item
    mixed = work / "mixed"
    mixed.mkdir()
    for name, src in [("a-gray-131x77", gray / "img0.pnm"), ("b-rgb-37x21", rgb / "img0.pnm"),
                      ("c-gray-40x8", row / "img1.pnm"), ("d-rgb-64x48", rgb_aligned / "img0.pnm")]:
        shutil.copyfile(src, mixed / f"{name}.pnm")
    spec = work / "cp.json"
    spec.write_text(json.dumps({
        "encode_cmd": "cp {input} {output}",
        "decode_cmd": "cp {input} {output}",
        "quality_map": ["1", "2", "3"],
    }))
    # a coder that always fails: the error text names the failing cell
    failing = work / "false.json"
    failing.write_text(json.dumps({
        "encode_cmd": "false",
        "decode_cmd": "cp {input} {output}",
        "quality_map": ["1", "2", "3"],
    }))
    (work / "failing.json").write_text(json.dumps({
        "codec": f"external:{failing}", "dataset": str(gray), "q_min_list": [2],
        "k_list": [2], "b": 1}))
    configs = {
        "dct-gray": {"codec": "block-dct", "dataset": str(gray), "q_min_list": [5, 2, 2],
                     "k_list": [3, 1, 3], "b": 2, "distortion": "PSNR", "master_seed": 3},
        "dct-rgb": {"codec": "block-dct", "dataset": str(rgb), "k_list": [1, 2], "b": 2,
                    "distortion": "PSNR", "master_seed": 1},
        "dct-gray-block-row": {"codec": "block-dct", "dataset": str(row), "k_list": [1, 4],
                               "b": 2, "master_seed": 5},
        "dct-rgb-aligned": {"codec": "block-dct", "dataset": str(rgb_aligned),
                            "k_list": [1, 3], "b": 2, "distortion": "RMSE", "master_seed": 7},
        # the extremes of the native tables: level 2, quality 100, is all
        # ones, the table that gives the largest indices
        "dct-extreme-tables": {"codec": "block-dct",
                               "codec_options": {"native_qualities": [1, 100]},
                               "dataset": str(rgb_aligned), "k_list": [1, 3], "b": 2,
                               "master_seed": 27},
        "dct-mixed": {"codec": "block-dct", "dataset": str(mixed), "q_min_list": [2, 6],
                      "k_list": [1, 3], "b": 2, "distortion": "PSNR", "master_seed": 9},
        # literal draws, k = 1 and an unsorted q_min_list with a repeat: the
        # grid's order, and chains that are or start with the single pass
        "dct-literal": {"codec": "block-dct", "dataset": str(gray), "q_min_list": [6, 3, 6],
                        "k_list": [2, 1], "b": 3, "mode": "literal", "master_seed": 11},
        "nested-scalar": {"codec": "nested-scalar:4", "k_list": [2, 10], "b": 2,
                          "distortion": "PSNR"},
        "midpoint-scalar": {"codec": "midpoint-scalar", "codec_options": {"levels": 4},
                            "k_list": [3, 5], "b": 3, "mode": "literal",
                            "distortion": "RMSE", "master_seed": 2},
        # long literal chains that revisit states: memo keys built from a
        # factored vector's cell map and table CRC-32
        "midpoint-scalar-memo": {"codec": "midpoint-scalar:6",
                                 "codec_options": {"source_n": 2000}, "k_list": [50],
                                 "b": 3, "mode": "literal", "master_seed": 25},
        "external-cp": {"codec": f"external:{spec}", "dataset": str(gray),
                        "q_min_list": [1, 3], "k_list": [1, 2], "b": 1},
        # long chains and repeated q: stages that a chain's memo answers
        "dct-memo": {"codec": "block-dct", "dataset": str(gray), "q_min_list": [2, 5],
                     "k_list": [50], "b": 2, "master_seed": 13},
        "external-cp-memo": {"codec": f"external:{spec}", "dataset": str(gray),
                             "k_list": [1, 5], "b": 2, "master_seed": 15},
        # chains that start above q_min: with the item's single passes at
        # every level, every cp stage is one of them
        "external-cp-literal": {"codec": f"external:{spec}", "dataset": str(gray),
                                "k_list": [1, 4], "b": 2, "mode": "literal",
                                "master_seed": 17},
        "dct-large-rgb": {"codec": "block-dct", "dataset": str(rgb_large), "k_list": [1, 2],
                          "b": 1},
        "dct-rgb-bands": {"codec": "block-dct", "dataset": str(rgb_bands),
                          "q_min_list": [4, 1], "k_list": [1, 3], "b": 2,
                          "distortion": "PSNR", "master_seed": 23},
        # the benchmark's dct-chains shape: four chains of a 64x64 gray item
        # go through each stacked block-DCT call
        "dct-chains": {"codec": "block-dct", "dataset": str(gray64), "q_min_list": [2, 5],
                       "k_list": [50], "b": 2, "master_seed": 1},
        # stacked RGB chains of mixed lengths, both streams in one group
        "dct-rgb-stack": {"codec": "block-dct", "dataset": str(rgb_stack),
                          "q_min_list": [3, 1], "k_list": [4, 1, 7], "b": 3,
                          "mode": "literal", "distortion": "PSNR", "master_seed": 21},
        # items of alternating shapes, each swept over every level in turn
        "dct-mixed-literal": {"codec": "block-dct", "dataset": str(mixed),
                              "q_min_list": [1, 7], "k_list": [3], "b": 2,
                              "mode": "literal", "master_seed": 19},
        # an inline spec with integer quality_map entries and timeout_s, which
        # load as the strings "1", "2", "3" and the float 30.0
        "external": {"codec": "external", "codec_options": {"spec": {
                         "encode_cmd": "cp {input} {output}", "decode_cmd": "cp {input} {output}",
                         "quality_map": [1, 2, 3], "timeout_s": 30}},
                     "dataset": str(gray), "q_min_list": [2], "k_list": [2], "b": 1},
    }
    cmds = []
    for name, cfg in configs.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg))
        for fmt in ("json", "csv"):
            out = f"evaluate-{name}.{fmt}"
            cmds.append((out, ["evaluate", "--config", str(path), "--format", fmt,
                               "--out", out], out))
    cmds += [
        ("rd-curve-dct.svg", ["rd-curve", "--codec", "block-dct", "--dataset", str(gray),
                              "--k", "3", "--b", "1", "--seed", "4",
                              "--out", "rd-curve-dct.svg"], "rd-curve-dct.svg"),
        ("rd-curve-midpoint.svg", ["rd-curve", "--codec", "midpoint-scalar", "--mode",
                                   "literal", "--k", "3", "--b", "2",
                                   "--out", "rd-curve-midpoint.svg"], "rd-curve-midpoint.svg"),
        ("rd-curve-dct-mixed-literal.svg", ["rd-curve", "--codec", "block-dct", "--dataset",
                                            str(mixed), "--mode", "literal", "--k", "2",
                                            "--b", "2", "--seed", "3",
                                            "--out", "rd-curve-dct-mixed-literal.svg"],
         "rd-curve-dct-mixed-literal.svg"),
        # a lossless coder: every PSNR is infinite, so every point is on the top edge
        ("rd-curve-external-lossless.svg", ["rd-curve", "--codec", f"external:{spec}",
                                            "--dataset", str(gray), "--k", "2", "--b", "1",
                                            "--out", "rd-curve-external-lossless.svg"],
         "rd-curve-external-lossless.svg"),
        ("verify-nested-scalar:4", ["verify", "--codec", "nested-scalar:4", "--max-len", "3"],
         None),
        ("verify-midpoint-scalar:3", ["verify", "--codec", "midpoint-scalar:3",
                                      "--max-len", "4"], None),
        # worst deviations that tie across lengths: the first, (1, 2, 3, 4),
        # is printed, not (1, 1, 2, 3, 4)
        ("verify-midpoint-scalar:4-len5", ["verify", "--codec", "midpoint-scalar:4",
                                           "--max-len", "5"], None),
        # 8,190 sequences over 12 lengths, whose mean is summed in order
        ("verify-midpoint-scalar:2-len12", ["verify", "--codec", "midpoint-scalar:2",
                                            "--max-len", "12"], None),
        # image codecs swept over their dataset's images: 1,168 and 584
        # sequences, each worst a descending ladder, and a lossless coder
        ("verify-block-dct-gray", ["verify", "--codec", "block-dct", "--dataset", str(gray),
                                   "--max-len", "3"], None),
        ("verify-block-dct-rgb", ["verify", "--codec", "block-dct", "--dataset", str(rgb),
                                  "--max-len", "3"], None),
        ("verify-external-cp", ["verify", "--codec", f"external:{spec}", "--dataset",
                                str(gray), "--max-len", "2"], None),
        # exit 2: an image codec needs a dataset directory
        ("verify-block-dct-no-dataset", ["verify", "--codec", "block-dct", "--max-len", "2"],
         None),
        ("check-theorem1-dct", ["check-theorem1", "--codec", "block-dct", "--dataset",
                                str(gray), "--qmin", "3", "--k", "3", "--b", "2",
                                "--seed", "6"], None),
        ("check-theorem1-dct-mixed", ["check-theorem1", "--codec", "block-dct", "--dataset",
                                      str(mixed), "--qmin", "4", "--k", "3", "--b", "2",
                                      "--seed", "8"], None),
        ("check-theorem1-midpoint", ["check-theorem1", "--codec", "midpoint-scalar",
                                     "--qmin", "1", "--k", "5", "--b", "3", "--seed", "1"],
         None),
        # the synthetic source that _cell_inputs resolves for a scalar codec
        ("check-theorem1-nested-scalar:4", ["check-theorem1", "--codec", "nested-scalar:4",
                                            "--qmin", "2", "--k", "4", "--b", "3",
                                            "--seed", "2"], None),
        ("check-theorem1-dct-exit-4", ["check-theorem1", "--codec", "block-dct", "--dataset",
                                       str(gray64), "--qmin", "6", "--k", "2", "--b", "1",
                                       "--seed", "1"], None),
        # exit 3 with the failing RD cell's and grid cell's names on stderr
        ("evaluate-external-failing", ["evaluate", "--config", str(work / "failing.json"),
                                       "--out", "failing-report.json"], None),
        ("check-theorem1-external-failing", ["check-theorem1", "--codec",
                                             f"external:{failing}", "--dataset", str(gray),
                                             "--qmin", "2", "--k", "2", "--b", "1"], None),
        ("toy-demo-nested", ["toy-demo", "--levels", "3", "--ladder", "nested"], None),
        # the 4-level nested ladder's lowest level is 9/16, not a midpoint
        ("toy-demo-nested-4", ["toy-demo", "--levels", "4", "--ladder", "nested"], None),
        ("toy-demo-midpoint", ["toy-demo", "--levels", "4", "--ladder", "midpoint"], None),
    ]
    return cmds


def _run(tree: Path, out_dir: Path, args: list[str], out: str | None) -> bytes | None:
    """The artefact's bytes: the output file, or exit code, stdout and stderr."""
    out_dir.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "codeclab.cli", *args], cwd=out_dir,
                          env=env, capture_output=True)
    if out is None:
        return b"exit %d\n" % proc.returncode + proc.stdout + b"stderr:\n" + proc.stderr
    if proc.returncode != 0 or not (out_dir / out).is_file():
        sys.stderr.write(f"{tree.name}: {' '.join(args[:1])} {out} failed:\n"
                         f"{proc.stderr.decode(errors='replace')}")
        return None
    return (out_dir / out).read_bytes()


def _first_difference(old: bytes, new: bytes) -> list[str]:
    """The first line where two text artefacts differ, base's then head's,
    each cut to 120 characters; nothing if either is not UTF-8 text."""
    try:
        lines = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return []
    n = next((n for n, (a, b) in enumerate(zip(*lines)) if a != b), min(map(len, lines)))
    return [f"  {tree} line {n + 1}: " + (text[n][:120] if n < len(text) else "(no line)")
            for tree, text in zip(("base", "head"), lines)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git ref to compare the working tree against")
    a = p.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="cmp_reports-"))
    try:
        base = work / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", a.base],
                                 capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        differs = 0
        cmds = _commands(work)
        for name, args, out in cmds:
            old = _run(base, work / "out-base", args, out)
            new = _run(ROOT, work / "out-head", args, out)
            same = old is not None and old == new
            differs += not same
            print(f"{'same' if same else 'DIFFERS':8s}{name}", flush=True)
            if not same and old is not None and new is not None:
                for line in _first_difference(old, new):
                    print(line, flush=True)
        print(f"{len(cmds) - differs} same, {differs} DIFFERS")
        return 1 if differs else 0
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    raise SystemExit(main())
