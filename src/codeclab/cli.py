"""Command-line interface.

Exit codes: 0 success, 2 config error, 3 codec/runtime error,
4 verification failed (nonzero deviation where zero was required).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .chains import evaluate_cell
from .codecs import CodecError
from .external import ExternalCodecError
from .protocol import (
    ConfigError,
    EvalConfig,
    compute_rd_curves,
    resolve_dataset,
    resolve_q_min_list,
    run_protocol,
    theorem1_from_outcomes,
    verify_strong_idempotence,
)
from .registry import make_codec
from .report import emit_report, render_svg
from .signals import SourceVector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4


def _grid_inputs(n: int) -> list[SourceVector]:
    return [SourceVector(np.linspace(0.0, 1.0, n))]


def _print_sweep(sweep, codec) -> int:
    print(f"sequences checked: {sweep.sequences_checked}")
    print(f"max deviation  MSE={sweep.max_mse!r}  RMSE={sweep.max_rmse!r}")
    print(f"mean deviation MSE={sweep.mean_mse!r}")
    if sweep.worst_sequence is not None and sweep.max_mse > 0:
        print(f"worst sequence: {sweep.worst_sequence}")
    if codec.claims_strong_idempotence and sweep.max_mse != 0.0:
        print("FAIL: codec claims strong idempotence but deviation is nonzero")
        return EXIT_VERIFY
    verdict = "strong idempotent" if sweep.max_mse == 0.0 else "NOT strong idempotent"
    print(f"verdict: {verdict} (over the enumerated sequences)")
    return EXIT_OK


def _cmd_toy_demo(args) -> int:
    codec = make_codec(f"{args.ladder}-scalar", {"levels": args.levels})
    ladder = codec.ladder
    print(f"{args.ladder} ladder, {ladder.num_levels} level(s):")
    for q in range(1, ladder.num_levels + 1):
        print(f"  q={q}: {list(ladder.level(q))}")
    sweep = verify_strong_idempotence(codec, _grid_inputs(args.n), max_len=4)
    return _print_sweep(sweep, codec)


def _cmd_evaluate(args) -> int:
    cfg = EvalConfig.from_file(args.config)
    report = run_protocol(cfg)
    Path(args.out).write_bytes(emit_report(report, args.format))
    print(f"wrote {args.format} report to {args.out}")
    return EXIT_OK


def _cell_inputs(args, mode: str, q_min_list: list[int] | None = None):
    """Codec and dataset for a one-k command, resolved as `evaluate` does."""
    cfg = EvalConfig(
        codec=args.codec, dataset=args.dataset, q_min_list=q_min_list, k_list=[args.k],
        b=args.b, mode=mode, master_seed=args.seed,
    )
    cfg.validate()
    codec = make_codec(cfg.codec)
    return cfg, codec, resolve_dataset(cfg, codec)


def _cmd_rd_curve(args) -> int:
    cfg, codec, ds = _cell_inputs(args, args.mode)
    rd_single, rd_multi = compute_rd_curves(
        ds, codec, cfg.k_list, cfg.b, cfg.mode, cfg.master_seed
    )
    svg = render_svg(rd_single, rd_multi[args.k], title=f"{codec.codec_id} RD, k={args.k}")
    Path(args.out).write_bytes(svg)
    print(f"wrote RD chart to {args.out}")
    return EXIT_OK


def _cmd_check_theorem1(args) -> int:
    cfg, codec, ds = _cell_inputs(args, "forced-min", [args.qmin])
    (q_min,) = resolve_q_min_list(cfg, codec)
    cells = evaluate_cell(ds, codec, q_min, cfg.k_list, cfg.b, cfg.mode, cfg.master_seed)
    rec = theorem1_from_outcomes(cells[args.k], q_min, args.k)
    print(f"q_min={rec.q_min} k={rec.k}")
    print(f"mean MSE single-pass: {rec.mean_single!r} (SE {rec.std_err_single!r})")
    print(f"mean MSE chain:       {rec.mean_chain!r} (SE {rec.std_err_chain!r})")
    print(f"satisfied (chain >= single - 3*SE): {rec.satisfied}")
    return EXIT_OK if rec.satisfied else EXIT_VERIFY


def _cmd_verify(args) -> int:
    codec = make_codec(args.codec)
    if codec.signal_kind != "source":
        raise ConfigError("verify sweeps are exhaustive; scalar codecs only")
    sweep = verify_strong_idempotence(codec, _grid_inputs(args.grid), args.max_len)
    return _print_sweep(sweep, codec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codeclab",
        description="Measure codec stability under multi-round varying-quality re-compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toy-demo", help="print a scalar ladder and sweep it")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--ladder", choices=("nested", "midpoint"), required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.set_defaults(func=_cmd_toy_demo)

    p = sub.add_parser("evaluate", help="run the full protocol from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rd-curve", help="single-pass vs multi-round RD chart")
    p.add_argument("--codec", required=True)
    p.add_argument("--dataset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--mode", choices=("literal", "forced-min"), default="forced-min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rd_curve)

    p = sub.add_parser("check-theorem1", help="single vs chained distortion check")
    p.add_argument("--codec", required=True)
    p.add_argument("--dataset")
    p.add_argument("--qmin", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_theorem1)

    p = sub.add_parser("verify", help="exhaustive strong-idempotence sweep")
    p.add_argument("--codec", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (CodecError, ExternalCodecError, RuntimeError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
