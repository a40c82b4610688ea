"""End-to-end evaluation protocol: rho grids, RD curves, and verification sweeps."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (
    DISTORTION_KINDS,
    MODES,
    PairOutcome,
    RhoEstimate,
    STREAM_RD,
    STREAM_SOURCE,
    compress_chain,
    evaluate_cell,
    psnr_from_mse,
    rho_from_outcomes,
    _aggregate,
    _mse,
)
from .codecs import Codec
from .registry import _is_int, make_codec
from .signals import Dataset, generate_uniform_source, load_dataset


class ConfigError(ValueError):
    """Invalid or unknown evaluation configuration."""


DEFAULT_K_LIST = (10, 50)
DEFAULT_B = 10
DEFAULT_MODE = "forced-min"
DEFAULT_KIND = "MSE"
DEFAULT_SOURCE_N = 10_000
SEQUENCE_GUARD = 1_000_000  # most quality sequences one verify sweep enumerates

# decisions that shape reported numbers; echoed into every report
DECISIONS_IN_FORCE = (
    "quantizer tie-break: larger codeword",
    "rho averaging: per (item, trial) pair with a fresh quality sequence each",
    "default sampling mode: forced-min (sequence minimum pinned to q_min)",
    "rng: numpy PCG64 streams keyed by (master_seed, purpose, q_min, k, item, trial)",
    "rd_multi bitrate: final-stage bits",
    "rounding: half-away-from-zero",
)


@dataclasses.dataclass
class EvalConfig:
    codec: str
    codec_options: dict = dataclasses.field(default_factory=dict)
    dataset: str | None = None
    q_min_list: list[int] | None = None
    k_list: list[int] = dataclasses.field(default_factory=lambda: list(DEFAULT_K_LIST))
    b: int = DEFAULT_B
    mode: str = DEFAULT_MODE
    distortion: str = DEFAULT_KIND
    master_seed: int = 0

    @classmethod
    def from_json(cls, text: str | bytes) -> "EvalConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "codec" not in doc:
            raise ConfigError("config missing required field 'codec'")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "EvalConfig":
        return cls.from_json(Path(path).read_text())

    def validate(self) -> None:
        if not isinstance(self.codec, str):
            raise ConfigError("codec must be a string")
        if not isinstance(self.codec_options, dict):
            raise ConfigError("codec_options must be an object")
        if self.dataset is not None and not isinstance(self.dataset, str):
            raise ConfigError("dataset must be a string or null")
        if not _is_int(self.b) or self.b < 1:
            raise ConfigError("b must be an integer >= 1")
        if not self.k_list or not all(_is_int(k) and k >= 1 for k in self.k_list):
            raise ConfigError("k_list must be non-empty positive integers")
        if self.q_min_list is not None and not (
            self.q_min_list and all(_is_int(q) for q in self.q_min_list)
        ):
            raise ConfigError("q_min_list must be non-empty integers when given")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.distortion not in DISTORTION_KINDS:
            raise ConfigError(f"unknown distortion kind {self.distortion!r}")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")


@dataclasses.dataclass
class Theorem1Record:
    """Statistical check that single-pass distortion <= chained distortion."""

    q_min: int
    k: int
    mean_single: float
    mean_chain: float
    std_err_single: float
    std_err_chain: float
    satisfied: bool


@dataclasses.dataclass
class RdPoint:
    quality: int
    mean_bpp: float
    mean_psnr: float
    mean_mse: float


@dataclasses.dataclass
class IdempotenceSweep:
    """Worst/mean deviation between chains and single-pass over all sequences."""

    sequences_checked: int
    max_mse: float
    mean_mse: float
    max_rmse: float
    worst_sequence: tuple[int, ...] | None


@dataclasses.dataclass
class EvalReport:
    """One evaluate run; report.emit_report serialises these fields as they are."""

    config: dict
    grid: list[RhoEstimate]
    rd_single: list[RdPoint]
    rd_multi: dict[int, list[RdPoint]]
    theorem1: list[Theorem1Record]
    provenance: dict


def resolve_dataset(cfg: EvalConfig, codec: Codec) -> Dataset:
    """Images from cfg.dataset, or a deterministic synthetic uniform source."""
    if codec.signal_kind == "image":
        if cfg.dataset is None:
            raise ConfigError(f"codec {codec.codec_id!r} needs a dataset directory")
        return load_dataset(cfg.dataset)
    n = cfg.codec_options.get("source_n", DEFAULT_SOURCE_N)
    seed_seq = np.random.SeedSequence([cfg.master_seed, STREAM_SOURCE])
    seed = int(seed_seq.generate_state(1, np.uint64)[0])
    return Dataset.from_source(generate_uniform_source(n, seed))


def resolve_q_min_list(cfg: EvalConfig, codec: Codec) -> list[int]:
    """cfg.q_min_list, or the whole ladder; every level must lie on the ladder."""
    q_min_list = cfg.q_min_list or list(range(1, codec.num_levels + 1))
    for q in q_min_list:
        if not 1 <= q <= codec.num_levels:
            raise ConfigError(f"q_min {q} outside codec ladder [1, {codec.num_levels}]")
    return q_min_list


def theorem1_from_outcomes(
    outcomes: list[PairOutcome], q_min: int, k: int
) -> Theorem1Record:
    mean_s, _, se_s = _aggregate([o.mse_x_vs_single for o in outcomes])
    mean_c, _, se_c = _aggregate([o.mse_x_vs_chain for o in outcomes])
    slack = 3.0 * math.sqrt(se_s**2 + se_c**2)
    return Theorem1Record(
        q_min=q_min,
        k=k,
        mean_single=mean_s,
        mean_chain=mean_c,
        std_err_single=se_s,
        std_err_chain=se_c,
        satisfied=mean_c >= mean_s - slack,
    )


def _rd_point(q: int, bpps: list[float], mses: list[float], peak: float) -> RdPoint:
    psnrs = [psnr_from_mse(m, peak) for m in mses]
    mean_psnr = math.inf if any(math.isinf(p) for p in psnrs) else float(np.mean(psnrs))
    return RdPoint(q, float(np.mean(bpps)), mean_psnr, float(np.mean(mses)))


def compute_rd_curves(
    ds: Dataset,
    codec: Codec,
    k_list: list[int],
    b: int,
    mode: str = "forced-min",
    master_seed: int = 0,
) -> tuple[list[RdPoint], dict[int, list[RdPoint]]]:
    """Single-pass RD points per ladder level, and multi-round points per q_min
    for each k.

    rd_multi PSNR compares the chain final against the ORIGINAL signal; its
    bitrate is the final stage's (what a downstream consumer would hold).
    """
    rd_single: list[RdPoint] = []
    rd_multi: dict[int, list[RdPoint]] = {k: [] for k in k_list}
    for q in range(1, codec.num_levels + 1):
        cells = evaluate_cell(ds, codec, q, k_list, b, mode, master_seed, STREAM_RD)
        singles = [o for o in cells[k_list[0]] if o.trial == 0]
        peak = singles[0].peak
        rd_single.append(_rd_point(
            q, [o.single_bpp for o in singles], [o.mse_x_vs_single for o in singles], peak
        ))
        for k, outcomes in cells.items():
            rd_multi[k].append(_rd_point(
                q, [o.chain_final_bpp for o in outcomes],
                [o.mse_x_vs_chain for o in outcomes], peak,
            ))
    return rd_single, rd_multi


def verify_strong_idempotence(codec: Codec, inputs: list, max_len: int) -> IdempotenceSweep:
    """Enumerate every quality sequence up to max_len and compare each chain
    against the single pass at the sequence minimum."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    q_levels = codec.num_levels
    total = sum(q_levels**length for length in range(1, max_len + 1))
    if total > SEQUENCE_GUARD:
        raise ValueError(f"{total} sequences exceeds the {SEQUENCE_GUARD} guard")
    max_mse = 0.0
    sum_mse = 0.0
    count = 0
    worst = None
    singles = {}
    for x in inputs:
        for q in range(1, q_levels + 1):
            singles[q], _ = codec.reconstruct(x, q)
        for length in range(1, max_len + 1):
            for seq_levels in itertools.product(range(1, q_levels + 1), repeat=length):
                y, _ = compress_chain(x, seq_levels, codec)
                dev = _mse(singles[min(seq_levels)], y)
                sum_mse += dev
                count += 1
                if dev > max_mse:
                    max_mse = dev
                    worst = seq_levels
    return IdempotenceSweep(
        sequences_checked=count,
        max_mse=max_mse,
        mean_mse=sum_mse / count,
        max_rmse=math.sqrt(max_mse),
        worst_sequence=worst,
    )


def run_protocol(cfg: EvalConfig) -> EvalReport:
    """Dataset prep, (q_min, k) grid selection, per-cell Monte Carlo, aggregation."""
    cfg.validate()
    codec = make_codec(cfg.codec, cfg.codec_options)
    ds = resolve_dataset(cfg, codec)
    q_min_list = resolve_q_min_list(cfg, codec)
    grid: list[RhoEstimate] = []
    theorem1: list[Theorem1Record] = []
    for q_min in q_min_list:
        try:
            cells = evaluate_cell(
                ds, codec, q_min, cfg.k_list, cfg.b, cfg.mode, cfg.master_seed
            )
        except Exception as e:
            raise RuntimeError(f"grid cell (q_min={q_min}) failed: {e}") from e
        for k in cfg.k_list:
            grid.append(rho_from_outcomes(cells[k], q_min, k, cfg.b, cfg.distortion))
            theorem1.append(theorem1_from_outcomes(cells[k], q_min, k))
    rd_single, rd_multi = compute_rd_curves(
        ds, codec, cfg.k_list, cfg.b, cfg.mode, cfg.master_seed
    )
    config_echo = {
        **dataclasses.asdict(cfg),
        "q_min_list": list(q_min_list),
        "codec_ladder_levels": codec.num_levels,
        "dataset_items": list(ds.item_names),
        "dataset_warnings": list(ds.warnings),
        "decisions": list(DECISIONS_IN_FORCE),
    }
    provenance = {
        "tool": "codeclab",
        "version": __version__,
        "rng": "numpy PCG64 (default_rng) with SeedSequence-derived streams",
    }
    return EvalReport(
        config=config_echo,
        grid=grid,
        rd_single=rd_single,
        rd_multi=rd_multi,
        theorem1=theorem1,
        provenance=provenance,
    )
