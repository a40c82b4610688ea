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
    STREAM_SOURCE,
    Theorem1Record,
    distortion,
    psnr_from_mse,
    rho_from_outcomes,
    sweep_levels,
    theorem1_from_outcomes,
)
from .codecs import Codec
from .registry import _is_int, make_codec
from .signals import Dataset, SourceVector, generate_uniform_source, load_dataset


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


@dataclasses.dataclass(frozen=True)
class EvalConfig:
    """One evaluate run's settings; checked once, when built, and immutable."""

    codec: str
    codec_options: dict = dataclasses.field(default_factory=dict)
    dataset: str | None = None
    q_min_list: list[int] | None = None
    k_list: list[int] = dataclasses.field(default_factory=lambda: list(DEFAULT_K_LIST))
    b: int = DEFAULT_B
    mode: str = DEFAULT_MODE
    distortion: str = DEFAULT_KIND
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.codec, str):
            raise ConfigError("codec must be a string")
        if not isinstance(self.codec_options, dict):
            raise ConfigError("codec_options must be an object")
        if self.dataset is not None and not (isinstance(self.dataset, str) and self.dataset):
            raise ConfigError("dataset must be a non-empty string or null")
        if not _is_int(self.b) or self.b < 1:
            raise ConfigError("b must be an integer >= 1")
        if not (isinstance(self.k_list, list) and self.k_list
                and all(_is_int(k) and k >= 1 for k in self.k_list)):
            raise ConfigError("k_list must be a non-empty list of positive integers")
        if self.q_min_list is not None and not (
            isinstance(self.q_min_list, list) and self.q_min_list
            and all(_is_int(q) for q in self.q_min_list)
        ):
            raise ConfigError("q_min_list must be a non-empty list of integers when given")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.distortion not in DISTORTION_KINDS:
            raise ConfigError(f"unknown distortion kind {self.distortion!r}")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")

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
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "EvalConfig":
        return cls.from_json(Path(path).read_text())


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
    if cfg.dataset is not None:
        raise ConfigError(f"codec {codec.codec_id!r} takes no dataset (synthetic source)")
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


def _rd_point(q: int, bpps: list[float], mses: list[float], peak: float) -> RdPoint:
    psnrs = [psnr_from_mse(m, peak) for m in mses]
    mean_psnr = math.inf if any(math.isinf(p) for p in psnrs) else float(np.mean(psnrs))
    return RdPoint(q, float(np.mean(bpps)), mean_psnr, float(np.mean(mses)))


def rd_points(
    rd_cells: dict[int, dict[int, list[PairOutcome]]],
) -> tuple[list[RdPoint], dict[int, list[RdPoint]]]:
    """The single-pass RD point per level and the multi-round points per k,
    in level order, from the rd_cells of a sweep_levels run with rd true.

    rd_multi PSNR compares the chain final against the ORIGINAL signal; its
    bitrate is the final stage's (what a downstream consumer would hold).
    """
    rd_single: list[RdPoint] = []
    rd_multi: dict[int, list[RdPoint]] = {}
    for q, rd in rd_cells.items():
        singles = [o for o in next(iter(rd.values())) if o.trial == 0]
        peak = singles[0].peak
        rd_single.append(_rd_point(
            q, [o.single_bpp for o in singles], [o.mse_x_vs_single for o in singles], peak
        ))
        for k, outcomes in rd.items():
            rd_multi.setdefault(k, []).append(_rd_point(
                q, [o.chain_final_bpp for o in outcomes],
                [o.mse_x_vs_chain for o in outcomes], peak,
            ))
    return rd_single, rd_multi


def top_cell_inputs(codec: Codec) -> list[SourceVector]:
    """i / n for each of the n top-level cells [i / n, (i + 1) / n).  Every
    decision boundary of every level lies on that grid and ties go up, so
    each input is quantised as its whole cell is: a sweep of it covers
    [0, 1] exactly, and each sequence's deviation is its U[0, 1]
    expectation."""
    n = len(codec.ladder.level(codec.num_levels))
    return [SourceVector(np.arange(n) / n)]


def verify_strong_idempotence(codec: Codec, inputs: list, max_len: int) -> IdempotenceSweep:
    """Enumerate every quality sequence up to max_len and compare each chain
    against the single pass at the sequence minimum, reading no rate.  Each
    input's stage trie is walked depth-first, a node's children in one
    stage_many call on its output, so each sequence is one stage and only
    the outputs on the stack are kept.  Deviations are summed, and the first
    worst kept, in (input, length, product) order."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    q_levels = codec.num_levels
    totals = itertools.accumulate(q_levels**length for length in range(1, max_len + 1))
    if any(total > SEQUENCE_GUARD for total in totals):  # stops at the first over it
        raise ValueError(f"more than {SEQUENCE_GUARD} sequences: over the verify guard")
    if not inputs:
        raise ValueError("inputs must be non-empty")
    levels, unrated = list(range(1, q_levels + 1)), [False] * q_levels
    max_mse = 0.0
    sum_mse = 0.0
    count = 0
    worst = None  # (length, rank in product order)
    for x in inputs:
        devs = [[] for _ in range(max_len)]  # devs[n]: the length-(n + 1) deviations
        stack = [(x, 0, q_levels)]  # (output, its sequence's length and minimum)
        while stack:
            y, n, lo = stack.pop()
            outs = [out for out, _ in codec.stage_many([y] * q_levels, levels, unrated)]
            singles = outs if n == 0 else singles  # the root's children
            devs[n] += [distortion(singles[min(lo, q) - 1], out) for q, out in zip(levels, outs)]
            if n + 1 < max_len:
                # reversed, so that each length's sequences come in product order
                stack += [(out, n + 1, min(lo, q)) for q, out in zip(levels, outs)][::-1]
        for n, devs_n in enumerate(devs, start=1):
            for rank, dev in enumerate(devs_n):
                sum_mse += dev
                if dev > max_mse:
                    max_mse, worst = dev, (n, rank)
            count += len(devs_n)
    if worst is not None:  # rank's n base-q digits, most significant first
        n, rank = worst
        worst = tuple(rank // q_levels ** (n - 1 - i) % q_levels + 1 for i in range(n))
    return IdempotenceSweep(
        sequences_checked=count,
        max_mse=max_mse,
        mean_mse=sum_mse / count,
        max_rmse=math.sqrt(max_mse),
        worst_sequence=worst,
    )


def run_protocol(cfg: EvalConfig) -> EvalReport:
    """Dataset prep, (q_min, k) grid selection, one Monte Carlo pass per
    ladder level for the grid and the RD curves, aggregation."""
    codec = make_codec(cfg.codec, cfg.codec_options)
    ds = resolve_dataset(cfg, codec)
    q_min_list = resolve_q_min_list(cfg, codec)
    grid_cells, rd_cells = sweep_levels(
        ds, codec, q_min_list, True, cfg.k_list, cfg.b, cfg.mode, cfg.master_seed
    )
    rd_single, rd_multi = rd_points(rd_cells)
    grid: list[RhoEstimate] = []
    theorem1: list[Theorem1Record] = []
    for q_min in q_min_list:
        for k in cfg.k_list:
            outcomes = grid_cells[q_min][k]
            grid.append(rho_from_outcomes(outcomes, q_min, k, cfg.b, cfg.distortion))
            theorem1.append(theorem1_from_outcomes(outcomes, q_min, k))
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
