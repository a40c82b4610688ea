"""Re-compression chains, distortion metrics, and Monte Carlo rho estimation.

rho(q_min, k) is the expected distortion between the single-pass
reconstruction at q_min and the k-round chained reconstruction, estimated
over (item, trial) pairs with a fresh quality sequence per pair.

Every random draw comes from a stream derived deterministically from
(master_seed, purpose, q_min, k, item, trial).  evaluate_cell is the one
place that runs Monte Carlo chains: the rho grid, the theorem-1 check and
the RD curves all read its PairOutcomes.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .codecs import Codec, CodecError
from .signals import ImageBuffer, Signal, SourceVector, Dataset

MODES = ("literal", "forced-min")
DISTORTION_KINDS = ("MSE", "RMSE", "PSNR")

# stream-purpose tags for derived RNGs
STREAM_RHO = 0
STREAM_RD = 1
STREAM_SOURCE = 2


def derive_rng(master_seed: int, *coords: int) -> np.random.Generator:
    """PCG64 stream keyed by (master_seed, coords...)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, coords)]))


def _mse(a: Signal, b: Signal) -> float:
    if isinstance(a, SourceVector) and isinstance(b, SourceVector):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        diff = a.values - b.values
    elif isinstance(a, ImageBuffer) and isinstance(b, ImageBuffer):
        if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
            raise ValueError("image dimension mismatch")
        diff = a.samples.astype(np.float64) - b.samples.astype(np.float64)
    else:
        raise ValueError("cannot compare an image with a source vector")
    return float(np.mean(diff * diff))


def signal_peak(a: Signal) -> float:
    return 255.0 if isinstance(a, ImageBuffer) else 1.0


def psnr_from_mse(mse: float, peak: float) -> float:
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _from_mse(mse: float, kind: str, peak: float) -> float:
    if kind == "MSE":
        return mse
    if kind == "RMSE":
        return math.sqrt(mse)
    if kind == "PSNR":
        return psnr_from_mse(mse, peak)
    raise ValueError(f"unknown distortion kind {kind!r}")


def distortion(a: Signal, b: Signal, kind: str = "MSE") -> float:
    """MSE, RMSE, or PSNR between two signals of the same kind and shape."""
    return _from_mse(_mse(a, b), kind, signal_peak(a))


def sample_quality_sequence(
    q_min: int, q_max: int, k: int, mode: str, rng: np.random.Generator
) -> tuple[int, ...]:
    """k iid uniform draws from [q_min, q_max]; forced-min overwrites one
    uniformly chosen position with q_min."""
    if q_min > q_max:
        raise ValueError(f"q_min {q_min} > q_max {q_max}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    levels = rng.integers(q_min, q_max + 1, size=k)
    if mode == "forced-min":
        levels[int(rng.integers(k))] = q_min
    return tuple(int(q) for q in levels)


def compress_chain(x: Signal, levels: tuple[int, ...], codec: Codec):
    """Apply reconstruct sequentially, y_i = f(y_{i-1}, q_i), and return the
    last stage's (reconstruction, bitstream), as Codec.reconstruct does."""
    if not levels:
        raise ValueError("empty quality sequence")
    y = x
    for stage, q in enumerate(levels, start=1):
        try:
            y, bs = codec.reconstruct(y, q)
        except Exception as e:
            raise CodecError(f"chain stage {stage} (quality {q}) failed: {e}") from e
    return y, bs


@dataclasses.dataclass
class PairOutcome:
    """Per-(item, trial) measurements shared by rho, theorem-1, and RD checks.

    All distortions are stored as MSE; other kinds are derived.
    """

    item: int
    trial: int
    levels: tuple[int, ...]
    mse_single_vs_chain: float  # d(f(x, q_min), chain final) -- the rho term
    mse_x_vs_single: float
    mse_x_vs_chain: float
    single_bpp: float
    chain_final_bpp: float
    peak: float


def evaluate_cell(
    ds: Dataset,
    codec: Codec,
    q_min: int,
    k_list: list[int],
    b: int,
    mode: str = "forced-min",
    master_seed: int = 0,
    stream: int = STREAM_RHO,
) -> dict[int, list[PairOutcome]]:
    """Run b independent chains per dataset item for each k at one q_min.

    Each item's single pass at q_min is computed once and shared by every k.
    Returns {k: outcomes}, ordered by (item, trial) within each k.  stream is
    STREAM_RHO for the rho grid and STREAM_RD for the RD curves.
    """
    codec.check_quality(q_min)
    if b < 1:
        raise ValueError("b must be >= 1")
    q_max = codec.num_levels
    cells: dict[int, list[PairOutcome]] = {k: [] for k in k_list}
    for i, x in enumerate(ds.items):
        single, single_bs = codec.reconstruct(x, q_min)
        single_bpp = codec.bpp(single_bs, x)
        mse_x_single = _mse(x, single)
        for k, outcomes in cells.items():
            for t in range(b):
                rng = derive_rng(master_seed, stream, q_min, k, i, t)
                levels = sample_quality_sequence(q_min, q_max, k, mode, rng)
                y, bs = compress_chain(x, levels, codec)
                outcomes.append(
                    PairOutcome(
                        item=i,
                        trial=t,
                        levels=levels,
                        mse_single_vs_chain=_mse(single, y),
                        mse_x_vs_single=mse_x_single,
                        mse_x_vs_chain=_mse(x, y),
                        single_bpp=single_bpp,
                        chain_final_bpp=codec.bpp(bs, x),
                        peak=signal_peak(x),
                    )
                )
    return cells


@dataclasses.dataclass
class RhoEstimate:
    """Monte Carlo estimate of rho(q_min, k)."""

    q_min: int
    k: int
    b: int
    distortion_kind: str
    mean: float
    sample_std: float
    std_err: float
    n_pairs: int


def _aggregate(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if np.any(np.isinf(arr)):
        # only PSNR with a zero-MSE pair; spread is not meaningful then
        return math.inf, 0.0, 0.0
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std, std / math.sqrt(arr.size)


def rho_from_outcomes(
    outcomes: list[PairOutcome], q_min: int, k: int, b: int, kind: str = "MSE"
) -> RhoEstimate:
    """Monte Carlo rho(q_min, k): mean d(f(x, q_min), chain) over (item, trial)."""
    vals = [_from_mse(o.mse_single_vs_chain, kind, o.peak) for o in outcomes]
    mean, std, se = _aggregate(vals)
    return RhoEstimate(
        q_min=q_min, k=k, b=b, distortion_kind=kind,
        mean=mean, sample_std=std, std_err=se, n_pairs=len(vals),
    )

