"""Re-compression chains, distortion metrics, and the per-cell statistics:
the Monte Carlo rho estimate and the theorem-1 check.

rho(q_min, k) is the expected distortion between the single-pass
reconstruction at q_min and the k-round chained reconstruction, estimated
over (item, trial) pairs with a fresh quality sequence per pair.

Every random draw comes from a stream derived deterministically from
(master_seed, purpose, q_min, k, item, trial).  evaluate_cell is the one
place that runs Monte Carlo chains: the rho grid, the theorem-1 check and
the RD curves all read its PairOutcomes.  It relies on the Codec contract
that f is deterministic: a chain that starts at q_min continues from the
single pass f(x, q_min), and the chain (q_min,) is that single pass.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
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
STREAM_NAMES = {STREAM_RHO: "grid", STREAM_RD: "RD"}


def derive_rng(master_seed: int, *coords: int) -> np.random.Generator:
    """PCG64 stream keyed by (master_seed, coords...)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, coords)]))


def _mse(a: Signal, b: Signal) -> float:
    if isinstance(a, SourceVector) and isinstance(b, SourceVector):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        if a.cells is not None and a.cells is b.cells and np.array_equal(a.table, b.table):
            return 0.0  # equal values: the mean of n zeros
        diff = a.values - b.values
        diff *= diff
        return float(np.mean(diff))
    if isinstance(a, ImageBuffer) and isinstance(b, ImageBuffer):
        if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
            raise ValueError("image dimension mismatch")
        # the sum of squares is an exact integer, so this is the float64 mean
        # of the squared differences, whatever order that mean sums in
        diff = np.subtract(a.samples, b.samples, dtype=np.int32)
        diff *= diff
        return int(diff.sum(dtype=np.int64)) / diff.size
    raise ValueError("cannot compare an image with a source vector")


def signal_peak(a: Signal) -> float:
    return 255.0 if isinstance(a, ImageBuffer) else 1.0


def signal_samples(a: Signal) -> int:
    """What a rate is counted per: pixels of an image, values of a source vector."""
    return a.pixel_count if isinstance(a, ImageBuffer) else len(a)


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


def compress_chain(
    x: Signal, levels: tuple[int, ...], codec: Codec, rate: bool = True, applied: int = 0
):
    """Apply the codec sequentially, y_i = f(y_{i-1}, q_i), and return the
    last stage's (reconstruction, bits) from Codec.stage: only that stage
    asks for its rate, and only when rate is true.  With applied=n, x is
    already the output of the first n stages: only levels[n:] run, still
    numbered from the chain's start in error messages, and with no stage
    left x is returned as it is, with bits None."""
    if not levels:
        raise ValueError("empty quality sequence")
    y, bits = x, None
    for stage, q in enumerate(levels[applied:], start=applied + 1):
        try:
            y, bits = codec.stage(y, q, rate and stage == len(levels))
        except Exception as e:
            raise CodecError(f"chain stage {stage} (quality {q}) failed: {e}") from e
    return y, bits


@dataclasses.dataclass
class PairOutcome:
    """Per-(item, trial) measurements shared by rho, theorem-1, and RD checks.

    All distortions are stored as MSE; other kinds are derived.  The stream
    decides which fields are measured: a STREAM_RHO outcome has None for
    single_bpp and chain_final_bpp, and a STREAM_RD outcome None for
    mse_single_vs_chain.
    """

    item: int
    trial: int
    levels: tuple[int, ...]
    mse_single_vs_chain: float | None  # d(f(x, q_min), chain final) -- the rho term
    mse_x_vs_single: float
    mse_x_vs_chain: float
    single_bpp: float | None
    chain_final_bpp: float | None
    peak: float


@contextlib.contextmanager
def _failing_in(stream: int, q_min: int):
    """Name the stream and q_min in any failure, as a CodecError."""
    try:
        yield
    except Exception as e:
        raise CodecError(f"{STREAM_NAMES[stream]} cell (q_min={q_min}) failed: {e}") from e


def evaluate_cell(
    ds: Dataset,
    codec: Codec,
    q_min: int,
    k_list: list[int],
    b: int,
    mode: str = "forced-min",
    master_seed: int = 0,
    streams: tuple[int, ...] = (STREAM_RHO,),
) -> dict[int, dict[int, list[PairOutcome]]]:
    """Run b independent chains per dataset item for each k at one q_min, in
    each stream of streams, and return {stream: {k: outcomes}}, ordered by
    (item, trial) within each k.

    The stream decides what a chain measures: STREAM_RHO (the rho grid)
    reads d(f(x, q_min), chain) and no rate, STREAM_RD (the RD curves) reads
    the rates and d(x, chain).  Each item's single pass at q_min is computed
    once and shared by every stream and k, with its rate when STREAM_RD is
    in streams.  A chain that starts at q_min continues from it, and the
    chain (q_min,) is it.  Every codec call is Codec.stage.  A failure raises
    CodecError naming the stream.  streams must be distinct ids of
    STREAM_NAMES, at least one; anything else raises ValueError.
    """
    if not streams or len(set(streams)) < len(streams) or not set(streams) <= set(STREAM_NAMES):
        raise ValueError(f"streams must be distinct ids in {sorted(STREAM_NAMES)}: {streams!r}")
    codec.check_quality(q_min)
    if b < 1:
        raise ValueError("b must be >= 1")
    q_max = codec.num_levels
    rated = STREAM_RD in streams
    cells = {stream: {k: [] for k in k_list} for stream in streams}
    for i, x in enumerate(ds.items):
        peak, samples = signal_peak(x), signal_samples(x)
        with _failing_in(STREAM_RD if rated else STREAM_RHO, q_min):
            single, single_bits = compress_chain(x, (q_min,), codec, rated)
            mse_x_single = _mse(x, single)
        for stream in streams:
            rd = stream == STREAM_RD
            with _failing_in(stream, q_min):
                for k, t in itertools.product(cells[stream], range(b)):
                    rng = derive_rng(master_seed, stream, q_min, k, i, t)
                    levels = sample_quality_sequence(q_min, q_max, k, mode, rng)
                    if levels == (q_min,):
                        y, bits = single, single_bits
                    else:
                        start, applied = (single, 1) if levels[0] == q_min else (x, 0)
                        y, bits = compress_chain(start, levels, codec, rd, applied)
                    # the single pass is 0 from itself and mse_x_single from x: no _mse
                    cells[stream][k].append(
                        PairOutcome(
                            item=i,
                            trial=t,
                            levels=levels,
                            mse_single_vs_chain=(
                                None if rd else 0.0 if y is single else _mse(single, y)
                            ),
                            mse_x_vs_single=mse_x_single,
                            mse_x_vs_chain=mse_x_single if y is single else _mse(x, y),
                            single_bpp=single_bits / samples if rd else None,
                            chain_final_bpp=bits / samples if rd else None,
                            peak=peak,
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
