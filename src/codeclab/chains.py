"""Re-compression chains, distortion metrics, and the per-cell statistics:
the Monte Carlo rho estimate and the theorem-1 check.

rho(q_min, k) is the expected distortion between the single-pass
reconstruction at q_min and the k-round chained reconstruction, estimated
over (item, trial) pairs with a fresh quality sequence per pair.

Every random draw comes from a stream derived deterministically from
(master_seed, purpose, q_min, k, item, trial).  sweep_levels is the one
place that runs Monte Carlo chains, an item at a time, in lockstep groups:
the rho grid and the theorem-1 check read its grid cells, at the levels its
caller names, and the RD curves its RD cells, at every level.  It relies
on the Codec contract that f is deterministic: a chain runs no stage that
it has run already, a stage f(x, q) is the item's single pass at q, and
stages stacked into one stage_many call give what each gives alone.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import zlib

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


def _same_signal(a: Signal, b: Signal) -> bool:
    """a and b hold equal samples, known without reading them: one object,
    or factored vectors on one cell map with equal tables."""
    return a is b or (
        isinstance(a, SourceVector)
        and isinstance(b, SourceVector)
        and a.cells is not None
        and a.cells is b.cells
        and np.array_equal(a.table, b.table)
    )


_MSE_CHUNK = 32768  # squares summed per uint32 partial sum in an image _mse


def _mse(a: Signal, b: Signal) -> float:
    if _same_signal(a, b):
        return 0.0  # equal samples: the mean of n zeros
    if isinstance(a, SourceVector) and isinstance(b, SourceVector):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        # on one cell map, gathering the table difference gives the same
        # float64 per sample as subtracting the gathered values
        if a.cells is not None and a.cells is b.cells:
            diff = (a.table - b.table)[a.cells]
        else:
            diff = a.values - b.values
        diff *= diff
        return float(np.mean(diff))
    if isinstance(a, ImageBuffer) and isinstance(b, ImageBuffer):
        if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
            raise ValueError("image dimension mismatch")
        # the sum of squares is an exact integer, so this is the float64 mean
        # of the squared differences, whatever order that mean sums in.  The
        # int16 differences are squared in uint16: a square is at most 255**2
        # < 2**16, so the wrapped product of their two's-complement bits is it
        diff = np.subtract(a.samples, b.samples, dtype=np.int16).view(np.uint16)
        diff *= diff
        n = diff.size
        if n <= _MSE_CHUNK:
            return int(diff.sum(dtype=np.int64)) / n
        # uint32 sums of whole chunks, which cost about half an int64 sum
        # and are exact: a chunk's sum is at most 32768 * 255**2 < 2**32
        k = n - n % _MSE_CHUNK
        chunks = diff[:k].reshape(-1, _MSE_CHUNK).sum(axis=1, dtype=np.uint32)
        return (int(chunks.sum(dtype=np.int64)) + int(diff[k:].sum(dtype=np.int64))) / n
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


def _fingerprint(a: Signal):
    """A cheap digest, equal for signals that _equal_samples calls equal: an
    image's CRC-32, read in place, and a factored vector's cell map and table
    CRC-32, which never builds its values."""
    if isinstance(a, ImageBuffer):
        return zlib.crc32(a.samples)
    return id(a) if a.cells is None else (id(a.cells), zlib.crc32(a.table))


def _equal_samples(a: Signal, b: Signal) -> bool:
    """Exact: _same_signal, or images with equal samples."""
    return _same_signal(a, b) or (
        isinstance(a, ImageBuffer) and isinstance(b, ImageBuffer) and a.same_as(b)
    )


class SinglePasses:
    """An input x's single passes, by_q = {q: codec.stage(x, q, ...)} as
    (reconstruction, bits), and the stage memo they seed every chain with:
    memo = {(q, x's fingerprint): (x, reconstruction, bits, its fingerprint)}.
    The fingerprints are taken once here for every chain, rather than kept
    on x, whose samples may be written."""

    def __init__(self, x: Signal, by_q: dict[int, tuple]):
        self.x, self.by_q, self.fingerprint = x, by_q, _fingerprint(x)
        self.memo = {(q, self.fingerprint): (x, out, bits, _fingerprint(out))
                     for q, (out, bits) in by_q.items()}


def compress_chains(
    x: Signal, sequences: list[tuple[int, ...]], codec: Codec, rates: list[bool],
    seed: SinglePasses | None = None, names: list[str] | None = None,
) -> list[tuple]:
    """Run one chain from x per quality sequence, y_i = f(y_{i-1}, q_i), and
    return each chain's last stage (reconstruction, bits): only that stage
    asks for its rate, and only when the chain's rates entry is true; bits
    is None otherwise.

    The chains run in lockstep, one depth at a time, and the stages of a
    depth that no chain's memo answers go through one codec.stage_many call.
    A chain runs no stage twice.  Its memo is one dict, (q, fingerprint of
    the input) -> (input, output, bits, fingerprint of the output), seeded
    with x's single passes in seed, and a stage whose key is kept and whose
    input holds the kept input's samples (_equal_samples) takes that output
    with no codec call.  This is exact by the Codec contract: stage is a
    pure function of its input's samples and q.  A fingerprint collision is
    a miss: the stage runs and takes the slot.  Each signal is fingerprinted
    at most once, an output only when its chain has a later stage.  A rated
    last stage that finds only a stage kept without its rate runs.  Chains
    share no memo, so each runs the stages it would run alone, and the
    memos live for this call.

    A failing stage_many call of more than one chain runs every chain again
    alone, in order, and returns their results if none fails: a codec may
    fail only on stacked input.  So the failure raised is the first a
    chain-by-chain loop meets, a CodecError naming the depth, numbered from
    the chains' start, and the quality, prefixed "{name} failed: " by the
    chain's entry in names, if given."""
    if not all(sequences):
        raise ValueError("empty quality sequence")
    if seed is not None and seed.x is not x:
        raise ValueError("seed holds the single passes of another input")
    longest = max(map(len, sequences), default=0)
    if seed is None:
        memos, fp = [{} for _ in sequences], _fingerprint(x) if longest > 1 else None
    else:
        memos, fp = [dict(seed.memo) for _ in sequences], seed.fingerprint
    ys, fps, bits = [x] * len(sequences), [fp] * len(sequences), [None] * len(sequences)
    names = names or [None] * len(sequences)
    for depth in range(1, longest + 1):
        misses = []  # (chain, q, rated)
        for c, levels in enumerate(sequences):
            if depth > len(levels):
                continue
            q = levels[depth - 1]
            rated = rates[c] and depth == len(levels)
            hit = memos[c].get((q, fps[c]))  # (input, output, bits, output fingerprint)
            if hit and not (rated and hit[2] is None) and _equal_samples(hit[0], ys[c]):
                _, ys[c], bits[c], fps[c] = hit
            else:
                misses.append((c, q, rated))
        if not misses:
            continue
        missed, qs, rated = zip(*misses)
        try:
            outs = codec.stage_many([ys[c] for c in missed], qs, rated)
        except Exception as e:
            if len(sequences) > 1:
                break
            label = f"{names[0]} failed: " if names[0] else ""
            raise CodecError(f"{label}chain stage {depth} (quality {qs[0]}) failed: {e}") from e
        for (c, q, _), (out, out_bits) in zip(misses, outs):
            out_fp = _fingerprint(out) if depth < len(sequences[c]) else None
            memos[c][q, fps[c]] = (ys[c], out, out_bits, out_fp)
            ys[c], fps[c], bits[c] = out, out_fp, out_bits
    else:
        return [(y, b if rate else None) for y, b, rate in zip(ys, bits, rates)]
    # a stacked call failed: each chain alone, in order
    return [out for levels, rate, name in zip(sequences, rates, names)
            for out in compress_chains(x, [levels], codec, [rate], seed, [name])]


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


def sweep_levels(
    ds: Dataset,
    codec: Codec,
    grid: list[int],
    rd: bool,
    k_list: list[int],
    b: int,
    mode: str = "forced-min",
    master_seed: int = 0,
) -> tuple[dict[int, dict[int, list[PairOutcome]]], dict[int, dict[int, list[PairOutcome]]]]:
    """Run b chains per item and k in each cell, and return (grid_cells,
    rd_cells), each {q_min: {k: outcomes}} with outcomes in (item, trial)
    order.  grid_cells holds a cell per distinct level of grid, in first-seen
    order, whose chains read d(f(x, q_min), chain) and no rate; rd_cells, if
    rd, one per ladder level, whose chains read the rates and d(x, chain).
    b, k_list, ds's items (at least one) and every grid level are checked,
    and each item's sequences drawn, before that item's first stage.

    Items go one at a time.  An item's sequences are drawn over the sorted
    levels, the grid's before the RD's at each, in (k, trial) order.  Its
    single passes at those levels run first, as the chains (q,), unseeded,
    and rated (and named RD in a failure) iff rd; they seed every chain's
    memo (compress_chains), so the chain (q_min,) is the single pass.  The
    chains then run in draw order.  Passes and chains alike go in lockstep
    groups of codec.stack_size(x), each one compress_chains call that names
    every chain's cell, so the CodecError raised is the first failing
    chain's, prefixed with its cell's name; a group's outputs are dropped
    before the next runs, and the item's passes before the next item's."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if not k_list:
        raise ValueError("k_list must be non-empty")
    if not ds.items:
        raise ValueError("dataset has no items")
    for q in grid:
        codec.check_quality(q)
    q_max = codec.num_levels
    grid_cells = {q: {k: [] for k in k_list} for q in grid}
    rd_cells = {q: {k: [] for k in k_list} for q in range(1, q_max + 1)} if rd else {}
    levels = sorted(grid_cells.keys() | rd_cells.keys())
    cells = [(stream, q, by_q[q], f"{STREAM_NAMES[stream]} cell (q_min={q})")  # in draw order
             for q in levels
             for stream, by_q in ((STREAM_RHO, grid_cells), (STREAM_RD, rd_cells)) if q in by_q]

    def record(group: list) -> None:  # of item i, in the loop below
        *_, sequences, rates, names = zip(*group)
        results = compress_chains(x, sequences, codec, rates, passes, names)
        for (q_min, outcomes, t, levels, rated, name), (y, bits) in zip(group, results):
            single, single_bits = passes.by_q[q_min]
            try:
                if q_min not in mse_x_single:
                    mse_x_single[q_min] = _mse(x, single)
                # a chain that ends on the single pass's samples is 0 from
                # it and mse_x_single from x: no _mse
                is_single = _same_signal(y, single)
                outcomes.append(
                    PairOutcome(
                        item=i,
                        trial=t,
                        levels=levels,
                        mse_single_vs_chain=(
                            None if rated else 0.0 if is_single else _mse(single, y)
                        ),
                        mse_x_vs_single=mse_x_single[q_min],
                        mse_x_vs_chain=mse_x_single[q_min] if is_single else _mse(x, y),
                        single_bpp=single_bits / samples if rated else None,
                        chain_final_bpp=bits / samples if rated else None,
                        peak=peak,
                    )
                )
            except Exception as e:
                raise CodecError(f"{name} failed: {e}") from e

    # each item's passes, as the chains (levels, rated, name) of their cells
    singles = [((q,), rd, name) for stream, q, _, name in cells
               if stream == (STREAM_RD if rd else STREAM_RHO)]
    for i, x in enumerate(ds.items):
        chains = [  # (q_min, outcomes, trial, levels, rated, name)
            (q_min, by_k[k], t, sample_quality_sequence(
                q_min, q_max, k, mode, derive_rng(master_seed, stream, q_min, k, i, t)),
             stream == STREAM_RD, name)
            for stream, q_min, by_k, name in cells
            for k, t in itertools.product(by_k, range(b))
        ]
        size = codec.stack_size(x)
        # no local holds a pass, so none is alive when the next item's first runs
        passes = SinglePasses(x, dict(zip(levels, itertools.chain.from_iterable(
            compress_chains(x, sequences, codec, rates, None, names)
            for sequences, rates, names in (
                zip(*singles[s : s + size]) for s in range(0, len(singles), size))))))
        peak, samples = signal_peak(x), signal_samples(x)
        mse_x_single = {}  # q_min -> d(x, f(x, q_min)), taken in its first chain's cell
        for start in range(0, len(chains), size):
            record(chains[start : start + size])  # its outputs go with its frame
        del passes  # before the next item's passes are built
    return grid_cells, rd_cells


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
