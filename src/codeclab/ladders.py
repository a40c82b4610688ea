"""Scalar quantizer codebook ladders for the unit uniform source.

Two ladder families:

* midpoint -- level q places 2^(q-1) codewords at the cell midpoints
  (2i-1)/2^q.  Lower levels are NOT subsets of higher ones, so chained
  re-quantization at mixed qualities drifts.
* nested -- level Q equals the midpoint level Q; each lower level is a
  subset of the level above it, chosen to minimize expected squared error
  on U(0,1) among subsets whose decision boundaries coincide with the
  parent level's boundaries.  The boundary-alignment constraint is what
  makes chained quantization at any quality sequence collapse exactly to
  a single pass at the minimum quality.

All codewords are dyadic rationals, hence exact in float64; quantization
and chaining are bit-exact.
"""
from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import numpy as np


@dataclasses.dataclass(frozen=True)
class CodebookLadder:
    """Per-quality sorted codeword tuples; index 1 is the lowest quality."""

    levels: tuple[tuple[float, ...], ...]
    kind: str  # "nested" | "midpoint"

    def __post_init__(self):
        if self.kind not in ("nested", "midpoint"):
            raise ValueError(f"unknown ladder kind {self.kind!r}")
        sizes = [len(lv) for lv in self.levels]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("level sizes must strictly increase")
        for lv in self.levels:
            if list(lv) != sorted(lv):
                raise ValueError("codewords must be sorted ascending")
        if self.kind == "nested":
            for lo, hi in zip(self.levels, self.levels[1:]):
                if not set(lo) <= set(hi):
                    raise ValueError("nested ladder violates subset chain")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, q: int) -> tuple[float, ...]:
        if not 1 <= q <= self.num_levels:
            raise ValueError(f"quality {q} outside ladder [1, {self.num_levels}]")
        return self.levels[q - 1]


MAX_MIDPOINT_LEVELS = 16


def _midpoint_level(q: int) -> list[Fraction]:
    return [Fraction(2 * i - 1, 2**q) for i in range(1, 2 ** (q - 1) + 1)]


def build_midpoint_ladder(q_levels: int) -> CodebookLadder:
    """Midpoint ladder: level q holds (2i-1)/2^q for i = 1..2^(q-1)."""
    if q_levels < 1:
        raise ValueError("need at least one level")
    if q_levels > MAX_MIDPOINT_LEVELS:
        # the top level doubles with each level; 2^(q-1) codewords to build
        raise ValueError(
            f"midpoint ladder holds at most {MAX_MIDPOINT_LEVELS} levels"
            f" ({2 ** (MAX_MIDPOINT_LEVELS - 1)} top codewords), got {q_levels}"
        )
    levels = tuple(
        tuple(float(c) for c in _midpoint_level(q)) for q in range(1, q_levels + 1)
    )
    return CodebookLadder(levels=levels, kind="midpoint")


def _boundaries(codewords: list[Fraction]) -> set[Fraction]:
    return {(a + b) / 2 for a, b in zip(codewords, codewords[1:])}


def uniform_source_mse(codewords: list[Fraction]) -> Fraction:
    """Exact E[(x - Q(x))^2] for x ~ U(0,1) under nearest-codeword rounding."""
    cws = sorted(codewords)
    bounds = [Fraction(0)] + sorted(_boundaries(cws)) + [Fraction(1)]
    total = Fraction(0)
    for c, lo, hi in zip(cws, bounds, bounds[1:]):
        total += ((hi - c) ** 3 - (lo - c) ** 3) / 3
    return total


def build_nested_ladder(q_levels: int) -> CodebookLadder:
    """Nested ladder via exhaustive constrained subset search.

    Working down from the midpoint top level, each level q keeps the
    2^(q-1)-subset of level q+1 that minimizes the exact uniform-source MSE,
    restricted to subsets whose decision boundaries all coincide with parent
    boundaries (otherwise a parent codeword can land on or across a child
    boundary and chained quantization diverges from the single pass).
    Ties break on the lexicographically smallest index set.  MSE is
    integrated exactly with rational arithmetic.
    """
    if q_levels < 1:
        raise ValueError("need at least one level")
    if q_levels > 4:
        # C(2^q, 2^(q-1)) candidates; beyond Q=4 the exhaustive search explodes
        raise ValueError("nested ladder search is exhaustive; at most 4 levels supported")
    exact_levels: dict[int, list[Fraction]] = {q_levels: _midpoint_level(q_levels)}
    for q in range(q_levels - 1, 0, -1):
        parent = exact_levels[q + 1]
        parent_bounds = _boundaries(parent)
        want = 2 ** (q - 1)
        best: tuple[Fraction, tuple[int, ...]] | None = None
        for idxs in itertools.combinations(range(len(parent)), want):
            subset = [parent[i] for i in idxs]
            if not _boundaries(subset) <= parent_bounds:
                continue
            key = (uniform_source_mse(subset), idxs)
            if best is None or key < best:
                best = key
        if best is None:
            raise RuntimeError(f"no chain-consistent subset of size {want}")
        exact_levels[q] = [parent[i] for i in best[1]]
    levels = tuple(
        tuple(float(c) for c in exact_levels[q]) for q in range(1, q_levels + 1)
    )
    return CodebookLadder(levels=levels, kind="nested")


def quantize_array(xs: np.ndarray, codewords) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of the nearest codeword to each x in [0, 1]; exact ties
    go to the LARGER codeword."""
    cw = np.asarray(codewords, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):  # NaN fails too
        raise ValueError("values outside [0, 1]")
    # digitize(x, mids) maps x == midpoint into the upper bin
    idx = np.digitize(xs, (cw[:-1] + cw[1:]) / 2)
    return idx, cw[idx]
