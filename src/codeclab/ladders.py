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
# A nested level of n parent codewords takes O(n^3) DP steps, and n doubles
# with each level: a build takes about 0.15 s at 8 levels, 1.3 s at 9 and
# 15 s at 10 on one 2-vCPU Xeon.
MAX_NESTED_LEVELS = 8


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
        tuple((2 * i - 1) / 2**q for i in range(1, 2 ** (q - 1) + 1))
        for q in range(1, q_levels + 1)
    )
    return CodebookLadder(levels=levels, kind="midpoint")


def _best_subset(parent: list[int], size: int, top: int) -> list[int]:
    """The size-subset of parent (codeword numerators over top) that
    build_nested_ladder keeps, by a suffix DP: on U(0,1) the MSE of sorted
    codewords c_0 < ... < c_m is c_0^3/3 + sum(gap^3)/12 + (1 - c_m)^3/3, a sum
    over consecutive codewords, and 12 top^3 MSE is an integer."""
    twice_bounds = {a + b for a, b in zip(parent, parent[1:])}
    # best[i]: least (cost, indices) of a run of codewords from parent[i] to
    # the end, one codeword longer each round; each step's midpoint must be a
    # parent boundary
    best = {i: (4 * (top - c) ** 3, (i,)) for i, c in enumerate(parent)}
    for _ in range(size - 1):
        shorter, best = best, {}
        for i, a in enumerate(parent):
            steps = [((parent[j] - a) ** 3 + cost, (i,) + idxs)
                     for j, (cost, idxs) in shorter.items()
                     if j > i and a + parent[j] in twice_bounds]
            if steps:
                best[i] = min(steps)
    _, idxs = min((4 * parent[i] ** 3 + cost, idxs) for i, (cost, idxs) in best.items())
    return [parent[i] for i in idxs]


def build_nested_ladder(q_levels: int) -> CodebookLadder:
    """Nested ladder via an exact constrained subset DP.

    Working down from the midpoint top level, each level q keeps the
    2^(q-1)-subset of level q+1 that minimizes the exact uniform-source MSE,
    restricted to subsets whose decision boundaries all coincide with parent
    boundaries (otherwise a parent codeword can land on or across a child
    boundary and chained quantization diverges from the single pass).
    Ties break on the lexicographically smallest index set.  MSE is
    integrated exactly in integer arithmetic.
    """
    if q_levels < 1:
        raise ValueError("need at least one level")
    if q_levels > MAX_NESTED_LEVELS:
        raise ValueError(
            f"nested ladder holds at most {MAX_NESTED_LEVELS} levels, got {q_levels}"
        )
    top = 2**q_levels
    numerators = [list(range(1, top, 2))]
    for q in range(q_levels - 1, 0, -1):
        numerators.insert(0, _best_subset(numerators[0], 2 ** (q - 1), top))
    levels = tuple(tuple(c / top for c in level) for level in numerators)
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
