from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeclab import build_midpoint_ladder, build_nested_ladder
from codeclab.ladders import quantize_array


# --- independent oracle -------------------------------------------------
#
# Brute-force search for the best nested subsets, written against the
# behavioral requirement directly: a candidate subset is admissible iff
# quantizing each parent-level output again with the subset agrees with
# quantizing the raw input with the subset, everywhere on a dense grid.
# MSE is the exact piecewise integral in rational arithmetic.


def _boundaries(codewords):
    return {(a + b) / 2 for a, b in zip(codewords, codewords[1:])}


def _uniform_source_mse(codewords):
    """Exact E[(x - Q(x))^2] for x ~ U(0,1) under nearest-codeword rounding."""
    cws = sorted(codewords)
    bounds = [Fraction(0)] + sorted(_boundaries(cws)) + [Fraction(1)]
    total = Fraction(0)
    for c, lo, hi in zip(cws, bounds, bounds[1:]):
        total += ((hi - c) ** 3 - (lo - c) ** 3) / 3
    return total


def _reference_nested_levels(q_levels):
    """The exhaustive subset search build_nested_ladder replaced, with no
    level cap: every subset of the level above whose boundaries are parent
    boundaries, scored by the rational MSE, ties to the smallest index set."""
    exact = {q_levels: [Fraction(2 * i - 1, 2**q_levels)
                        for i in range(1, 2 ** (q_levels - 1) + 1)]}
    for q in range(q_levels - 1, 0, -1):
        parent = exact[q + 1]
        parent_bounds = _boundaries(parent)
        best = None
        for idxs in combinations(range(len(parent)), 2 ** (q - 1)):
            subset = [parent[i] for i in idxs]
            if not _boundaries(subset) <= parent_bounds:
                continue
            key = (_uniform_source_mse(subset), idxs)
            if best is None or key < best:
                best = key
        exact[q] = [parent[i] for i in best[1]]
    return tuple(tuple(float(c) for c in exact[q]) for q in range(1, q_levels + 1))


def _q(xs, cw):
    cw = np.asarray(cw, dtype=np.float64)
    return cw[np.digitize(xs, (cw[:-1] + cw[1:]) / 2)]


def _chain_consistent(parent, subset, grid):
    return np.array_equal(_q(_q(grid, parent), subset), _q(grid, subset))


def _oracle_best_subset(parent, size, grid):
    best = None
    for idxs in combinations(range(len(parent)), size):
        subset = [parent[i] for i in idxs]
        if not _chain_consistent(parent, [float(c) for c in subset], grid):
            continue
        key = (_uniform_source_mse(subset), idxs)
        if best is None or key < best:
            best = key
    return [parent[i] for i in best[1]], best[0]


class TestMidpointLadder:
    def test_q3_levels(self):
        ladder = build_midpoint_ladder(3)
        assert ladder.level(1) == (0.5,)
        assert ladder.level(2) == (0.25, 0.75)
        assert ladder.level(3) == (0.125, 0.375, 0.625, 0.875)
        assert ladder.kind == "midpoint"

    def test_general_formula(self):
        ladder = build_midpoint_ladder(5)
        for q in range(1, 6):
            expected = tuple((2 * i - 1) / 2**q for i in range(1, 2 ** (q - 1) + 1))
            assert ladder.level(q) == expected

    def test_bad_level_access(self):
        with pytest.raises(ValueError):
            build_midpoint_ladder(3).level(4)

    def test_too_many_levels_guarded(self):
        assert build_midpoint_ladder(16).level(16)[-1] == 1 - 2**-16
        with pytest.raises(ValueError, match="at most 16"):
            build_midpoint_ladder(17)


class TestNestedLadder:
    def test_matches_bruteforce_oracle(self):
        grid = np.linspace(0.0, 1.0, 20_001)
        parent = [Fraction(2 * i - 1, 8) for i in range(1, 5)]
        best2, mse2 = _oracle_best_subset(parent, 2, grid)
        best1, mse1 = _oracle_best_subset(best2, 1, grid)
        ladder = build_nested_ladder(3)
        assert ladder.level(2) == tuple(float(c) for c in best2)
        assert ladder.level(1) == tuple(float(c) for c in best1)
        # frozen from the oracle above
        assert best2 == [Fraction(1, 8), Fraction(7, 8)]
        assert mse2 == Fraction(7, 192)
        assert best1 == [Fraction(1, 8)]
        assert mse1 == Fraction(43, 192)

    def test_top_level_is_midpoint(self):
        assert build_nested_ladder(3).level(3) == build_midpoint_ladder(3).level(3)

    def test_subset_chain(self):
        ladder = build_nested_ladder(4)
        for i in range(1, 4):
            for j in range(i + 1, 5):
                assert set(ladder.level(i)) <= set(ladder.level(j))

    def test_exact_mse_helper(self):
        # spot values against the rational integral
        assert _uniform_source_mse([Fraction(1, 8), Fraction(5, 8)]) == Fraction(11, 384)
        assert _uniform_source_mse([Fraction(5, 8)]) == Fraction(152, 1536)

    @pytest.mark.parametrize("levels", range(1, 6))
    def test_matches_exhaustive_search(self, levels):
        assert build_nested_ladder(levels).levels == _reference_nested_levels(levels)

    def test_too_many_levels_guarded(self):
        assert len(build_nested_ladder(8).level(8)) == 128
        with pytest.raises(ValueError, match="at most 8"):
            build_nested_ladder(9)


class TestTopCellGrid:
    """Every decision boundary of every level lies on the top level's grid
    i / 2^(L-1), so a sample is quantised at every level as its top cell is."""

    @pytest.mark.parametrize("build,levels", [
        *((build_midpoint_ladder, n) for n in range(1, 17)),
        *((build_nested_ladder, n) for n in range(1, 9)),
    ])
    def test_boundaries_on_top_grid(self, build, levels):
        ladder = build(levels)
        cells = 2 ** (levels - 1)
        assert len(ladder.level(levels)) == cells
        for q in range(1, levels + 1):
            codewords = [Fraction(c) for c in ladder.level(q)]
            for a, b in zip(codewords, codewords[1:]):
                assert ((a + b) / 2 * cells).denominator == 1


class TestQuantizeNearest:
    CODEWORDS = (0.125, 0.375, 0.625, 0.875)

    def test_region_rule(self):
        _, v = quantize_array([0.3], self.CODEWORDS)
        assert list(v) == [0.375]

    def test_tie_goes_larger(self):
        _, v = quantize_array([0.25, 0.5, 0.75], self.CODEWORDS)
        assert list(v) == [0.375, 0.625, 0.875]

    def test_codeword_fixed_point(self):
        idx, v = quantize_array(list(self.CODEWORDS), self.CODEWORDS)
        assert list(idx) == [0, 1, 2, 3]
        assert list(v) == list(self.CODEWORDS)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_array([0.5, 1.5], (0.5,))
        with pytest.raises(ValueError):
            quantize_array([-0.25], (0.5,))
        with pytest.raises(ValueError):
            quantize_array([0.5, float("nan")], (0.5,))

    @given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), q=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_output_is_codeword_and_nearest(self, xs, q):
        codewords = build_midpoint_ladder(4).level(q)
        idx, vs = quantize_array(xs, codewords)
        for x, i, v in zip(xs, idx, vs):
            assert v == codewords[i]
            assert abs(x - v) == min(abs(x - c) for c in codewords)

    @given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, xs):
        codewords = build_midpoint_ladder(3).level(3)
        _, v = quantize_array(xs, codewords)
        _, v2 = quantize_array(v, codewords)
        assert np.array_equal(v2, v)
