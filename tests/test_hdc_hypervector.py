"""Unit and property tests for the hypervector primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import (
    HypervectorSpace,
    flip_prefix_table,
    hamming_distance,
    normalized_hamming,
    random_hv,
)


class TestRandomHV:
    def test_shape_and_values(self, rng):
        hv = random_hv(1000, rng)
        assert hv.shape == (1000,)
        assert set(np.unique(hv)).issubset({0, 1})

    def test_balanced_ones(self, rng):
        hv = random_hv(10_000, rng)
        assert 0.45 < hv.mean() < 0.55

    def test_rejects_non_positive_dimension(self, rng):
        with pytest.raises(ValueError):
            random_hv(0, rng)

    def test_pseudo_orthogonality_of_random_pairs(self, rng):
        a = random_hv(10_000, rng)
        b = random_hv(10_000, rng)
        assert 0.45 < normalized_hamming(a, b) < 0.55


class TestFlipPrefixTable:
    def test_rows_flip_exactly_their_prefix(self, rng):
        base = random_hv(64, rng)
        table = flip_prefix_table(base, [0, 10, 20])
        assert table.shape == (3, 64) and table.dtype == np.uint8
        for row, flips in zip(table, [0, 10, 20]):
            assert hamming_distance(base, row) == flips
            assert np.array_equal(row[:flips], 1 - base[:flips])
            assert np.array_equal(row[flips:], base[flips:])

    def test_offset_shifts_the_flipped_run(self, rng):
        base = random_hv(64, rng)
        (row,) = flip_prefix_table(base, [8], offset=32)
        assert hamming_distance(base, row) == 8
        assert np.array_equal(row[:32], base[:32])
        assert np.array_equal(row[32:40], 1 - base[32:40])
        assert np.array_equal(row[40:], base[40:])

    def test_run_past_the_end_stops_at_dimension(self, rng):
        base = random_hv(16, rng)
        (row,) = flip_prefix_table(base, [100])
        assert hamming_distance(base, row) == 16

    def test_second_half_offset_with_odd_dimension(self, rng):
        """Column tables flip from ``d // 2`` with counts clipped to
        ``d // 2``: for odd ``d`` the last element is never flipped."""
        d = 65
        base = random_hv(d, rng)
        flips = [0, 1, 17, d // 2]
        table = flip_prefix_table(base, flips, offset=d // 2)
        for row, count in zip(table, flips):
            expected = base.copy()
            expected[d // 2 : d // 2 + count] ^= 1
            assert np.array_equal(row, expected)
        assert np.array_equal(table[:, : d // 2], np.tile(base[: d // 2], (4, 1)))
        assert (table[:, -1] == base[-1]).all()

    def test_inputs_are_never_mutated(self, rng):
        base = random_hv(32, rng)
        original = base.copy()
        flips = [3, 8]
        flip_prefix_table(base, flips, offset=4)
        assert np.array_equal(base, original)
        assert flips == [3, 8]


class TestHypervectorSpace:
    def test_reproducible_with_seed(self):
        a = HypervectorSpace(256, seed=42).random()
        b = HypervectorSpace(256, seed=42).random()
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = HypervectorSpace(256, seed=1).random()
        b = HypervectorSpace(256, seed=2).random()
        assert not np.array_equal(a, b)

    def test_random_batch_shape(self, space):
        batch = space.random_batch(5)
        assert batch.shape == (5, space.dimension)

    def test_zeros(self, space):
        assert space.zeros().sum() == 0

    def test_subspace_dimension(self, space):
        sub = space.subspace(100)
        assert sub.dimension == 100
        assert sub.random().shape == (100,)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            HypervectorSpace(0)


@given(
    dimension=st.integers(min_value=8, max_value=512),
    offset_frac=st.floats(min_value=0.0, max_value=1.0),
    count_a=st.integers(min_value=0, max_value=512),
    count_b=st.integers(min_value=0, max_value=512),
)
@settings(max_examples=50, deadline=None)
def test_property_nested_prefix_flips_give_manhattan_distance(
    dimension, offset_frac, count_a, count_b
):
    """Rows flipping nested prefixes of one HV are |a - b| apart."""
    rng = np.random.default_rng(dimension)
    base = random_hv(dimension, rng)
    offset = int(offset_frac * dimension)
    region = dimension - offset
    flips = [min(count_a, region), min(count_b, region)]
    a, b = flip_prefix_table(base, flips, offset=offset)
    assert hamming_distance(a, b) == abs(flips[0] - flips[1])
