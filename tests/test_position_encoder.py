"""Tests for the position encoders (Fig. 3 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import HypervectorSpace, hamming_distance, normalized_hamming
from repro.seghdc import (
    BlockDecayPositionEncoder,
    RandomPositionEncoder,
    UniformPositionEncoder,
    make_position_encoder,
)


def _make_block_encoder(dimension=1024, height=12, width=16, alpha=1.0, beta=1, seed=0):
    space = HypervectorSpace(dimension, seed=seed)
    return BlockDecayPositionEncoder(space, height, width, alpha=alpha, beta=beta)


class TestBlockDecayEncoderStructure:
    def test_row_and_column_counts(self):
        encoder = _make_block_encoder()
        assert encoder.row_hypervectors().shape == (12, 1024)
        assert encoder.column_hypervectors().shape == (16, 1024)

    def test_rows_flip_only_first_half(self):
        encoder = _make_block_encoder()
        rows = encoder.row_hypervectors()
        half = encoder.dimension // 2
        # Every row HV agrees with row 0 on the entire second half.
        assert np.array_equal(rows[:, half:], np.tile(rows[0, half:], (12, 1)))

    def test_columns_flip_only_second_half(self):
        encoder = _make_block_encoder()
        cols = encoder.column_hypervectors()
        half = encoder.dimension // 2
        assert np.array_equal(cols[:, :half], np.tile(cols[0, :half], (16, 1)))

    def test_encode_is_xor_of_row_and_column(self):
        encoder = _make_block_encoder()
        expected = np.bitwise_xor(
            encoder.row_hypervectors()[3], encoder.column_hypervectors()[5]
        )
        assert np.array_equal(encoder.encode(3, 5), expected)

    def test_encode_grid_matches_pointwise_encode(self):
        encoder = _make_block_encoder(height=5, width=6)
        grid = encoder.encode_grid()
        assert grid.shape == (5, 6, 1024)
        for row in range(5):
            for col in range(6):
                assert np.array_equal(grid[row, col], encoder.encode(row, col))

    def test_out_of_range_position(self):
        encoder = _make_block_encoder()
        with pytest.raises(ValueError):
            encoder.encode(12, 0)
        with pytest.raises(ValueError):
            encoder.encode(0, -1)

    def test_invalid_hyperparameters(self):
        space = HypervectorSpace(128, seed=0)
        with pytest.raises(ValueError):
            BlockDecayPositionEncoder(space, 4, 4, alpha=0.0)
        with pytest.raises(ValueError):
            BlockDecayPositionEncoder(space, 4, 4, beta=0)
        with pytest.raises(ValueError):
            BlockDecayPositionEncoder(space, 0, 4)


class TestManhattanDistanceProperty:
    def test_equation_4_equal_manhattan_gives_equal_distance(self):
        """Eq. 4: positions at the same Manhattan offset are equidistant."""
        encoder = _make_block_encoder(dimension=2048, height=10, width=10)
        origin = encoder.encode(0, 0)
        # (2, 3) and (3, 2) and (1, 4) all have Manhattan distance 5 from (0,0).
        d_23 = hamming_distance(origin, encoder.encode(2, 3))
        d_32 = hamming_distance(origin, encoder.encode(3, 2))
        d_14 = hamming_distance(origin, encoder.encode(1, 4))
        assert d_23 == d_32 == d_14 > 0

    def test_distance_grows_with_manhattan_distance(self):
        encoder = _make_block_encoder(dimension=2048, height=10, width=10)
        origin = encoder.encode(0, 0)
        distances = [
            hamming_distance(origin, encoder.encode(offset, offset))
            for offset in range(5)
        ]
        assert distances == sorted(distances)
        assert distances[0] == 0 and distances[-1] > 0

    def test_expected_distance_matches_observed(self):
        encoder = _make_block_encoder(dimension=4096, height=8, width=9, alpha=0.5, beta=2)
        for pos_a in [(0, 0), (3, 4), (7, 8)]:
            for pos_b in [(1, 1), (5, 2), (6, 8)]:
                observed = hamming_distance(encoder.encode(*pos_a), encoder.encode(*pos_b))
                assert observed == encoder.expected_distance(pos_a, pos_b)

    def test_diagonal_distance_does_not_collapse(self):
        """The failure of Fig. 3(a) that the half-split encoding fixes."""
        encoder = _make_block_encoder(dimension=2048, height=10, width=10)
        assert hamming_distance(encoder.encode(0, 0), encoder.encode(1, 1)) > 0

    def test_alpha_scales_flip_unit(self):
        full = _make_block_encoder(dimension=4096, alpha=1.0)
        decayed = _make_block_encoder(dimension=4096, alpha=0.25)
        assert decayed.row_unit <= full.row_unit
        assert decayed.row_unit >= 1

    def test_beta_groups_blocks(self):
        encoder = _make_block_encoder(dimension=2048, height=12, width=12, beta=3)
        # Pixels inside the same 3x3 block share a position HV.
        assert np.array_equal(encoder.encode(0, 0), encoder.encode(2, 2))
        assert np.array_equal(encoder.encode(3, 1), encoder.encode(5, 2))
        # Pixels in different blocks do not.
        assert not np.array_equal(encoder.encode(0, 0), encoder.encode(3, 0))

    def test_row_flip_count_follows_equation_5(self):
        encoder = _make_block_encoder(dimension=10_000, height=256, width=320, alpha=0.2, beta=1)
        expected_unit = int(0.2 * 10_000) // (2 * 256)
        assert encoder.row_unit == expected_unit
        assert encoder.row_flip_count(10) == 10 * expected_unit

    def test_flip_unit_divides_by_image_size_not_block_count(self):
        """Regression for the doc/code mismatch: the per-row (per-column)
        flip unit is ``floor(alpha*d / (2*height))`` / ``floor(alpha*d /
        (2*width))`` — the image size, NOT the number of blocks
        ``ceil(N/beta)`` — and beta only scales the step between blocks."""
        encoder = _make_block_encoder(dimension=4096, height=10, width=12, alpha=0.5, beta=3)
        assert encoder.row_unit == int(0.5 * 4096) // (2 * 10) == 102
        assert encoder.col_unit == int(0.5 * 4096) // (2 * 12) == 85
        # NOT divided by the block counts (ceil(10/3)=4, ceil(12/3)=4).
        assert encoder.row_unit != int(0.5 * 4096) // (2 * encoder.num_row_blocks)
        assert encoder.col_unit != int(0.5 * 4096) // (2 * encoder.num_col_blocks)

    def test_expected_distance_pinned_for_beta_greater_than_one(self):
        """Regression: pin ``expected_distance`` for beta > 1 and check it
        against the observed Hamming distance of the encoded HVs."""
        encoder = _make_block_encoder(dimension=4096, height=10, width=12, alpha=0.5, beta=3)
        pinned = {
            ((0, 0), (4, 5)): 561,   # 1 row block * 306 + 1 col block * 255
            ((0, 0), (2, 2)): 0,     # same 3x3 block
            ((0, 0), (9, 11)): 1683, # 3 row blocks * 306 + 3 col blocks * 255
            ((3, 4), (8, 9)): 816,   # rows 1->2 (306) + cols 1->3 (510)
        }
        for (pos_a, pos_b), expected in pinned.items():
            assert encoder.expected_distance(pos_a, pos_b) == expected
            observed = hamming_distance(encoder.encode(*pos_a), encoder.encode(*pos_b))
            assert observed == expected


def _flipped(base, start, count):
    """Element-wise oracle: ``base`` with ``[start, start + count)`` inverted."""
    expected = base.copy()
    expected[start : start + count] = 1 - expected[start : start + count]
    return expected


# Odd and even dimensions, down to ones whose flip budget saturates at once.
TABLE_DIMENSIONS = [6, 7, 64, 65, 140, 1001]


class TestFlipPrefixTables:
    """Every table row is the base HV with exactly its Eq. 5 run flipped."""

    @pytest.mark.parametrize("dimension", TABLE_DIMENSIONS)
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1), (0.2, 3), (1.0, 26)])
    def test_block_decay_rows_and_columns(self, dimension, alpha, beta):
        encoder = _make_block_encoder(
            dimension=dimension, height=20, width=24, alpha=alpha, beta=beta
        )
        half = dimension // 2
        rows = encoder.row_hypervectors()
        cols = encoder.column_hypervectors()
        assert rows.shape == (20, dimension) and rows.dtype == np.uint8
        assert cols.shape == (24, dimension) and cols.dtype == np.uint8
        assert encoder.row_flip_count(0) == encoder.column_flip_count(0) == 0
        for row in range(encoder.height):
            count = encoder.row_flip_count(row)
            assert count <= half
            assert np.array_equal(rows[row], _flipped(rows[0], 0, count))
        for col in range(encoder.width):
            count = encoder.column_flip_count(col)
            assert count <= half
            assert np.array_equal(cols[col], _flipped(cols[0], half, count))

    @pytest.mark.parametrize("dimension", TABLE_DIMENSIONS)
    def test_uniform_rows_and_columns(self, dimension):
        space = HypervectorSpace(dimension, seed=0)
        encoder = UniformPositionEncoder(space, 9, 13)
        rows = encoder.row_hypervectors()
        cols = encoder.column_hypervectors()
        for row in range(encoder.height):
            count = min(row * encoder.row_unit, dimension)
            assert np.array_equal(rows[row], _flipped(rows[0], 0, count))
        for col in range(encoder.width):
            count = min(col * encoder.col_unit, dimension)
            assert np.array_equal(cols[col], _flipped(cols[0], 0, count))


class TestUniformEncoder:
    def test_diagonal_distance_collapses(self):
        """Fig. 3(a): row and column flips cancel on the diagonal."""
        space = HypervectorSpace(1024, seed=0)
        encoder = UniformPositionEncoder(space, 8, 8)
        origin = encoder.encode(1, 1)
        assert hamming_distance(origin, encoder.encode(2, 2)) == 0

    def test_grid_shape(self):
        space = HypervectorSpace(256, seed=0)
        encoder = UniformPositionEncoder(space, 4, 6)
        assert encoder.encode_grid().shape == (4, 6, 256)


class TestRandomEncoder:
    def test_positions_are_pseudo_orthogonal(self):
        space = HypervectorSpace(8192, seed=0)
        encoder = RandomPositionEncoder(space, 6, 6)
        near = normalized_hamming(encoder.encode(0, 0), encoder.encode(0, 1))
        far = normalized_hamming(encoder.encode(0, 0), encoder.encode(5, 5))
        # Neighbouring and distant positions are equally (un)related.
        assert abs(near - far) < 0.1
        assert 0.3 < near < 0.7


class TestFactory:
    @pytest.mark.parametrize(
        "variant,expected_cls",
        [
            ("uniform", UniformPositionEncoder),
            ("manhattan", BlockDecayPositionEncoder),
            ("decay", BlockDecayPositionEncoder),
            ("block_decay", BlockDecayPositionEncoder),
            ("random", RandomPositionEncoder),
        ],
    )
    def test_variants(self, variant, expected_cls):
        space = HypervectorSpace(128, seed=0)
        encoder = make_position_encoder(variant, space, 4, 4, alpha=0.5, beta=2)
        assert isinstance(encoder, expected_cls)

    def test_manhattan_variant_ignores_alpha_beta(self):
        space = HypervectorSpace(512, seed=0)
        encoder = make_position_encoder("manhattan", space, 4, 4, alpha=0.1, beta=7)
        assert encoder.alpha == 1.0
        assert encoder.beta == 1

    def test_unknown_variant(self):
        space = HypervectorSpace(128, seed=0)
        with pytest.raises(ValueError):
            make_position_encoder("fourier", space, 4, 4)


@given(
    row_a=st.integers(0, 9),
    col_a=st.integers(0, 9),
    row_b=st.integers(0, 9),
    col_b=st.integers(0, 9),
)
@settings(max_examples=60, deadline=None)
def test_property_hamming_equals_scaled_manhattan(row_a, col_a, row_b, col_b):
    """For beta=1 and a non-saturating alpha the encoder realises
    hamming == unit * manhattan exactly (the core claim of Section III-1)."""
    encoder = _make_block_encoder(dimension=4096, height=10, width=10, alpha=1.0, beta=1)
    observed = hamming_distance(encoder.encode(row_a, col_a), encoder.encode(row_b, col_b))
    expected = encoder.row_unit * abs(row_a - row_b) + encoder.col_unit * abs(col_a - col_b)
    assert observed == expected
