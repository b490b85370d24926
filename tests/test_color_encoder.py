"""Tests for the color encoders (Fig. 4 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import HypervectorSpace, hamming_distance, normalized_hamming
from repro.seghdc import ManhattanColorEncoder, RandomColorEncoder, make_color_encoder


def _encoder(dimension=1536, channels=3, gamma=1, levels=256, seed=0):
    space = HypervectorSpace(dimension, seed=seed)
    return ManhattanColorEncoder(space, channels, levels=levels, gamma=gamma)


class TestManhattanColorEncoderSingleChannel:
    def test_distance_proportional_to_intensity_difference(self):
        encoder = _encoder(dimension=2560, channels=1)
        hv_10 = encoder.encode_value(10)
        hv_20 = encoder.encode_value(20)
        hv_40 = encoder.encode_value(40)
        d_10_20 = hamming_distance(hv_10, hv_20)
        d_10_40 = hamming_distance(hv_10, hv_40)
        assert d_10_40 == 3 * d_10_20
        assert d_10_20 == encoder.expected_distance(10, 20)

    def test_identical_values_have_zero_distance(self):
        encoder = _encoder(channels=1)
        assert hamming_distance(encoder.encode_value(77), encoder.encode_value(77)) == 0

    def test_paper_unit_formula(self):
        space = HypervectorSpace(10_000, seed=0)
        encoder = ManhattanColorEncoder(space, 1, levels=256)
        assert encoder.flip_units == [10_000 // 256]

    def test_extreme_values_distance(self):
        encoder = _encoder(dimension=2560, channels=1)
        unit = encoder.flip_units[0]
        expected = min(255 * unit, encoder.channel_dimensions[0])
        assert hamming_distance(encoder.encode_value(0), encoder.encode_value(255)) == expected

    def test_small_dimension_reduces_levels(self):
        encoder = _encoder(dimension=96, channels=3)
        assert encoder.levels <= 32
        assert encoder.levels >= 2

    def test_encode_image_accepts_rgb_for_single_channel(self, rng):
        encoder = _encoder(dimension=300, channels=1)
        image = rng.integers(0, 256, size=(4, 5, 3))
        encoded = encoder.encode_image(image)
        assert encoded.shape == (4, 5, 300)


class TestManhattanColorEncoderThreeChannel:
    def test_channel_dimensions_partition_the_hv(self):
        encoder = _encoder(dimension=1000, channels=3)
        assert sum(encoder.channel_dimensions) == 1000
        assert max(encoder.channel_dimensions) - min(encoder.channel_dimensions) <= 1

    def test_concatenation_keeps_channel_distances_additive(self):
        encoder = _encoder(dimension=3072, channels=3)
        base = encoder.encode_value((100, 100, 100))
        only_red = encoder.encode_value((150, 100, 100))
        only_green = encoder.encode_value((100, 150, 100))
        both = encoder.encode_value((150, 150, 100))
        d_red = hamming_distance(base, only_red)
        d_green = hamming_distance(base, only_green)
        d_both = hamming_distance(base, both)
        assert d_both == d_red + d_green

    def test_channel_segments_are_independent(self):
        encoder = _encoder(dimension=900, channels=3)
        a = encoder.encode_value((0, 128, 255))
        b = encoder.encode_value((200, 128, 255))
        dims = encoder.channel_dimensions
        # Only the first channel's segment may differ.
        assert not np.array_equal(a[: dims[0]], b[: dims[0]])
        assert np.array_equal(a[dims[0] :], b[dims[0] :])

    def test_grayscale_input_is_replicated(self, rng):
        encoder = _encoder(dimension=300, channels=3)
        gray = rng.integers(0, 256, size=(3, 4))
        encoded = encoder.encode_image(gray)
        assert encoded.shape == (3, 4, 300)

    def test_encode_value_wrong_arity(self):
        encoder = _encoder(channels=3)
        with pytest.raises(ValueError):
            encoder.encode_value(100)

    def test_gamma_scales_flip_unit(self):
        plain = _encoder(dimension=3072, channels=3, gamma=1)
        doubled = _encoder(dimension=3072, channels=3, gamma=2)
        assert doubled.flip_units == [2 * unit for unit in plain.flip_units]
        d_plain = hamming_distance(
            plain.encode_value((10, 10, 10)), plain.encode_value((20, 10, 10))
        )
        d_doubled = hamming_distance(
            doubled.encode_value((10, 10, 10)), doubled.encode_value((20, 10, 10))
        )
        assert d_doubled == 2 * d_plain

    def test_encode_image_shape_and_dtype(self, rng):
        encoder = _encoder(dimension=600, channels=3)
        image = rng.integers(0, 256, size=(6, 7, 3))
        encoded = encoder.encode_image(image)
        assert encoded.shape == (6, 7, 600)
        assert encoded.dtype == np.uint8

    def test_invalid_parameters(self):
        space = HypervectorSpace(128, seed=0)
        with pytest.raises(ValueError):
            ManhattanColorEncoder(space, 2)
        with pytest.raises(ValueError):
            ManhattanColorEncoder(space, 3, gamma=0)
        with pytest.raises(ValueError):
            ManhattanColorEncoder(space, 3, levels=1)
        with pytest.raises(ValueError, match="levels"):
            RandomColorEncoder(space, 1, levels=257)


class TestFlipPrefixLevelTables:
    """Level ``l`` of each channel is its base with ``min(l * unit, dim)``
    leading elements inverted (Fig. 4), checked element by element."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("levels", [2, 16, 256])
    @pytest.mark.parametrize("gamma", [1, 5])
    def test_tables_match_the_elementwise_construction(
        self, channels, levels, gamma
    ):
        encoder = _encoder(
            dimension=301, channels=channels, gamma=gamma, levels=levels
        )
        tables = encoder.level_tables()
        assert len(tables) == channels
        for table, unit, dim in zip(
            tables, encoder.flip_units, encoder.channel_dimensions
        ):
            assert table.shape == (encoder.levels, dim)
            assert table.dtype == np.uint8
            base = table[0]
            for level in range(encoder.levels):
                count = min(level * unit, dim)
                expected = base.copy()
                expected[:count] = 1 - expected[:count]
                assert np.array_equal(table[level], expected)


class TestRandomColorEncoder:
    def test_similar_and_distant_values_are_equally_far(self):
        space = HypervectorSpace(8192, seed=0)
        encoder = RandomColorEncoder(space, 1)
        near = normalized_hamming(encoder.encode_value(100), encoder.encode_value(101))
        far = normalized_hamming(encoder.encode_value(0), encoder.encode_value(255))
        assert abs(near - far) < 0.1

    def test_identical_values_are_identical(self):
        space = HypervectorSpace(512, seed=0)
        encoder = RandomColorEncoder(space, 3)
        assert np.array_equal(
            encoder.encode_value((1, 2, 3)), encoder.encode_value((1, 2, 3))
        )

    def test_encode_image_shape(self, rng):
        space = HypervectorSpace(300, seed=0)
        encoder = RandomColorEncoder(space, 3)
        assert encoder.encode_image(rng.integers(0, 256, (4, 4, 3))).shape == (4, 4, 300)


class TestFactory:
    def test_manhattan(self):
        space = HypervectorSpace(128, seed=0)
        assert isinstance(make_color_encoder("manhattan", space, 3), ManhattanColorEncoder)

    def test_random(self):
        space = HypervectorSpace(128, seed=0)
        assert isinstance(make_color_encoder("random", space, 1), RandomColorEncoder)

    def test_unknown(self):
        space = HypervectorSpace(128, seed=0)
        with pytest.raises(ValueError):
            make_color_encoder("hsv", space, 3)


@given(
    value_a=st.integers(0, 255),
    value_b=st.integers(0, 255),
    value_c=st.integers(0, 255),
)
@settings(max_examples=60, deadline=None)
def test_property_color_distance_is_monotone_in_intensity_difference(value_a, value_b, value_c):
    """If |a-b| <= |a-c| then hamming(a,b) <= hamming(a,c) (single channel)."""
    encoder = _encoder(dimension=2560, channels=1, seed=3)
    d_ab = hamming_distance(encoder.encode_value(value_a), encoder.encode_value(value_b))
    d_ac = hamming_distance(encoder.encode_value(value_a), encoder.encode_value(value_c))
    if abs(value_a - value_b) <= abs(value_a - value_c):
        assert d_ab <= d_ac
    else:
        assert d_ab >= d_ac
