"""Tests for mask post-processing: components, cleanup, smoothing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.postprocess import (
    connected_components,
    extract_instances,
    fill_holes,
    instance_sizes,
    majority_smooth,
    remove_small_objects,
)


def _two_blob_mask():
    mask = np.zeros((20, 20), dtype=np.uint8)
    mask[2:8, 2:8] = 1  # 36-pixel blob
    mask[12:15, 12:15] = 1  # 9-pixel blob
    return mask


class TestConnectedComponents:
    def test_counts_separate_objects(self):
        labelled = connected_components(_two_blob_mask())
        assert labelled.max() == 2
        assert labelled.dtype == np.int32

    def test_background_stays_zero(self):
        labelled = connected_components(_two_blob_mask())
        assert labelled[0, 0] == 0

    def test_connectivity_difference(self):
        # Two pixels touching only diagonally: one object with 8-connectivity,
        # two with 4-connectivity.
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1, 1] = 1
        mask[2, 2] = 1
        assert connected_components(mask, connectivity=8).max() == 1
        assert connected_components(mask, connectivity=4).max() == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            connected_components(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            connected_components(np.zeros((2, 2)), connectivity=6)

    def test_instance_sizes(self):
        sizes = instance_sizes(connected_components(_two_blob_mask()))
        assert sorted(sizes.values()) == [9, 36]

    def test_extract_instances_order_and_min_size(self):
        instances = extract_instances(_two_blob_mask())
        assert len(instances) == 2
        assert instances[0].sum() == 36  # largest first
        filtered = extract_instances(_two_blob_mask(), min_size=10)
        assert len(filtered) == 1

    def test_empty_mask(self):
        assert extract_instances(np.zeros((5, 5), dtype=np.uint8)) == []


class TestCleanup:
    def test_remove_small_objects(self):
        cleaned = remove_small_objects(_two_blob_mask(), min_size=10)
        assert connected_components(cleaned).max() == 1
        assert cleaned.sum() == 36

    def test_remove_small_objects_zero_min_size(self):
        mask = _two_blob_mask()
        assert np.array_equal(remove_small_objects(mask, 0), mask)

    def test_remove_small_objects_negative(self):
        with pytest.raises(ValueError):
            remove_small_objects(_two_blob_mask(), -1)

    def test_fill_holes(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[2:8, 2:8] = 1
        mask[4:6, 4:6] = 0  # a hole
        filled = fill_holes(mask)
        assert filled[4, 4] == 1
        assert filled.sum() == 36

    def test_fill_holes_rejects_3d(self):
        with pytest.raises(ValueError):
            fill_holes(np.zeros((2, 2, 2)))

    def test_majority_smooth_removes_speckle(self):
        labels = np.zeros((15, 15), dtype=np.int32)
        labels[5:10, 5:10] = 1
        labels[0, 0] = 1  # isolated speckle
        labels[7, 7] = 0  # pinhole inside the object
        smoothed = majority_smooth(labels, size=3)
        assert smoothed[0, 0] == 0
        assert smoothed[7, 7] == 1

    def test_majority_smooth_multiclass(self):
        labels = np.zeros((12, 12), dtype=np.int32)
        labels[:, 6:] = 2
        labels[3, 3] = 2  # speckle inside class-0 region
        smoothed = majority_smooth(labels, size=3)
        assert smoothed[3, 3] == 0
        assert set(np.unique(smoothed)).issubset({0, 2})

    def test_majority_smooth_zero_iterations_is_copy(self):
        labels = np.arange(9).reshape(3, 3) % 2
        assert np.array_equal(majority_smooth(labels, iterations=0), labels)

    def test_majority_smooth_invalid_args(self):
        with pytest.raises(ValueError):
            majority_smooth(np.zeros((4, 4)), size=2)
        with pytest.raises(ValueError):
            majority_smooth(np.zeros((4, 4)), iterations=-1)
        with pytest.raises(ValueError):
            majority_smooth(np.zeros((2, 2, 2)))


class TestPostprocessOnSegHDCOutput:
    def test_cleanup_does_not_hurt_iou_much(self, small_bbbc005_sample):
        from repro.metrics import best_foreground_iou
        from repro.seghdc import SegHDCConfig, SegHDCEngine

        config = SegHDCConfig(
            dimension=600, num_clusters=2, num_iterations=4, alpha=0.2, beta=2, seed=0
        )
        labels = SegHDCEngine(config).segment(small_bbbc005_sample.image).labels
        raw_iou = best_foreground_iou(labels, small_bbbc005_sample.mask)
        # Build the binary foreground, clean it, and rescore.
        from repro.metrics.matching import match_clusters_to_classes

        assignment = match_clusters_to_classes(
            labels, (small_bbbc005_sample.mask != 0).astype(np.uint8)
        )
        foreground = np.isin(
            labels, [cluster for cluster, cls in assignment.items() if cls == 1]
        ).astype(np.uint8)
        cleaned = remove_small_objects(fill_holes(foreground), min_size=5)
        cleaned_iou = best_foreground_iou(cleaned, small_bbbc005_sample.mask)
        assert cleaned_iou >= raw_iou - 0.05


@given(seed=st.integers(0, 500), threshold=st.floats(0.55, 0.9))
@settings(max_examples=20, deadline=None)
def test_property_component_sizes_sum_to_foreground(seed, threshold):
    rng = np.random.default_rng(seed)
    mask = (rng.uniform(size=(24, 24)) > threshold).astype(np.uint8)
    labelled = connected_components(mask)
    sizes = instance_sizes(labelled)
    assert sum(sizes.values()) == int(mask.sum())
