"""Cross-module integration tests.

These exercise the full stack the way the paper's evaluation does: synthetic
dataset -> SegHDC / baseline -> metric, and check the *relationships* the
paper reports (SegHDC beats the baseline and the random ablations, quality
saturates with iterations, the device model orders methods correctly).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline import CNNBaselineConfig, CNNUnsupervisedSegmenter
from repro.datasets import make_dataset
from repro.device import EdgeDeviceSimulator, RASPBERRY_PI_4
from repro.metrics import best_foreground_iou
from repro.seghdc import SegHDCConfig, SegHDCEngine


@pytest.fixture(scope="module")
def dsb_sample():
    return make_dataset("dsb2018", num_images=1, image_shape=(64, 80), seed=2)[0]


@pytest.fixture(scope="module")
def bbbc_sample():
    return make_dataset("bbbc005", num_images=1, image_shape=(72, 96), seed=2)[0]


def _seghdc_config(**overrides):
    base = SegHDCConfig(
        dimension=800, num_clusters=2, num_iterations=5, alpha=0.2, beta=4, seed=0
    )
    return base.with_overrides(**overrides)


class TestMethodOrdering:
    def test_seghdc_beats_cnn_baseline_on_fluorescence_images(self, bbbc_sample):
        """The headline claim of Table I at miniature scale."""
        seghdc_iou = best_foreground_iou(
            SegHDCEngine(_seghdc_config(beta=3)).segment(bbbc_sample.image).labels,
            bbbc_sample.mask,
        )
        baseline = CNNUnsupervisedSegmenter(
            CNNBaselineConfig(num_features=16, num_layers=2, max_iterations=10, seed=0)
        ).segment(bbbc_sample.image)
        baseline_iou = best_foreground_iou(baseline.labels, bbbc_sample.mask)
        assert seghdc_iou > 0.7
        assert seghdc_iou >= baseline_iou - 0.05

    def test_full_encoding_beats_both_random_ablations(self, dsb_sample):
        full = best_foreground_iou(
            SegHDCEngine(_seghdc_config()).segment(dsb_sample.image).labels, dsb_sample.mask
        )
        rpos = best_foreground_iou(
            SegHDCEngine(_seghdc_config(position_encoding="random")).segment(dsb_sample.image).labels,
            dsb_sample.mask,
        )
        rcolor = best_foreground_iou(
            SegHDCEngine(_seghdc_config(color_encoding="random")).segment(dsb_sample.image).labels,
            dsb_sample.mask,
        )
        assert full > rpos
        assert full > rcolor

    def test_more_iterations_do_not_hurt_much(self, dsb_sample):
        """Fig. 7(a): IoU saturates, it does not degrade, with iterations."""
        one = best_foreground_iou(
            SegHDCEngine(_seghdc_config(num_iterations=1)).segment(dsb_sample.image).labels,
            dsb_sample.mask,
        )
        five = best_foreground_iou(
            SegHDCEngine(_seghdc_config(num_iterations=5)).segment(dsb_sample.image).labels,
            dsb_sample.mask,
        )
        assert five >= one - 0.05

    def test_dimension_robustness(self, dsb_sample):
        """Fig. 7(b): quality varies only mildly across HV dimensions; the
        lowest dimension (200) may dip, as it does in the paper's figure,
        but mid/high dimensions agree closely."""
        scores = {}
        for dimension in (200, 600, 1000):
            labels = SegHDCEngine(_seghdc_config(dimension=dimension)).segment(dsb_sample.image).labels
            scores[dimension] = best_foreground_iou(labels, dsb_sample.mask)
        assert min(scores.values()) > 0.4
        assert abs(scores[600] - scores[1000]) < 0.15
        assert scores[1000] > 0.7


class TestDeviceIntegration:
    def test_measured_workload_feeds_the_cost_model(self, dsb_sample):
        """The workload summary recorded by the pipeline is sufficient to ask
        the device model for a Pi latency estimate."""
        result = SegHDCEngine(_seghdc_config()).segment(dsb_sample.image)
        workload = result.workload
        estimate = EdgeDeviceSimulator(RASPBERRY_PI_4).estimate_seghdc(
            workload["height"],
            workload["width"],
            dimension=workload["dimension"],
            num_clusters=workload["num_clusters"],
            num_iterations=workload["num_iterations"],
            channels=workload["channels"],
        )
        assert estimate.latency_seconds > 0
        assert estimate.fits_in_memory

    def test_host_wallclock_is_far_below_modelled_pi_latency_for_paper_sizes(self):
        """Sanity: the modelled Pi is slower than this host actually is."""
        sample = make_dataset("dsb2018", num_images=1, image_shape=(64, 80), seed=0)[0]
        run = SegHDCEngine(_seghdc_config(dimension=800, num_iterations=3)).segment(sample.image)
        pi = EdgeDeviceSimulator(RASPBERRY_PI_4).estimate_seghdc(
            256, 320, dimension=800, num_clusters=2, num_iterations=3
        )
        assert run.elapsed_seconds < pi.latency_seconds


class TestEndToEndDeterminism:
    def test_same_seed_same_table_row(self, dsb_sample):
        config = _seghdc_config()
        first = SegHDCEngine(config).segment(dsb_sample.image).labels
        second = SegHDCEngine(config).segment(dsb_sample.image).labels
        assert np.array_equal(first, second)

    def test_different_hv_seed_changes_encoding_but_not_quality_class(self, dsb_sample):
        iou_a = best_foreground_iou(
            SegHDCEngine(_seghdc_config(seed=0)).segment(dsb_sample.image).labels, dsb_sample.mask
        )
        iou_b = best_foreground_iou(
            SegHDCEngine(_seghdc_config(seed=99)).segment(dsb_sample.image).labels, dsb_sample.mask
        )
        assert abs(iou_a - iou_b) < 0.2
