"""Tests for the SegHDC configuration and end-to-end pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging import Image
from repro.metrics import best_foreground_iou
from repro.seghdc import SegHDCConfig, SegHDCEngine


class TestSegHDCConfig:
    def test_defaults_match_paper_section_iv(self):
        config = SegHDCConfig()
        assert config.dimension == 10_000
        assert config.num_iterations == 10
        assert config.alpha == 0.2
        assert config.gamma == 1

    def test_paper_defaults_per_dataset(self):
        bbbc = SegHDCConfig.paper_defaults("bbbc005")
        dsb = SegHDCConfig.paper_defaults("dsb2018")
        monuseg = SegHDCConfig.paper_defaults("monuseg")
        assert bbbc.beta == 21 and bbbc.num_clusters == 2
        assert dsb.beta == 26 and dsb.num_clusters == 2
        assert monuseg.beta == 26 and monuseg.num_clusters == 3

    def test_paper_defaults_unknown_dataset(self):
        with pytest.raises(KeyError):
            SegHDCConfig.paper_defaults("cityscapes")

    def test_with_overrides_returns_new_config(self):
        config = SegHDCConfig()
        other = config.with_overrides(dimension=500)
        assert other.dimension == 500
        assert config.dimension == 10_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 3},
            {"num_clusters": 1},
            {"num_iterations": 0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"beta": 0},
            {"gamma": 0},
            {"color_levels": 1},
            {"color_levels": 257},
            {"position_encoding": "polar"},
            {"color_encoding": "hsv"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SegHDCConfig(**kwargs)

    def test_color_levels_above_256_is_refused_by_name(self):
        """8-bit intensities select at most 256 levels, so a larger table
        would only hold rows that are never read."""
        with pytest.raises(ValueError, match="color_levels"):
            SegHDCConfig(dimension=600, color_encoding="random", color_levels=20000)
        assert SegHDCConfig(color_levels=256).color_levels == 256


class TestSegHDCPipeline:
    def _config(self, **overrides):
        base = SegHDCConfig(
            dimension=600, num_clusters=2, num_iterations=4, alpha=0.2, beta=3, seed=0
        )
        return base.with_overrides(**overrides)

    def test_segments_synthetic_two_tone_image(self):
        """A trivially separable image must be segmented almost perfectly."""
        image = np.full((24, 32), 20, dtype=np.uint8)
        image[6:18, 8:24] = 220
        mask = (image > 128).astype(np.uint8)
        result = SegHDCEngine(self._config()).segment(image)
        assert result.labels.shape == (24, 32)
        assert best_foreground_iou(result.labels, mask) > 0.9

    def test_accepts_image_objects_and_arrays(self, small_dsb2018_sample):
        config = self._config(beta=5)
        from_image = SegHDCEngine(config).segment(small_dsb2018_sample.image)
        from_array = SegHDCEngine(config).segment(small_dsb2018_sample.image.pixels)
        assert np.array_equal(from_image.labels, from_array.labels)

    def test_deterministic_given_seed(self, small_dsb2018_sample):
        config = self._config(beta=5)
        a = SegHDCEngine(config).segment(small_dsb2018_sample.image)
        b = SegHDCEngine(config).segment(small_dsb2018_sample.image)
        assert np.array_equal(a.labels, b.labels)

    def test_history_recording(self):
        image = np.full((16, 16), 10, dtype=np.uint8)
        image[4:12, 4:12] = 240
        config = self._config(record_history=True, num_iterations=3)
        result = SegHDCEngine(config).segment(image)
        assert len(result.history) == 3
        assert result.labels_after(1).shape == (16, 16)
        assert np.array_equal(result.labels_after(3), result.labels)

    def test_labels_after_requires_history(self):
        image = np.zeros((8, 8), dtype=np.uint8)
        image[2:6, 2:6] = 250
        result = SegHDCEngine(self._config(num_iterations=1)).segment(image)
        with pytest.raises(ValueError):
            result.labels_after(1)

    def test_labels_after_range_check(self):
        image = np.zeros((8, 8), dtype=np.uint8)
        image[2:6, 2:6] = 250
        result = SegHDCEngine(self._config(num_iterations=2, record_history=True)).segment(image)
        with pytest.raises(ValueError):
            result.labels_after(3)

    def test_workload_summary(self, small_dsb2018_sample):
        result = SegHDCEngine(self._config(beta=5)).segment(small_dsb2018_sample.image)
        workload = result.workload
        assert workload["height"] == small_dsb2018_sample.image.height
        assert workload["channels"] == 3
        assert workload["dimension"] == 600
        assert workload["num_pixels"] == small_dsb2018_sample.image.num_pixels

    def test_rejects_bad_input_shape(self):
        with pytest.raises(ValueError):
            SegHDCEngine(self._config()).segment(np.zeros((2, 2, 2, 2)))

    def test_three_cluster_configuration(self, small_monuseg_sample):
        config = self._config(num_clusters=3, beta=4)
        result = SegHDCEngine(config).segment(small_monuseg_sample.image)
        assert result.num_clusters == 3
        assert result.labels.max() <= 2

    def test_random_position_ablation_degrades_quality(self, small_bbbc005_sample):
        """RPos must be clearly worse than the full encoding (Table I)."""
        full = SegHDCEngine(self._config(beta=2)).segment(small_bbbc005_sample.image)
        rpos = SegHDCEngine(self._config(beta=2, position_encoding="random")).segment(
            small_bbbc005_sample.image
        )
        iou_full = best_foreground_iou(full.labels, small_bbbc005_sample.mask)
        iou_rpos = best_foreground_iou(rpos.labels, small_bbbc005_sample.mask)
        assert iou_full > iou_rpos + 0.2

    def test_elapsed_time_is_positive(self, small_dsb2018_sample):
        result = SegHDCEngine(self._config(beta=5)).segment(small_dsb2018_sample.image)
        assert result.elapsed_seconds > 0.0

    def test_grayscale_image_single_channel_encoder(self, small_bbbc005_sample):
        result = SegHDCEngine(self._config(beta=2)).segment(small_bbbc005_sample.image)
        assert result.workload["channels"] == 1
        assert best_foreground_iou(result.labels, small_bbbc005_sample.mask) > 0.6

    def test_accepts_image_with_explicit_single_channel_axis(self):
        image = np.zeros((12, 12, 1), dtype=np.uint8)
        image[3:9, 3:9, 0] = 200
        result = SegHDCEngine(self._config(num_iterations=2)).segment(Image(image))
        assert result.labels.shape == (12, 12)
