"""BBBC005-like synthetic fluorescent cell images.

BBBC005 (Broad Bioimage Benchmark Collection) contains simulated fluorescent
cell-body images of size 520 x 696, single channel, with a dark background,
bright round cells, and a controlled amount of out-of-focus blur.  The
generator reproduces those characteristics: bright elliptical cells on a
near-black background, per-image focus blur, and mild sensor noise.  Contrast
is high, which is why both the paper and this reproduction reach the highest
IoU scores on this dataset.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import SegmentationSample, SyntheticNucleiDataset
from repro.datasets.synth import place_nuclei, render_nuclei
from repro.imaging.filters import add_gaussian_noise, gaussian_blur
from repro.imaging.image import Image, ensure_uint8

__all__ = ["BBBC005Synthetic"]


class BBBC005Synthetic(SyntheticNucleiDataset):
    """Deterministic BBBC005-like generator (single channel, 520 x 696 default)."""

    name = "bbbc005"
    num_classes = 2

    def __init__(
        self,
        *,
        num_images: int = 200,
        seed: int = 0,
        image_shape: tuple[int, int] = (520, 696),
        cell_count_range: tuple[int, int] = (14, 40),
        cell_radius_range: tuple[float, float] = (18.0, 34.0),
        blur_sigma_range: tuple[float, float] = (1.0, 4.0),
        background_level: float = 12.0,
        foreground_level: float = 215.0,
        noise_sigma: float = 4.0,
    ) -> None:
        super().__init__(num_images=num_images, seed=seed, image_shape=image_shape)
        self.cell_count_range = cell_count_range
        self.cell_radius_range = cell_radius_range
        self.blur_sigma_range = blur_sigma_range
        self.background_level = float(background_level)
        self.foreground_level = float(foreground_level)
        self.noise_sigma = float(noise_sigma)

    def _generate(self, index: int, rng: np.random.Generator) -> SegmentationSample:
        # Scale the radius range with the image size so small test-time images
        # keep a plausible number of resolvable cells.
        scale = min(self.image_shape) / 520.0
        radius_range = (
            max(2.0, self.cell_radius_range[0] * scale),
            max(3.0, self.cell_radius_range[1] * scale),
        )
        count = int(rng.integers(self.cell_count_range[0], self.cell_count_range[1] + 1))
        specs = place_nuclei(
            self.image_shape,
            rng,
            count=count,
            radius_range=radius_range,
            elongation=1.3,
            min_separation=0.9,
        )
        for spec in specs:
            spec.intensity = rng.uniform(0.85, 1.0)
        canvas, mask = render_nuclei(
            self.image_shape,
            specs,
            rng,
            foreground_value=1.0,
            soft_edge=2.0 * scale,
        )
        intensity = self.background_level + canvas * (
            self.foreground_level - self.background_level
        )
        blur_sigma = rng.uniform(*self.blur_sigma_range) * scale
        intensity = gaussian_blur(intensity, blur_sigma)
        intensity = add_gaussian_noise(intensity, self.noise_sigma, rng)
        image = Image(ensure_uint8(intensity), name=f"bbbc005_{index:04d}")
        return SegmentationSample(
            image=image,
            mask=mask,
            metadata={"num_cells": len(specs), "blur_sigma": blur_sigma},
        )
