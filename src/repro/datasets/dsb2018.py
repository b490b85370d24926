"""DSB2018-like synthetic nuclei images.

The 2018 Data Science Bowl ("stage1_train") contains fluorescence and
brightfield microscopy crops of varied size; the latency experiment in the
paper uses a 256 x 320 x 3 image.  This generator renders three-channel
fluorescence-style crops: bright blue/violet-tinted nuclei on a dark, mildly
textured background, with moderate contrast and per-nucleus intensity
variation.  The result sits between BBBC005 (easy) and MoNuSeg (hard) in
difficulty, matching the ordering of the paper's IoU scores.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import SegmentationSample, SyntheticNucleiDataset
from repro.datasets.synth import place_nuclei, render_nuclei
from repro.imaging.filters import add_gaussian_noise, gaussian_blur
from repro.imaging.image import Image, ensure_uint8

__all__ = ["DSB2018Synthetic"]


class DSB2018Synthetic(SyntheticNucleiDataset):
    """Deterministic DSB2018-like generator (three channels, 256 x 320 default)."""

    name = "dsb2018"
    num_classes = 2

    def __init__(
        self,
        *,
        num_images: int = 100,
        seed: int = 0,
        image_shape: tuple[int, int] = (256, 320),
        nuclei_count_range: tuple[int, int] = (12, 45),
        nuclei_radius_range: tuple[float, float] = (7.0, 17.0),
        background_level: float = 18.0,
        foreground_level: float = 175.0,
        noise_sigma: float = 9.0,
        background_texture: float = 7.0,
    ) -> None:
        super().__init__(num_images=num_images, seed=seed, image_shape=image_shape)
        self.nuclei_count_range = nuclei_count_range
        self.nuclei_radius_range = nuclei_radius_range
        self.background_level = float(background_level)
        self.foreground_level = float(foreground_level)
        self.noise_sigma = float(noise_sigma)
        self.background_texture = float(background_texture)

    def _generate(self, index: int, rng: np.random.Generator) -> SegmentationSample:
        scale = min(self.image_shape) / 256.0
        radius_range = (
            max(2.0, self.nuclei_radius_range[0] * scale),
            max(3.0, self.nuclei_radius_range[1] * scale),
        )
        count = int(
            rng.integers(self.nuclei_count_range[0], self.nuclei_count_range[1] + 1)
        )
        specs = place_nuclei(
            self.image_shape,
            rng,
            count=count,
            radius_range=radius_range,
            elongation=1.6,
            min_separation=0.75,
        )
        for spec in specs:
            spec.intensity = rng.uniform(0.6, 1.0)
        canvas, mask = render_nuclei(
            self.image_shape,
            specs,
            rng,
            foreground_value=1.0,
            soft_edge=1.5 * scale,
        )
        # Smooth low-frequency background texture (uneven illumination).
        texture = gaussian_blur(
            rng.normal(0.0, 1.0, size=self.image_shape), 12.0 * scale
        )
        texture = self.background_texture * texture / max(np.abs(texture).max(), 1e-9)
        gray = self.background_level + texture + canvas * (
            self.foreground_level - self.background_level
        )
        gray = gaussian_blur(gray, 0.8 * scale)
        gray = add_gaussian_noise(gray, self.noise_sigma, rng)
        # Fluorescence-style tint: nuclei dominated by the blue/green channels.
        tint = np.array([0.55, 0.75, 1.0])
        rgb = np.clip(gray, 0.0, 255.0)[:, :, None] * tint[None, None, :]
        rgb = add_gaussian_noise(rgb, self.noise_sigma * 0.4, rng)
        image = Image(ensure_uint8(rgb), name=f"dsb2018_{index:04d}")
        return SegmentationSample(
            image=image,
            mask=mask,
            metadata={"num_nuclei": len(specs)},
        )
