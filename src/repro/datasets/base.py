"""Shared dataset abstractions.

Every dataset produces :class:`SegmentationSample` objects: an image plus its
binary (or small-integer) ground-truth mask.  Datasets are deterministic: the
same index always yields the same sample, regardless of iteration order,
because each sample derives its own RNG from ``(dataset seed, index)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.imaging.image import Image

__all__ = ["SegmentationSample", "SyntheticNucleiDataset"]


@dataclass
class SegmentationSample:
    """One image together with its ground-truth segmentation mask.

    ``mask`` has shape (H, W) and dtype uint8; 0 is background and values
    >= 1 are foreground classes (all three nuclei datasets are binary, so the
    mask is 0/1).
    """

    image: Image
    mask: np.ndarray
    index: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        if mask.shape != (self.image.height, self.image.width):
            raise ValueError(
                f"mask shape {mask.shape} does not match image "
                f"shape {(self.image.height, self.image.width)}"
            )
        self.mask = mask.astype(np.uint8, copy=False)

    @property
    def foreground_fraction(self) -> float:
        """Fraction of pixels labelled as foreground."""
        return float(np.count_nonzero(self.mask) / self.mask.size)


class SyntheticNucleiDataset(ABC):
    """Base class for the deterministic synthetic nuclei datasets.

    Subclasses implement :meth:`_generate` to render one sample given a
    per-sample RNG.  The base class handles indexing, iteration, and the
    seed-per-sample scheme that keeps generation deterministic.
    """

    #: short identifier used by the registry and in experiment records
    name: str = "synthetic"
    #: number of segmentation classes including background
    num_classes: int = 2

    def __init__(
        self, *, num_images: int, seed: int = 0, image_shape: tuple[int, int]
    ) -> None:
        if num_images <= 0:
            raise ValueError(f"num_images must be positive, got {num_images}")
        height, width = int(image_shape[0]), int(image_shape[1])
        if height < 1 or width < 1:
            raise ValueError(f"image size must be positive, got {height}x{width}")
        self.num_images = int(num_images)
        self.seed = int(seed)
        self.image_shape = (height, width)

    def __len__(self) -> int:
        return self.num_images

    def __getitem__(self, index: int) -> SegmentationSample:
        if index < 0:
            index += self.num_images
        if not (0 <= index < self.num_images):
            raise IndexError(
                f"index {index} out of range for dataset of size {self.num_images}"
            )
        rng = np.random.default_rng((self.seed, index))
        sample = self._generate(index, rng)
        sample.index = index
        sample.metadata.setdefault("dataset", self.name)
        return sample

    def __iter__(self) -> Iterator[SegmentationSample]:
        for index in range(self.num_images):
            yield self[index]

    @abstractmethod
    def _generate(self, index: int, rng: np.random.Generator) -> SegmentationSample:
        """Render the sample at ``index`` using the supplied RNG."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(num_images={self.num_images}, seed={self.seed})"
        )
