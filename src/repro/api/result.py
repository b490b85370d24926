"""Canonical segmentation result type and input normalisation.

:class:`SegmentationResult` is the one output type every registered
segmenter produces — SegHDC, the CNN baseline, and anything a user plugs
into :mod:`repro.api.registry`.  Import it from :mod:`repro.api` (or the
top-level :mod:`repro`); the algorithm packages do not re-export it.

:func:`normalize_image` is the single definition of what the pipelines
accept: engines use it per segment call and the serving layer uses it at
admission time, so both reject the same inputs with the same error and key
shape-aware caches/batches identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.imaging.image import Image

__all__ = ["SegmentationResult", "normalize_image"]


def normalize_image(image: "Image | np.ndarray") -> tuple[np.ndarray, tuple[int, int, int]]:
    """Pixel array + ``(height, width, channels)`` key of one input image."""
    pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
    if pixels.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D or 3-D image, got shape {pixels.shape}")
    height, width = pixels.shape[:2]
    channels = 1 if pixels.ndim == 2 else pixels.shape[2]
    return pixels, (height, width, channels)


@dataclass
class SegmentationResult:
    """Output of one segmentation run (SegHDC, baseline, or any segmenter).

    ``labels`` is the (H, W) int array of cluster indices.  ``history`` holds
    per-iteration label maps when the config requested history recording.
    ``workload`` summarises the quantities the edge-device cost model needs
    (image size, HV dimension, cluster count, iterations) plus — for SegHDC —
    the compute backend, the HV storage footprint, and the engine's cache
    counters at the end of the run.
    """

    labels: np.ndarray
    elapsed_seconds: float
    num_clusters: int
    history: list[np.ndarray] = field(default_factory=list)
    workload: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        """The ``(height, width)`` shape of the label map."""
        return self.labels.shape

    def labels_after(self, iteration: int) -> np.ndarray:
        """Label map after ``iteration`` (1-based); requires recorded history."""
        if not self.history:
            raise ValueError("history was not recorded for this run")
        if not (1 <= iteration <= len(self.history)):
            raise ValueError(
                f"iteration {iteration} out of range 1..{len(self.history)}"
            )
        return self.history[iteration - 1]
