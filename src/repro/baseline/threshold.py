"""Otsu-threshold segmenter: a near-zero-compute registered baseline.

Global Otsu thresholding splits an image into foreground/background by the
grayscale level that maximises between-class variance — microseconds of
numpy per image, no training, no hypervectors.  Scientifically it is the
floor every learned method must beat; operationally it is the serving
stack's *transport probe*: because its compute cost is negligible, a
process-mode server wrapped around it is dominated by data movement, which
is exactly what the zero-copy transport benchmarks need to measure (SegHDC
at 512x512 spends seconds in kernels, drowning any transport delta).

Registered as ``"threshold"``, so it rides every API surface the other
segmenters do: run-specs, ``seghdc serve --segmenter threshold``,
the load/chaos harness, and the HTTP front end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api.registry import make_segmenter, register_segmenter
from repro.api.result import SegmentationResult
from repro.imaging.image import Image

__all__ = ["ThresholdConfig", "ThresholdSegmenter"]


@dataclass(frozen=True)
class ThresholdConfig:
    """Hyper-parameters of the Otsu baseline (there is almost nothing to
    tune — that is the point).

    ``num_bins`` is the histogram resolution Otsu's scan runs over;
    ``invert`` swaps which side of the threshold becomes label 1, for
    datasets with bright backgrounds.
    """

    num_bins: int = 256
    invert: bool = False

    def __post_init__(self) -> None:
        if self.num_bins < 2:
            raise ValueError(
                f"num_bins must be at least 2, got {self.num_bins}"
            )

    def to_dict(self) -> dict:
        """JSON-ready dict of the config (see
        :func:`repro.api.spec.config_to_dict`)."""
        from repro.api.spec import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data) -> "ThresholdConfig":
        """Validated inverse of :meth:`to_dict` (unknown keys raise)."""
        from repro.api.spec import config_from_dict

        return config_from_dict(cls, data)


def _otsu_threshold(gray: np.ndarray, num_bins: int) -> float:
    """The threshold maximising between-class variance of ``gray``."""
    histogram, edges = np.histogram(gray, bins=num_bins, range=(0.0, 255.0))
    weights = histogram.astype(np.float64)
    total = weights.sum()
    if total == 0:
        return 0.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    cum_weight = np.cumsum(weights)
    cum_mean = np.cumsum(weights * centers)
    background = cum_weight
    foreground = total - cum_weight
    # Between-class variance for every candidate split; splits with an
    # empty side contribute nothing and are masked out of the argmax.
    valid = (background > 0) & (foreground > 0)
    if not valid.any():
        return float(centers[0])
    # The textbook form: w_b * w_f * (mu_b - mu_f)^2.
    mean_background = np.where(valid, cum_mean / np.maximum(background, 1), 0.0)
    mean_foreground = np.where(
        valid, (cum_mean[-1] - cum_mean) / np.maximum(foreground, 1), 0.0
    )
    variance = np.where(
        valid,
        background * foreground * (mean_background - mean_foreground) ** 2,
        0.0,
    )
    return float(centers[int(np.argmax(variance))])


class ThresholdSegmenter:
    """Global Otsu thresholding behind the :class:`repro.api.Segmenter`
    protocol.

    Labels are a binary ``int32`` map (matching the other segmenters'
    dtype so HTTP/bench tooling treats every backend uniformly); RGB
    inputs are collapsed to grayscale by channel mean first.
    """

    def __init__(self, config: "ThresholdConfig | None" = None) -> None:
        self.config = config or ThresholdConfig()

    def describe(self) -> dict:
        """Spec dict that :func:`make_segmenter` turns back into an
        equivalent segmenter."""
        return {"segmenter": "threshold", "config": self.config.to_dict()}

    def __reduce__(self):
        # Pickle-by-spec, the same seam as SegHDC and the CNN baseline.
        return (make_segmenter, (self.describe(),))

    def segment_batch(
        self, images: "list[Image | np.ndarray]"
    ) -> list[SegmentationResult]:
        """Segment a sequence of images; results in input order."""
        return [self.segment(image) for image in images]

    def segment(self, image: "Image | np.ndarray") -> SegmentationResult:
        """Threshold one image; returns a binary label map."""
        pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
        if pixels.ndim == 3:
            gray = pixels.mean(axis=2)
        elif pixels.ndim == 2:
            gray = pixels.astype(np.float64, copy=False)
        else:
            raise ValueError(
                f"expected (H, W[, C]) image, got shape {pixels.shape}"
            )
        start = time.perf_counter()
        threshold = _otsu_threshold(
            np.asarray(gray, dtype=np.float64), self.config.num_bins
        )
        labels = (gray > threshold).astype(np.int32)
        if self.config.invert:
            labels = 1 - labels
        elapsed = time.perf_counter() - start
        height, width = labels.shape
        workload = {
            "height": height,
            "width": width,
            "num_pixels": height * width,
            "threshold": threshold,
            "num_bins": self.config.num_bins,
        }
        return SegmentationResult(
            labels=labels,
            elapsed_seconds=elapsed,
            num_clusters=int(np.unique(labels).size),
            workload=workload,
        )


def _make_threshold(
    config: "ThresholdConfig | None" = None,
) -> ThresholdSegmenter:
    return ThresholdSegmenter(config)


register_segmenter(
    "threshold",
    factory=_make_threshold,
    config_cls=ThresholdConfig,
    description="Global Otsu threshold (transport-bound serving probe)",
    overwrite=True,  # module re-import is idempotent
)
