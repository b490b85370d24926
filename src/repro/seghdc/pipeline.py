"""The SegHDC pipeline facade (Fig. 2): encoders -> pixel HVs -> clusterer.

:class:`SegHDC` is the one-shot convenience API.  It owns a private
:class:`repro.seghdc.engine.SegHDCEngine`, so repeated calls on one instance
reuse the cached encoder grids; for explicit batch workloads and cache
control use the engine directly.

SegHDC implements the :class:`repro.api.Segmenter` protocol and registers
itself as ``"seghdc"`` in the central registry, so serving, experiments, and
the CLI can build it from a declarative spec
(``make_segmenter({"segmenter": "seghdc", "config": {...}})``).  Pickling a
SegHDC ships its spec, not its state: the unpickled copy rebuilds from the
config with a cold cache, exactly what process pools need.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import make_segmenter, register_segmenter
from repro.api.result import SegmentationResult
from repro.imaging.image import Image
from repro.seghdc.config import SegHDCConfig
from repro.seghdc.engine import SegHDCEngine

__all__ = ["SegHDC"]


class SegHDC:
    """Hyperdimensional-computing unsupervised image segmentation.

    Usage::

        config = SegHDCConfig.paper_defaults("dsb2018")
        result = SegHDC(config).segment(sample.image)
        iou = best_foreground_iou(result.labels, sample.mask)
    """

    def __init__(self, config: SegHDCConfig | None = None) -> None:
        self._config = config or SegHDCConfig()
        self._engine = SegHDCEngine(self._config)

    @property
    def config(self) -> SegHDCConfig:
        """The pipeline configuration (setting it swaps in a fresh engine)."""
        return self._config

    @config.setter
    def config(self, value: SegHDCConfig | None) -> None:
        # Replacing the config swaps in a fresh engine: the cached encoder
        # grids belong to the old hyper-parameters, so serving them for the
        # new config would silently return stale segmentations.
        self._config = value or SegHDCConfig()
        self._engine = SegHDCEngine(self._config)

    @property
    def engine(self) -> SegHDCEngine:
        """The underlying engine (cache counters, batch API)."""
        return self._engine

    def describe(self) -> dict:
        """Spec dict that :func:`make_segmenter` turns back into an
        equivalent (cold-cache) SegHDC."""
        return {"segmenter": "seghdc", "config": self._config.to_dict()}

    def __reduce__(self):
        # Pickle-by-spec: process pools rebuild from the config rather than
        # shipping cached grids/locks across the process boundary.
        return (make_segmenter, (self.describe(),))

    def segment(self, image: Image | np.ndarray) -> SegmentationResult:
        """Segment one image into ``config.num_clusters`` clusters."""
        return self._engine.segment(image)

    def segment_batch(
        self, images: "list[Image | np.ndarray]"
    ) -> list[SegmentationResult]:
        """Segment many images, reusing cached encoder grids per shape."""
        return self._engine.segment_batch(images)


register_segmenter(
    "seghdc",
    factory=SegHDC,
    config_cls=SegHDCConfig,
    description="Binary-HDC unsupervised segmentation (the paper's method)",
    overwrite=True,  # module re-import (e.g. after a failed first import) is idempotent
)
