"""SegHDC reproduction: on-device unsupervised image segmentation with HDC.

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.hdc` — hypervector primitives, the flip-prefix table builder
  behind every encoder, and the dense / bit-packed compute backends
* :mod:`repro.imaging` — pure-numpy imaging utilities
* :mod:`repro.datasets` — synthetic BBBC005 / DSB2018 / MoNuSeg generators
* :mod:`repro.api` — unified Segmenter protocol, registry, and run-specs
* :mod:`repro.seghdc` — the SegHDC pipeline (the paper's contribution)
* :mod:`repro.serving` — concurrent serving layer over any segmenter
* :mod:`repro.baseline` — the CNN-based unsupervised segmentation baseline
* :mod:`repro.metrics` — IoU and cluster-matching metrics
* :mod:`repro.device` — edge-device (Raspberry Pi) latency and memory model
* :mod:`repro.experiments` — one module per paper table/figure
"""

from repro.api import (
    RunSpec,
    Segmenter,
    available_segmenters,
    make_segmenter,
)
from repro.seghdc import SegHDC, SegHDCConfig

# After repro.seghdc on purpose: resolving SegmentationResult first imports
# repro.imaging before this thread holds the repro.seghdc module lock, long
# enough for a concurrent first ``import repro.seghdc.pipeline`` to take it
# and deadlock the two imports.
from repro.api import SegmentationResult
from repro.metrics import best_foreground_iou

__version__ = "1.1.0"

__all__ = [
    "RunSpec",
    "SegHDC",
    "SegHDCConfig",
    "SegmentationResult",
    "Segmenter",
    "available_segmenters",
    "best_foreground_iou",
    "make_segmenter",
    "__version__",
]
