"""SegHDC: hyperdimensional-computing based unsupervised image segmentation.

This is the paper's primary contribution: the four-component pipeline of
position encoder, color encoder, pixel-HV producer, and HD K-Means clusterer.
The public entry point is :class:`SegHDCEngine` configured by
:class:`SegHDCConfig`; it is registered as ``"seghdc"``.

Segmentation results are :class:`repro.api.SegmentationResult`, the one
output type every registered segmenter shares; import it (and
``normalize_image``) from :mod:`repro.api`, not from this package.
"""

from repro.seghdc.config import SegHDCConfig
from repro.seghdc.position_encoder import (
    BlockDecayPositionEncoder,
    RandomPositionEncoder,
    UniformPositionEncoder,
    make_position_encoder,
)
from repro.seghdc.color_encoder import (
    ManhattanColorEncoder,
    RandomColorEncoder,
    make_color_encoder,
)
from repro.seghdc.pixel_producer import PixelHVProducer
from repro.seghdc.clusterer import HDKMeans, ClusteringResult
from repro.seghdc.engine import SegHDCEngine
from repro.seghdc.video import VideoSession, synthetic_video, warm_start_cut

__all__ = [
    "BlockDecayPositionEncoder",
    "ClusteringResult",
    "HDKMeans",
    "SegHDCEngine",
    "ManhattanColorEncoder",
    "PixelHVProducer",
    "RandomColorEncoder",
    "RandomPositionEncoder",
    "SegHDCConfig",
    "UniformPositionEncoder",
    "VideoSession",
    "make_color_encoder",
    "make_position_encoder",
    "synthetic_video",
    "warm_start_cut",
]
