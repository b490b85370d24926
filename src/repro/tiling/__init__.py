"""Gigapixel workloads: fixed-shape tiling + seam-consistent stitching.

The pieces, bottom-up:

* :class:`TileGrid` — covers an image with tiles of exactly one shape
  (edge tiles shift inward instead of shrinking), each with an ownership
  rectangle; the partition the stitcher assembles output from.
* :func:`canonical_labels` / :func:`partition_components` /
  :func:`stitch_tiles` — per-tile label canonicalisation (clusters by
  ascending mean intensity), connected components of a full label
  partition, and the stitch that places each tile's owned rectangle into
  one global cluster map and labels its segments with one whole-image
  component pass (exact by construction).
* :class:`TiledSegmenter` (registered as ``"tiled"``) — the
  :class:`repro.api.Segmenter` that wires it all behind the standard
  protocol, with a pluggable tile runner for serving/cluster fan-out.
* :func:`blob_field` — deterministic synthetic gigapixel imagery whose
  every tile contains both intensity modes (the precondition for
  bit-exact tiled-vs-direct parity).
"""

from repro.tiling.grid import TileBox, TileGrid
from repro.tiling.segmenter import TiledConfig, TiledSegmenter
from repro.tiling.stitch import (
    StitchResult,
    canonical_labels,
    partition_components,
    stitch_tiles,
)
from repro.tiling.synthetic import blob_field

__all__ = [
    "StitchResult",
    "TileBox",
    "TileGrid",
    "TiledConfig",
    "TiledSegmenter",
    "blob_field",
    "canonical_labels",
    "partition_components",
    "stitch_tiles",
]
