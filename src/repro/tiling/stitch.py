"""Seam-consistent stitching of per-tile label maps into one global map.

Two problems stand between N independent per-tile segmentations and one
coherent global result:

1. **Cluster-label permutation.**  K-Means label ids are arbitrary per run
   — cluster 0 of one tile can be cluster 1 of its neighbour even when
   both describe the same intensity mode.  :func:`canonical_labels` fixes a
   deterministic convention: clusters are renumbered by ascending mean
   intensity (0 = darkest).  Applied per tile *and* to a whole-image
   reference run, it makes tiled and direct outputs directly comparable —
   the bit-exact parity contract of the tiled segmenter.

2. **Objects spanning tiles.**  A connected object crossing a seam is two
   (or, at a tile corner, four) different per-tile components.
   :func:`stitch_tiles` places each tile's canonical labels into its owned
   rectangle (see :class:`repro.tiling.grid.TileGrid`), then runs one
   :func:`partition_components` pass over the whole stitched cluster map.
   The global segments are therefore exactly that fresh component pass by
   construction; the per-tile component count is kept only as a statistic.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.postprocess.components import STRUCTURES
from repro.tiling.grid import TileGrid

__all__ = [
    "StitchResult",
    "canonical_labels",
    "partition_components",
    "stitch_tiles",
]


def canonical_labels(labels: np.ndarray, intensity: np.ndarray) -> np.ndarray:
    """Renumber cluster labels by ascending mean intensity (0 = darkest).

    ``labels`` is any integer label map; ``intensity`` is a same-shape
    float/int map (grayscale pixels).  Only labels actually present get
    ids, numbered compactly ``0..m-1`` in order of their members' mean
    intensity (ties broken by original label id, so the result is
    deterministic).  This removes the per-run K-Means label permutation:
    two segmentations of the same pixels that induce the same *partition*
    canonicalise to the same map.
    """
    arr = np.asarray(labels)
    gray = np.asarray(intensity, dtype=np.float64)
    if arr.shape != gray.shape:
        raise ValueError(
            f"labels shape {arr.shape} does not match intensity shape {gray.shape}"
        )
    present = np.unique(arr)
    means = np.array(
        [gray[arr == label].mean() for label in present], dtype=np.float64
    )
    order = np.argsort(means, kind="stable")
    mapping = np.empty(present.size, dtype=np.int32)
    mapping[order] = np.arange(present.size, dtype=np.int32)
    # Map via searchsorted: ``present`` is sorted, so each pixel's label
    # position indexes its canonical id.
    positions = np.searchsorted(present, arr)
    return mapping[positions].astype(np.int32)


def partition_components(labels: np.ndarray, *, connectivity: int = 4) -> np.ndarray:
    """Connected components of a full label partition (no background).

    Unlike :func:`repro.postprocess.components.connected_components`, which
    labels the foreground of a binary mask, this treats *every* cluster id
    as its own region class: two adjacent pixels share a component iff they
    share a cluster label.  Components are numbered ``1..N`` in row-major
    first-appearance order, so the numbering is deterministic and
    stitch-comparable.
    """
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError(f"labels must be 2-D, got shape {arr.shape}")
    if connectivity not in STRUCTURES:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    structure = STRUCTURES[connectivity]
    components = np.zeros(arr.shape, dtype=np.int32)
    offset = 0
    for value in np.unique(arr):
        mask = arr == value
        labelled, count = ndimage.label(mask, structure=structure)
        if count:
            components[mask] = labelled[mask] + offset
            offset += count
    return _renumber_by_first_appearance(components)


def _renumber_by_first_appearance(components: np.ndarray) -> np.ndarray:
    """Renumber positive component ids ``1..N`` by row-major first pixel."""
    flat = components.reshape(-1)
    ids, first_index = np.unique(flat, return_index=True)
    order = np.argsort(first_index, kind="stable")
    mapping = np.empty(ids.size, dtype=np.int32)
    mapping[order] = np.arange(1, ids.size + 1, dtype=np.int32)
    positions = np.searchsorted(ids, flat)
    return mapping[positions].reshape(components.shape).astype(np.int32)


class StitchResult:
    """Everything the stitcher produced for one image.

    ``cluster_labels`` is the global canonical cluster map (the tiled
    counterpart of a direct segmentation's label map);
    ``segment_labels`` numbers the merged connected components ``1..N``;
    ``stats`` is a JSON-ready dict (tile/grid geometry, seam merge counts).
    """

    def __init__(
        self,
        cluster_labels: np.ndarray,
        segment_labels: np.ndarray,
        stats: dict,
    ) -> None:
        self.cluster_labels = cluster_labels
        self.segment_labels = segment_labels
        self.stats = stats

    @property
    def num_segments(self) -> int:
        """Number of merged global segments."""
        return int(self.stats["num_segments"])


def stitch_tiles(
    tile_labels: "list[np.ndarray]",
    tile_intensities: "list[np.ndarray]",
    grid: TileGrid,
    *,
    connectivity: int = 4,
) -> StitchResult:
    """Merge per-tile label maps into one seam-consistent global result.

    Parameters
    ----------
    tile_labels:
        One label map per grid box (row-major, ``grid.tile_shape`` each),
        straight from the per-tile segmenter (any label convention — they
        are canonicalised here).
    tile_intensities:
        Matching grayscale pixel maps, used to canonicalise cluster ids by
        mean intensity.
    grid:
        The :class:`TileGrid` the tiles were cut with.
    connectivity:
        4 or 8; adjacency used both within tiles and across seams.

    Returns a :class:`StitchResult` whose ``segment_labels`` is
    ``partition_components(cluster_labels, connectivity=...)`` — one
    whole-image pass, so the merge is exact by construction.
    ``stats["pre_merge_components"]`` sums the components inside each owned
    rectangle and ``stats["seam_merges"]`` is how many of them the seams
    joined (``pre_merge_components - num_segments``).
    """
    if connectivity not in STRUCTURES:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if len(tile_labels) != grid.num_tiles or len(tile_intensities) != grid.num_tiles:
        raise ValueError(
            f"expected {grid.num_tiles} tile label/intensity maps, got "
            f"{len(tile_labels)}/{len(tile_intensities)}"
        )
    structure = STRUCTURES[connectivity]
    cluster_map = np.zeros((grid.image_height, grid.image_width), dtype=np.int32)
    pre_merge = 0
    for box, labels, intensity in zip(grid.boxes, tile_labels, tile_intensities):
        tile = np.asarray(labels)
        if tile.shape != grid.tile_shape:
            raise ValueError(
                f"tile {box.index} labels have shape {tile.shape}, "
                f"expected {grid.tile_shape}"
            )
        owned = canonical_labels(tile, intensity)[box.owned_local_slices]
        cluster_map[box.owned_slices] = owned
        # Count (not number) the components inside the owned rectangle:
        # the statistic the seam merge count is measured against.
        for value in np.unique(owned):
            pre_merge += ndimage.label(owned == value, structure=structure)[1]
    segment_labels = partition_components(cluster_map, connectivity=connectivity)
    num_segments = int(segment_labels.max(initial=0))
    stats = {
        **grid.describe(),
        "connectivity": connectivity,
        "num_segments": num_segments,
        "pre_merge_components": pre_merge,
        "seam_merges": pre_merge - num_segments,
        "num_clusters": int(np.unique(cluster_map).size),
    }
    return StitchResult(cluster_map, segment_labels, stats)
