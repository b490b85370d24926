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

Both steps run as whole-stack passes over the ``(T, h, w)`` array of tiles,
not as a loop over tiles: one masked sum per label value yields every
tile's per-cluster mean intensity for the canonical renumbering, and one
``ndimage.label`` per cluster id counts the components of every owned
rectangle at once, with a structure that has no coupling along the tile
axis.
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


def _label_values(labels: np.ndarray) -> "range | np.ndarray":
    """Every label value, ascending: ``range(min, max + 1)`` for integer
    labels spanning fewer than 64 ids (an absent id matches no pixel), else
    ``np.unique``, whose hash or sort over a whole image costs more than
    the per-value passes it feeds."""
    if labels.dtype.kind in "iu" and labels.size:
        low, high = int(labels.min()), int(labels.max())
        if high - low < 64:
            return range(low, high + 1)
    return np.unique(labels)


def _stacked_canonical_labels(
    labels: np.ndarray, intensity: np.ndarray
) -> np.ndarray:
    """:func:`canonical_labels` of every ``(h, w)`` slice of a ``(T, h, w)``
    stack, in whole-stack passes.

    One pass per label value counts each tile's members and sums their
    intensities in ``int64``.  ``intensity`` holds integers whose tile sums
    stay within ``2^53`` (:func:`stitch_tiles` refuses others), so those
    sums are exact, ``sum / count`` is bit-identical to the per-tile
    ``mean`` and so is the order (mean, then label id).
    """
    values = _label_values(labels)
    counts = np.zeros((labels.shape[0], len(values)), dtype=np.int64)
    sums = np.zeros_like(counts)
    for column, value in enumerate(values):
        members = labels == value
        counts[:, column] = np.count_nonzero(members, axis=(1, 2))
        sums[:, column] = np.where(members, intensity, 0).sum(
            axis=(1, 2), dtype=np.int64
        )
    # Absent labels sort last; the stable sort breaks mean ties by label id.
    means = np.divide(
        sums, counts, out=np.full(counts.shape, np.inf), where=counts > 0
    )
    ranks = np.empty(counts.shape, dtype=np.int32)
    np.put_along_axis(
        ranks,
        np.argsort(means, axis=1, kind="stable"),
        np.arange(len(values), dtype=np.int32)[None, :],
        axis=1,
    )
    canonical = np.empty(labels.shape, dtype=np.int32)
    for column, value in enumerate(values):
        np.copyto(canonical, ranks[:, column, None, None], where=labels == value)
    return canonical


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
    for value in _label_values(arr):
        mask = arr == value
        labelled, count = ndimage.label(mask, structure=structure)
        if count:
            components[mask] = labelled[mask] + offset
            offset += count
    return _renumber_by_first_appearance(components, offset)


def _renumber_by_first_appearance(components: np.ndarray, count: int) -> np.ndarray:
    """Renumber component ids ``1..count`` (each present) by row-major
    first pixel; one ``np.minimum.at`` finds every id's first pixel."""
    flat = components.reshape(-1)
    first = np.full(count + 1, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    mapping = np.zeros(count + 1, dtype=np.int32)
    mapping[1 + np.argsort(first[1:])] = np.arange(1, count + 1, dtype=np.int32)
    return mapping[components]


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
        Matching integer grayscale pixel maps (``to_grayscale``'s uint8),
        used to canonicalise cluster ids by mean intensity.  Integers keep
        the per-cluster means exact in the stacked pass; float intensities,
        or integers whose tile sums could pass ``2^53``, are refused.
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
    tiles = [np.asarray(labels) for labels in tile_labels]
    grays = [np.asarray(intensity) for intensity in tile_intensities]
    for index, (tile, gray) in enumerate(zip(tiles, grays)):
        for name, array in (("labels", tile), ("intensities", gray)):
            if array.shape != grid.tile_shape:
                raise ValueError(
                    f"tile {index} {name} have shape {array.shape}, "
                    f"expected {grid.tile_shape}"
                )
    gray_stack = np.stack(grays)
    if (
        gray_stack.dtype.kind not in "biu"
        or int(np.abs(gray_stack).max(initial=0)) * gray_stack[0].size > 2**53
    ):
        raise ValueError(
            "tile intensities must be integer gray levels whose tile sums stay "
            f"within 2^53, got {gray_stack.dtype}"
        )
    canonical = _stacked_canonical_labels(np.stack(tiles), gray_stack)
    cluster_map = np.zeros((grid.image_height, grid.image_width), dtype=np.int32)
    owned_rows = np.zeros((grid.num_tiles, grid.tile_height), dtype=bool)
    owned_cols = np.zeros((grid.num_tiles, grid.tile_width), dtype=bool)
    for box, tile, rows, cols in zip(grid.boxes, canonical, owned_rows, owned_cols):
        cluster_map[box.owned_slices] = tile[box.owned_local_slices]
        rows[box.owned_local_slices[0]] = True
        cols[box.owned_local_slices[1]] = True
    # Count (not number) the components inside each owned rectangle, the
    # statistic the seam merge count is measured against: every pixel a
    # tile does not own becomes -1, and the label structure couples pixels
    # only within a tile.
    owned = np.where(
        owned_rows[:, :, None] & owned_cols[:, None, :], canonical, -1
    )
    structure = np.zeros((3, 3, 3), dtype=bool)
    structure[1] = STRUCTURES[connectivity]
    pre_merge = sum(
        ndimage.label(owned == value, structure=structure)[1]
        for value in range(int(canonical.max(initial=0)) + 1)
    )
    segment_labels = partition_components(cluster_map, connectivity=connectivity)
    num_segments = int(segment_labels.max(initial=0))
    stats = {
        **grid.describe(),
        "connectivity": connectivity,
        "num_segments": num_segments,
        "pre_merge_components": pre_merge,
        "seam_merges": pre_merge - num_segments,
        "num_clusters": int(np.count_nonzero(np.bincount(cluster_map.reshape(-1)))),
    }
    return StitchResult(cluster_map, segment_labels, stats)
