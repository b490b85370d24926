"""Tiling + stitching: grid invariants, seam goldens, tiled-vs-direct parity.

The load-bearing promises under test:

* a :class:`TileGrid` emits exactly ONE tile shape per image and its
  ownership rectangles partition the image exactly;
* :func:`stitch_tiles` merges per-tile components into seam-consistent
  global segments — the goldens pin the exact stitched maps for objects
  spanning two and four tiles, with and without overlap;
* the stitch statistics keep their meanings (components counted inside
  each owned rectangle, seam merges = that count minus the segments), and
  swapping cluster ids inside tiles changes nothing;
* on imagery whose every tile contains both intensity modes, the tiled
  pipeline's cluster map is bit-exact against a direct whole-image run
  (canonicalised), on the dense AND the packed backend.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from scipy import ndimage

from repro.api import available_segmenters, make_segmenter
from repro.imaging.image import to_grayscale
from repro.postprocess.components import STRUCTURES
from repro.tiling import (
    TileGrid,
    TiledConfig,
    TiledSegmenter,
    blob_field,
    canonical_labels,
    partition_components,
    stitch_tiles,
)


class TestTileGrid:
    def test_every_tile_has_the_same_shape(self):
        grid = TileGrid(100, 70, 32, 32)
        shapes = {
            (box.row1 - box.row0, box.col1 - box.col0) for box in grid.boxes
        }
        assert shapes == {(32, 32)}
        assert grid.tile_shape == (32, 32)

    def test_edge_tiles_shift_inward_not_shrink(self):
        grid = TileGrid(100, 100, 64, 64)
        # 100 = 64 + 36: the second tile starts at 36, not 64, so it still
        # spans a full 64 pixels ending flush with the image edge.
        rows = sorted({box.row0 for box in grid.boxes})
        assert rows == [0, 36]
        assert all(box.row1 <= 100 and box.col1 <= 100 for box in grid.boxes)

    def test_ownership_partitions_the_image_exactly(self):
        for overlap in (0, 8):
            grid = TileGrid(90, 75, 32, 32, overlap=overlap)
            covered = np.zeros((90, 75), dtype=np.int32)
            for box in grid.boxes:
                covered[box.owned_slices] += 1
            assert (covered == 1).all(), f"overlap={overlap}"

    def test_owned_rect_is_inside_the_tile(self):
        grid = TileGrid(90, 75, 32, 32, overlap=8)
        for box in grid.boxes:
            assert box.row0 <= box.own_row0 < box.own_row1 <= box.row1
            assert box.col0 <= box.own_col0 < box.own_col1 <= box.col1

    def test_tile_clamps_to_small_image(self):
        grid = TileGrid(20, 24, 64, 64)
        assert grid.num_tiles == 1
        assert grid.tile_shape == (20, 24)

    def test_overlap_must_stay_below_tile_shape(self):
        with pytest.raises(ValueError, match="overlap"):
            TileGrid(100, 100, 16, 16, overlap=16)

    def test_describe_is_json_ready(self):
        spec = TileGrid(100, 70, 32, 32, overlap=4).describe()
        assert spec["image_shape"] == [100, 70]
        assert spec["tile_shape"] == [32, 32]
        assert spec["num_tiles"] == spec["grid_shape"][0] * spec["grid_shape"][1]


class TestStitchPrimitives:
    def test_canonical_labels_order_clusters_by_mean_intensity(self):
        labels = np.array([[0, 0], [1, 1]])
        intensity = np.array([[200, 210], [10, 20]], dtype=np.uint8)
        # Cluster 1 is darker -> canonical 0; cluster 0 brighter -> 1.
        assert np.array_equal(
            canonical_labels(labels, intensity), np.array([[1, 1], [0, 0]])
        )

    def test_canonical_labels_are_idempotent(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=(12, 9))
        intensity = rng.integers(0, 256, size=(12, 9)).astype(np.uint8)
        once = canonical_labels(labels, intensity)
        assert np.array_equal(canonical_labels(once, intensity), once)

    def test_partition_components_numbering_is_row_major(self):
        labels = np.array(
            [
                [0, 0, 1, 1],
                [1, 1, 1, 1],
                [0, 1, 0, 0],
            ]
        )
        components = partition_components(labels)
        # First appearance order: (0,0) cluster-0 block, then the cluster-1
        # body, then the two later cluster-0 islands.
        assert components[0, 0] == 1
        assert components[0, 2] == 2
        assert components[2, 0] == 3
        assert components[2, 2] == 4

    def test_connectivity_8_bridges_diagonals(self):
        labels = np.array([[1, 0], [0, 1]])
        assert partition_components(labels, connectivity=4).max() == 4
        assert partition_components(labels, connectivity=8).max() == 2


def _stitch_synthetic(cluster_map, intensity, tile_shape, *, overlap=0,
                      connectivity=4):
    """Cut a known global cluster map into tiles and stitch it back."""
    grid = TileGrid(*cluster_map.shape, *tile_shape, overlap=overlap)
    tile_labels = [cluster_map[box.tile_slices] for box in grid.boxes]
    tile_intensities = [intensity[box.tile_slices] for box in grid.boxes]
    return stitch_tiles(
        tile_labels, tile_intensities, grid, connectivity=connectivity
    )


class TestStitchGoldens:
    """Pinned stitched maps: seam-consistent relabeling, bit-for-bit."""

    def test_object_spanning_two_tiles_golden(self):
        # A 4x8 image cut into two 4x4 tiles; a bright bar crosses the seam
        # on row 1.  The bar must come out as ONE segment, the background as
        # one more, and the lone right-tile island as a third.
        cluster_map = np.array(
            [
                [0, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 1, 1, 1, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 0],
            ]
        )
        intensity = np.where(cluster_map == 1, 200, 30).astype(np.uint8)
        stitched = _stitch_synthetic(cluster_map, intensity, (4, 4))
        golden = np.array(
            [
                [1, 1, 1, 1, 1, 1, 1, 1],
                [1, 2, 2, 2, 2, 2, 1, 1],
                [1, 1, 1, 1, 1, 1, 1, 1],
                [1, 1, 1, 1, 1, 1, 3, 1],
            ]
        )
        assert np.array_equal(stitched.segment_labels, golden)
        assert np.array_equal(stitched.cluster_labels, cluster_map)
        assert stitched.num_segments == 3
        assert stitched.stats["pre_merge_components"] == 5  # 2 + 3 per tile
        assert stitched.stats["seam_merges"] == 2  # bar + background

    def test_object_spanning_four_tiles_golden(self):
        # An 8x8 image cut into four 4x4 tiles; a 4x4 square sits on the
        # corner where all four tiles meet, contributing one component per
        # tile that three seam merges must reunite.
        cluster_map = np.zeros((8, 8), dtype=np.int64)
        cluster_map[2:6, 2:6] = 1
        intensity = np.where(cluster_map == 1, 220, 20).astype(np.uint8)
        stitched = _stitch_synthetic(cluster_map, intensity, (4, 4))
        golden = np.ones((8, 8), dtype=np.int64)
        golden[2:6, 2:6] = 2
        assert np.array_equal(stitched.segment_labels, golden)
        assert stitched.num_segments == 2
        assert stitched.stats["pre_merge_components"] == 8  # 4 bg + 4 square
        assert stitched.stats["seam_merges"] == 6  # 3 for the square, 3 bg

    def test_overlap_and_no_overlap_stitch_identically(self):
        # When per-tile labels agree (they are cuts of one global map), the
        # overlap bands are redundant context: ownership-rect assembly must
        # produce the identical stitched output either way.
        cluster_map = np.zeros((12, 12), dtype=np.int64)
        cluster_map[3:9, 3:9] = 1
        cluster_map[0, 11] = 1
        intensity = np.where(cluster_map == 1, 200, 40).astype(np.uint8)
        plain = _stitch_synthetic(cluster_map, intensity, (6, 6))
        overlapped = _stitch_synthetic(
            cluster_map, intensity, (6, 6), overlap=2
        )
        assert np.array_equal(plain.segment_labels, overlapped.segment_labels)
        assert np.array_equal(plain.cluster_labels, overlapped.cluster_labels)
        golden = np.ones((12, 12), dtype=np.int64)
        golden[3:9, 3:9] = 3  # the corner island at (0, 11) claims id 2
        golden[0, 11] = 2
        assert np.array_equal(plain.segment_labels, golden)

    def test_diagonal_contact_respects_connectivity(self):
        # Two squares touching only at the center corner point, in separate
        # tiles: 4-connectivity keeps them apart, 8 merges them.
        cluster_map = np.zeros((8, 8), dtype=np.int64)
        cluster_map[2:4, 2:4] = 1
        cluster_map[4:6, 4:6] = 1
        intensity = np.where(cluster_map == 1, 210, 25).astype(np.uint8)
        four = _stitch_synthetic(cluster_map, intensity, (4, 4))
        eight = _stitch_synthetic(
            cluster_map, intensity, (4, 4), connectivity=8
        )
        assert four.num_segments == 3
        assert eight.num_segments == 2

    def test_stitch_stats_on_random_maps(self):
        # The segments are one whole-image component pass by construction;
        # the stats must keep their meanings: components counted inside each
        # owned rectangle, and the seams joining the surplus back together.
        rng = np.random.default_rng(11)
        for shape in ((37, 29), (50, 41)):
            for overlap in (0, 3):
                for connectivity in (4, 8):
                    case = f"shape={shape} overlap={overlap} c={connectivity}"
                    cluster_map = rng.integers(0, 3, size=shape)
                    intensity = rng.integers(0, 256, size=shape).astype(np.uint8)
                    stitched = _stitch_synthetic(
                        cluster_map,
                        intensity,
                        (16, 16),
                        overlap=overlap,
                        connectivity=connectivity,
                    )
                    stats = stitched.stats
                    grid = TileGrid(*shape, 16, 16, overlap=overlap)
                    per_tile = sum(
                        int(
                            partition_components(
                                stitched.cluster_labels[box.owned_slices],
                                connectivity=connectivity,
                            ).max()
                        )
                        for box in grid.boxes
                    )
                    assert stats["pre_merge_components"] == per_tile, case
                    assert (
                        stats["seam_merges"]
                        == per_tile - stitched.num_segments
                    ), case
                    assert (
                        stats["num_clusters"]
                        == np.unique(stitched.cluster_labels).size
                    ), case

    @pytest.mark.parametrize("overlap", [0, 4])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_permuted_tile_ids_stitch_identically(self, overlap, connectivity):
        # K-Means ids are arbitrary per tile: swapping them in every other
        # tile must not change the stitched maps or any statistic.
        rng = np.random.default_rng(5)
        cluster_map = rng.integers(0, 2, size=(40, 56))
        intensity = np.where(cluster_map == 1, 200, 30).astype(np.uint8)
        grid = TileGrid(40, 56, 16, 16, overlap=overlap)
        tile_labels = [cluster_map[box.tile_slices] for box in grid.boxes]
        swapped = [
            1 - labels if index % 2 else labels
            for index, labels in enumerate(tile_labels)
        ]
        tile_intensities = [intensity[box.tile_slices] for box in grid.boxes]
        plain = stitch_tiles(
            tile_labels, tile_intensities, grid, connectivity=connectivity
        )
        permuted = stitch_tiles(
            swapped, tile_intensities, grid, connectivity=connectivity
        )
        assert np.array_equal(plain.cluster_labels, permuted.cluster_labels)
        assert np.array_equal(plain.segment_labels, permuted.segment_labels)
        assert plain.stats == permuted.stats


def _per_tile_stitch(tile_labels, tile_intensities, grid, connectivity):
    """The stitch spelled out one tile at a time: ``canonical_labels`` per
    tile, a per-value component count per owned rectangle, and a
    whole-image component pass renumbered through ``np.unique`` first
    indices.  Returns ``(cluster_map, segment_labels, stats)``."""
    structure = STRUCTURES[connectivity]
    shape = (grid.image_height, grid.image_width)
    cluster_map = np.zeros(shape, dtype=np.int32)
    pre_merge = 0
    for box, labels, intensity in zip(grid.boxes, tile_labels, tile_intensities):
        owned = canonical_labels(labels, intensity)[box.owned_local_slices]
        cluster_map[box.owned_slices] = owned
        for value in np.unique(owned):
            pre_merge += ndimage.label(owned == value, structure=structure)[1]
    components = np.zeros(shape, dtype=np.int64)
    offset = 0
    for value in np.unique(cluster_map):
        labelled, count = ndimage.label(cluster_map == value, structure=structure)
        components[labelled > 0] = labelled[labelled > 0] + offset
        offset += count
    ids, first = np.unique(components, return_index=True)
    ranks = np.empty(ids.size, dtype=np.int64)
    ranks[np.argsort(first)] = np.arange(1, ids.size + 1)
    segments = ranks[np.searchsorted(ids, components)]
    stats = {
        **grid.describe(),
        "connectivity": connectivity,
        "num_segments": int(segments.max()),
        "pre_merge_components": int(pre_merge),
        "seam_merges": int(pre_merge - segments.max()),
        "num_clusters": int(np.unique(cluster_map).size),
    }
    return cluster_map, segments, stats


def _stitch_case(rng, family, grid, num_clusters):
    """Per-tile labels and intensities of one differential family."""
    labels, intensities = [], []
    for index in range(grid.num_tiles):
        tile = rng.integers(0, num_clusters, size=grid.tile_shape)
        if family == "tied-means":
            # Every cluster of a tile has the same mean: label id decides.
            gray = np.full(grid.tile_shape, 90 + index % 3, dtype=np.uint8)
        elif family == "near-tied-means":
            # Means a few counts apart out of a whole tile.
            gray = (100 + (rng.random(grid.tile_shape) < 0.02)).astype(np.uint8)
        elif family == "single-cluster":
            tile = np.full(grid.tile_shape, index % num_clusters)
            gray = rng.integers(0, 256, size=grid.tile_shape).astype(np.uint8)
        elif family == "sparse-ids":
            # Far-apart and negative label ids.
            tile = (tile * 1000 - 7).astype(np.int64)
            gray = rng.integers(0, 256, size=grid.tile_shape).astype(np.uint8)
        else:
            gray = rng.integers(0, 256, size=grid.tile_shape).astype(np.uint8)
        labels.append(tile)
        intensities.append(gray)
    return labels, intensities


class TestStitchDifferential:
    """``stitch_tiles`` runs whole-stack passes; it must equal the
    tile-by-tile stitch in every map and every statistic."""

    @pytest.mark.parametrize(
        "family",
        [
            "random",
            "tied-means",
            "near-tied-means",
            "single-cluster",
            "sparse-ids",
        ],
    )
    @pytest.mark.parametrize("overlap", [0, 3])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_equals_the_per_tile_stitch(self, family, overlap, connectivity):
        rng = np.random.default_rng([sum(map(ord, family)), overlap, connectivity])
        for shape, tile, num_clusters in (
            ((37, 29), (16, 16), 2),
            ((50, 41), (12, 20), 3),
            ((24, 64), (8, 8), 3),
        ):
            grid = TileGrid(*shape, *tile, overlap=overlap)
            labels, intensities = _stitch_case(rng, family, grid, num_clusters)
            cluster_map, segments, stats = _per_tile_stitch(
                labels, intensities, grid, connectivity
            )
            stitched = stitch_tiles(
                labels, intensities, grid, connectivity=connectivity
            )
            assert np.array_equal(stitched.cluster_labels, cluster_map)
            assert np.array_equal(stitched.segment_labels, segments)
            assert stitched.stats == stats
            assert stitched.cluster_labels.dtype == np.int32
            assert stitched.segment_labels.dtype == np.int32


class TestStitchRefusals:
    def _inputs(self):
        grid = TileGrid(16, 16, 8, 8)
        labels = [np.zeros((8, 8), dtype=np.int32)] * grid.num_tiles
        intensity = [np.zeros((8, 8), dtype=np.uint8)] * grid.num_tiles
        return labels, intensity, grid

    def test_refuses_wrong_tile_count(self):
        labels, intensity, grid = self._inputs()
        with pytest.raises(ValueError, match="expected 4 tile"):
            stitch_tiles(labels[:3], intensity[:3], grid)

    def test_refuses_wrong_tile_shape(self):
        labels, intensity, grid = self._inputs()
        labels[2] = np.zeros((8, 7), dtype=np.int32)
        with pytest.raises(ValueError, match="tile 2 labels have shape"):
            stitch_tiles(labels, intensity, grid)

    @pytest.mark.parametrize(
        "gray", [np.full((8, 8), 0.5), np.full((8, 8), 2**50, dtype=np.int64)]
    )
    def test_refuses_float_or_oversized_intensities(self, gray):
        labels, intensity, grid = self._inputs()
        intensity = [gray] * grid.num_tiles
        with pytest.raises(ValueError, match="integer gray levels"):
            stitch_tiles(labels, intensity, grid)

    def test_refuses_connectivity_6(self):
        labels, intensity, grid = self._inputs()
        with pytest.raises(ValueError, match="connectivity must be 4 or 8"):
            stitch_tiles(labels, intensity, grid, connectivity=6)


class TestBlobField:
    def test_deterministic_and_two_valued(self):
        image = blob_field(96, 96, spacing=32, seed=5)
        assert np.array_equal(image, blob_field(96, 96, spacing=32, seed=5))
        assert set(np.unique(image)) == {40, 215}

    def test_every_tile_sees_both_modes(self):
        image = blob_field(128, 128, spacing=32, seed=1)
        grid = TileGrid(128, 128, 48, 48)
        for box in grid.boxes:
            tile = image[box.tile_slices]
            assert tile.min() == 40 and tile.max() == 215


class TestTiledConfig:
    def test_base_config_normalises_to_full_dict(self):
        config = TiledConfig(base_config={"dimension": 512})
        assert config.base_config["dimension"] == 512
        assert config.base_config["num_iterations"] == 10  # seghdc default

    def test_rejects_recursive_tiling(self):
        with pytest.raises(ValueError, match="cannot tile itself"):
            TiledConfig(base="tiled")

    def test_rejects_unknown_base_with_available_list(self):
        with pytest.raises(ValueError, match="available"):
            TiledConfig(base="nope")

    def test_rejects_overlap_at_tile_size(self):
        with pytest.raises(ValueError, match="overlap"):
            TiledConfig(tile_height=16, tile_width=16, overlap=16)

    def test_round_trips_through_dict(self):
        config = TiledConfig(
            base="threshold", tile_height=32, tile_width=48, overlap=4
        )
        assert TiledConfig.from_dict(config.to_dict()) == config


class TestTiledSegmenter:
    def test_registered_and_buildable_from_spec(self):
        assert "tiled" in available_segmenters()
        segmenter = make_segmenter(
            {"segmenter": "tiled", "config": {"base": "threshold"}}
        )
        assert isinstance(segmenter, TiledSegmenter)

    def test_describe_round_trip_and_pickle(self):
        segmenter = TiledSegmenter(
            TiledConfig(base="threshold", tile_height=32, tile_width=32)
        )
        rebuilt = make_segmenter(segmenter.describe())
        assert rebuilt.config == segmenter.config
        assert pickle.loads(pickle.dumps(segmenter)).config == segmenter.config

    def test_tile_runner_result_count_is_validated(self):
        segmenter = TiledSegmenter(
            TiledConfig(base="threshold", tile_height=8, tile_width=8),
            tile_runner=lambda tiles: [],
        )
        with pytest.raises(ValueError, match="tile runner returned"):
            segmenter.segment(np.zeros((16, 16), dtype=np.uint8))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_sliced_gray_stitches_like_per_tile_gray(self, channels):
        """Tile intensities sliced from the once-grayed image stitch exactly
        like ``to_grayscale`` of every tile: same maps, stats, seam merges."""
        rng = np.random.default_rng(5)
        image = blob_field(72, 88, spacing=16, seed=4)
        if channels == 3:
            noise = rng.integers(-40, 40, image.shape + (3,))
            image = np.clip(image[..., None] + noise, 0, 255).astype(np.uint8)
        tile_results = []

        def runner(tiles):
            tile_results[:] = [base.segment(tile) for tile in tiles]
            return tile_results

        segmenter = TiledSegmenter(
            TiledConfig(base="threshold", tile_height=24, tile_width=20, overlap=3),
            tile_runner=runner,
        )
        base = segmenter.base
        _result, stitched = segmenter.segment_instances(image)
        grid = segmenter.config.grid_for(*image.shape[:2])
        reference = stitch_tiles(
            [result.labels for result in tile_results],
            [to_grayscale(image[box.tile_slices]) for box in grid.boxes],
            grid,
        )
        assert stitched.stats == reference.stats
        assert stitched.stats["seam_merges"] > 0
        assert np.array_equal(stitched.cluster_labels, reference.cluster_labels)
        assert np.array_equal(stitched.segment_labels, reference.segment_labels)

    def test_segment_workload_records_tiling_stats(self):
        segmenter = TiledSegmenter(
            TiledConfig(base="threshold", tile_height=16, tile_width=16)
        )
        result = segmenter.segment(blob_field(32, 48, spacing=16, seed=2))
        tiling = result.workload["tiling"]
        assert tiling["grid_shape"] == [2, 3]
        assert tiling["tile_shape"] == [16, 16]
        assert result.workload["base"] == "threshold"
        assert result.workload["stitch_seconds"] >= 0.0


def _tiled_vs_direct(image, *, backend, overlap=0):
    base_config = {
        "dimension": 1024,
        "num_iterations": 10,
        "backend": backend,
    }
    tiled = TiledSegmenter(
        TiledConfig(
            base_config=base_config,
            tile_height=48,
            tile_width=48,
            overlap=overlap,
        )
    ).segment(image)
    direct = make_segmenter("seghdc", config=base_config).segment(image)
    reference = canonical_labels(direct.labels, to_grayscale(image))
    return tiled.labels, reference


class TestTiledParity:
    """Acceptance gate: tiled == direct whole-image run, bit for bit.

    ``blob_field`` with spacing at most the tile shape guarantees every
    tile contains both intensity modes; at dimension 1024 the per-tile and
    whole-image runs then find the identical two clusters, so the
    canonicalised maps must agree exactly.
    """

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_bit_exact_on_dense_and_packed(self, backend):
        image = blob_field(96, 96, spacing=32, seed=0)
        tiled, reference = _tiled_vs_direct(image, backend=backend)
        assert np.array_equal(tiled, reference)

    def test_bit_exact_with_overlap_and_packed_grid(self):
        # Overlap re-segments the shared bands but ownership assembly must
        # keep the output identical; a denser (packed) blob lattice stresses
        # more seam components.
        image = blob_field(96, 96, spacing=24, radius=(4, 7), seed=3)
        tiled, reference = _tiled_vs_direct(image, backend="dense", overlap=8)
        assert np.array_equal(tiled, reference)
