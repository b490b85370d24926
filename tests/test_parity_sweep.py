"""Systematic dense-vs-packed parity sweep.

This replaces the earlier point-check parity tests (one random matrix in
``test_backend.py``, one two-image batch in ``test_engine.py``) with a
property-style grid: randomized image content over degenerate and non-square
shapes, the three dimension regimes the experiments use, integer and float
grayscale inputs, and both cluster counts.  Every case asserts the strongest
possible property — bit-identical label maps through the full pipeline and
identical per-row popcounts of the encoded pixel-HV storages — so any future
kernel rewrite (bit-sliced bundling, SIMD, GPU) that changes even one bit
anywhere in the encode or cluster path fails loudly here.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.api.result import normalize_image
from repro.hdc import DenseBackend, HypervectorSpace, PackedBackend
from repro.imaging.image import to_grayscale
from repro.seghdc import HDKMeans, SegHDCConfig, SegHDCEngine
from repro.seghdc.color_encoder import make_color_encoder
from repro.seghdc.pixel_producer import PixelHVProducer
from repro.seghdc.position_encoder import make_position_encoder
from repro.tiling import blob_field

# Degenerate single-row/column strips, a small non-square, and a larger
# non-square that spans several block-decay blocks.
SHAPES = [(1, 9), (9, 1), (5, 8), (12, 7)]
DIMENSIONS = [64, 1000, 4096]
DTYPES = ["uint8", "float"]
CLUSTER_COUNTS = [2, 3]


def _case_image(shape: tuple, dtype: str, seed: int) -> np.ndarray:
    """Randomized image content, deterministic per case."""
    rng = np.random.default_rng(seed)
    if dtype == "uint8":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return rng.random(shape, dtype=np.float64)


def _case_config(dimension: int, num_clusters: int, backend: str) -> SegHDCConfig:
    return SegHDCConfig(
        dimension=dimension,
        num_clusters=num_clusters,
        num_iterations=3,
        alpha=0.2,
        beta=2,
        seed=0,
        backend=backend,
    )


def _case_seed(shape: tuple, dimension: int, dtype: str, num_clusters: int) -> int:
    # Distinct deterministic content per grid point (crc32, not hash():
    # string hashing is randomized per interpreter run).
    return zlib.crc32(repr((shape, dimension, dtype, num_clusters)).encode())


@pytest.mark.parametrize("num_clusters", CLUSTER_COUNTS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestLabelMapParity:
    def test_backends_produce_identical_label_maps(
        self, shape, dimension, dtype, num_clusters
    ):
        image = _case_image(
            shape, dtype, _case_seed(shape, dimension, dtype, num_clusters)
        )
        dense = SegHDCEngine(
            _case_config(dimension, num_clusters, "dense")
        ).segment(image)
        packed = SegHDCEngine(
            _case_config(dimension, num_clusters, "packed")
        ).segment(image)
        assert dense.labels.shape == shape
        assert np.array_equal(dense.labels, packed.labels), (
            f"label maps diverged for shape={shape} d={dimension} "
            f"dtype={dtype} k={num_clusters}"
        )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestStorageParity:
    def test_encoded_storages_have_identical_row_bits(
        self, shape, dimension, dtype
    ):
        """The encode stage itself must agree bit-for-bit: identical
        ``count_row_bits`` and identical unpacked pixel-HV matrices."""
        height, width = shape
        image = _case_image(shape, dtype, _case_seed(shape, dimension, dtype, 0))
        config = _case_config(dimension, 2, "dense")
        # Same construction order as the engine: seeded space, position
        # encoder, then color encoder.
        space = HypervectorSpace(config.dimension, seed=config.seed)
        position_encoder = make_position_encoder(
            config.position_encoding,
            space,
            height,
            width,
            alpha=config.alpha,
            beta=config.beta,
        )
        color_encoder = make_color_encoder(
            config.color_encoding,
            space,
            1,
            levels=config.color_levels,
            gamma=config.gamma,
        )

        def bind(backend):
            # The engine's two calls: cached grid, then per-image color bind.
            return backend.bind_color(
                backend.bind_position_grid(
                    position_encoder.row_hypervectors(),
                    position_encoder.column_hypervectors(),
                ),
                color_encoder.level_indices(image),
                backend.color_tables(color_encoder.level_tables()),
                np.arange(height * width),
            )

        dense_backend, packed_backend = DenseBackend(), PackedBackend()
        dense_storage = bind(dense_backend)
        packed_storage = bind(packed_backend)
        assert np.array_equal(
            dense_storage.data,
            PixelHVProducer(position_encoder, color_encoder).produce_image(image),
        )
        assert np.array_equal(
            dense_backend.count_row_bits(dense_storage),
            packed_backend.count_row_bits(packed_storage),
        )
        assert np.array_equal(
            packed_backend.unpack(packed_storage), dense_storage.data
        )


class TestDegenerateShapes:
    @pytest.mark.parametrize("dimension", [64, 1000])
    def test_1x1_image_fails_identically_on_both_backends(self, dimension):
        """A 1x1 image cannot form two clusters; both backends must agree on
        the failure instead of one crashing differently."""
        image = np.array([[137]], dtype=np.uint8)
        errors = []
        for backend in ("dense", "packed"):
            engine = SegHDCEngine(_case_config(dimension, 2, backend))
            with pytest.raises(ValueError) as excinfo:
                engine.segment(image)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]


# --------------------------------------------------------------------------- #
# The engine clusters each distinct pixel HV once (weighted by its pixel
# count) and broadcasts labels back; that must equal HD K-Means over the
# full per-pixel matrix, on both backends.
# --------------------------------------------------------------------------- #
DISTINCT_SHAPE = (40, 48)


def _full_matrix_fit(config, image, backend, initial_centroids=None):
    """HD K-Means over every pixel's HV (``PixelHVProducer``), no ``rows``."""
    pixels, (height, width, channels) = normalize_image(image)
    space = HypervectorSpace(config.dimension, seed=config.seed)
    position_encoder = make_position_encoder(
        config.position_encoding, space, height, width,
        alpha=config.alpha, beta=config.beta,
    )
    color_encoder = make_color_encoder(
        config.color_encoding, space, channels,
        levels=config.color_levels, gamma=config.gamma,
    )
    hvs = PixelHVProducer(position_encoder, color_encoder).produce_image(pixels)
    return HDKMeans(
        config.num_clusters, config.num_iterations,
        record_history=True, backend=backend,
    ).fit(
        hvs,
        to_grayscale(pixels).astype(np.float64),
        initial_centroids=initial_centroids,
    )


def _distinct_case_image(content: str, shape: tuple, channels: int, seed: int):
    height, width = shape
    if content == "flat":
        gray = np.full(shape, 128, dtype=np.uint8)
    elif content == "blob":
        gray = blob_field(height, width, spacing=16, seed=seed)
    else:
        gray = np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)
    if channels == 1:
        return gray
    # Distinct but correlated channels, so every channel's level matters.
    return np.stack([gray, gray // 2, 255 - gray], axis=-1)


def _assert_engine_matches_full_matrix(config, images):
    """Segment ``images`` in order on one warm-start engine per backend; each
    result must equal the full-matrix fit seeded the same way."""
    for backend in ("dense", "packed"):
        engine = SegHDCEngine(
            config.with_overrides(
                backend=backend, record_history=True, warm_start=True
            )
        )
        initial = None
        for index, image in enumerate(images):
            result = engine.segment(image)
            reference = _full_matrix_fit(config, image, backend, initial)
            shape = result.labels.shape
            context = f"backend={backend} image={index}"
            assert np.array_equal(
                result.labels.reshape(-1), reference.labels
            ), context
            assert result.workload["iterations_run"] == reference.iterations_run
            assert result.workload["warm_started"] is (index > 0)
            assert len(result.history) == len(reference.history)
            for step, expected in zip(result.history, reference.history):
                assert np.array_equal(step, expected.reshape(shape)), context
            key = (*shape, result.workload["channels"])
            centroids = engine._warm_centroids[key]
            assert np.array_equal(centroids, reference.centroids), context
            initial = reference.centroids


@pytest.mark.parametrize("num_clusters", [2, 3])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("color_levels", [4, 256])
@pytest.mark.parametrize("beta", [1, 26])
@pytest.mark.parametrize("content", ["flat", "blob", "noise"])
class TestDistinctRowExactness:
    def test_segment_equals_full_matrix_fit(
        self, content, beta, color_levels, channels, num_clusters
    ):
        config = SegHDCConfig(
            dimension=256, num_clusters=num_clusters, num_iterations=6,
            beta=beta, color_levels=color_levels, seed=1,
        )
        # A cold image, then a warm-started one of the same shape.
        images = [
            _distinct_case_image(content, DISTINCT_SHAPE, channels, seed)
            for seed in (3, 4)
        ]
        _assert_engine_matches_full_matrix(config, images)
        if content != "noise" and beta > 1:
            # Repeated HVs collapsed: fewer rows than pixels are stored.
            engine = SegHDCEngine(config.with_overrides(backend="packed"))
            workload = engine.segment(images[0]).workload
            full = engine.backend.storage_nbytes(
                workload["num_pixels"], config.dimension
            )
            assert workload["hv_storage_bytes"] < full


class TestDistinctRowEdgeCases:
    @pytest.mark.parametrize(
        "shape", [(1, 50), (50, 1), (1, 1 + 26), (60, 3)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    @pytest.mark.parametrize("beta", [1, 26])
    def test_strips(self, shape, beta):
        config = SegHDCConfig(dimension=128, num_iterations=5, beta=beta)
        images = [_distinct_case_image("noise", shape, 1, seed) for seed in (5, 6)]
        _assert_engine_matches_full_matrix(config, images)

    def test_flips_saturating_at_half_the_dimension(self):
        """At d=64 and alpha=1 the row flips saturate at d//2 = 32 from row
        32 on, so those rows have identical position HVs even at beta=1."""
        config = SegHDCConfig(dimension=64, alpha=1.0, beta=1, num_iterations=6)
        images = [_distinct_case_image("blob", (70, 40), 1, seed) for seed in (1, 2)]
        _assert_engine_matches_full_matrix(config, images)
        engine = SegHDCEngine(config)
        workload = engine.segment(images[0]).workload
        assert workload["hv_storage_bytes"] < engine.backend.storage_nbytes(
            70 * 40, 64
        )

    def test_seed_pixels_sharing_one_hv(self):
        """A flat image in one beta block is a single distinct HV: every
        seed pixel maps to that one row, so all centroids start equal."""
        config = SegHDCConfig(dimension=128, num_clusters=3, beta=26)
        image = np.full((20, 20), 77, dtype=np.uint8)
        _assert_engine_matches_full_matrix(config, [image, image])
        engine = SegHDCEngine(config)
        workload = engine.segment(image).workload
        assert workload["hv_storage_bytes"] == engine.backend.storage_nbytes(1, 128)

    @pytest.mark.parametrize(
        "position_encoding", ["uniform", "manhattan", "decay", "random"]
    )
    def test_other_position_encoders(self, position_encoding):
        config = SegHDCConfig(
            dimension=200, num_iterations=5, position_encoding=position_encoding
        )
        images = [_distinct_case_image("blob", (24, 30), 3, seed) for seed in (7, 8)]
        _assert_engine_matches_full_matrix(config, images)
