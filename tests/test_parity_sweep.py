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

from repro.hdc import DenseBackend, HypervectorSpace, PackedBackend
from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.seghdc.color_encoder import make_color_encoder
from repro.seghdc.pixel_producer import PixelHVProducer
from repro.seghdc.position_encoder import make_position_encoder

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
