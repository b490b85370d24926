"""Micro-benchmarks of the SegHDC pipeline stages.

These are not tied to a specific paper table; they time the individual
components (position encoding, color encoding, pixel binding, one K-Means
assignment round, and an end-to-end segmentation) so regressions in the hot
paths show up directly.  Multiple rounds are used because each call is fast.

The ``TestBackendThroughput`` group times both compute backends side by side
on the clusterer-assignment kernel at d = 4096 and asserts the packed
backend's headline win: >= 2x assignment throughput with bit-identical
labels.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets import make_dataset
from repro.hdc import HypervectorSpace, make_backend
from repro.seghdc import (
    HDKMeans,
    ManhattanColorEncoder,
    PixelHVProducer,
    SegHDCConfig,
    SegHDCEngine,
    make_position_encoder,
)

_HEIGHT, _WIDTH, _DIM = 96, 112, 800
_ASSIGN_DIM = 4096


@pytest.fixture(scope="module")
def sample():
    return make_dataset("dsb2018", num_images=1, image_shape=(_HEIGHT, _WIDTH), seed=0)[0]


@pytest.fixture(scope="module")
def pixel_hvs(sample):
    space = HypervectorSpace(_DIM, seed=0)
    position = make_position_encoder("block_decay", space, _HEIGHT, _WIDTH, alpha=0.2, beta=9)
    color = ManhattanColorEncoder(space, 3)
    return PixelHVProducer(position, color).produce_image(sample.image.pixels)


def test_bench_position_encoding(benchmark):
    def encode():
        space = HypervectorSpace(_DIM, seed=0)
        encoder = make_position_encoder("block_decay", space, _HEIGHT, _WIDTH, alpha=0.2, beta=9)
        return encoder.encode_grid()

    grid = benchmark(encode)
    assert grid.shape == (_HEIGHT, _WIDTH, _DIM)


def test_bench_color_encoding(benchmark, sample):
    space = HypervectorSpace(_DIM, seed=0)
    encoder = ManhattanColorEncoder(space, 3)
    encoded = benchmark(encoder.encode_image, sample.image.pixels)
    assert encoded.shape == (_HEIGHT, _WIDTH, _DIM)


def test_bench_pixel_binding(benchmark, sample):
    space = HypervectorSpace(_DIM, seed=0)
    position = make_position_encoder("block_decay", space, _HEIGHT, _WIDTH, alpha=0.2, beta=9)
    color = ManhattanColorEncoder(space, 3)
    producer = PixelHVProducer(position, color)
    hvs = benchmark(producer.produce_image, sample.image.pixels)
    assert hvs.shape == (_HEIGHT * _WIDTH, _DIM)


def test_bench_kmeans_round(benchmark, sample, pixel_hvs):
    intensities = sample.image.grayscale().astype(np.float64)

    def one_round():
        return HDKMeans(2, num_iterations=1).fit(pixel_hvs, intensities)

    result = benchmark(one_round)
    assert result.labels.shape == (_HEIGHT * _WIDTH,)


def test_bench_end_to_end_segmentation(benchmark, sample):
    config = SegHDCConfig(
        dimension=_DIM, num_clusters=2, num_iterations=3, alpha=0.2, beta=9, seed=0
    )
    result = benchmark.pedantic(
        SegHDCEngine(config).segment, args=(sample.image,), rounds=3, iterations=1
    )
    assert result.labels.shape == (_HEIGHT, _WIDTH)


# --------------------------------------------------------------------- #
# dense vs packed backends
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def assignment_problem():
    """A realistic assignment problem at d = 4096: pixel HVs + bundles."""
    rng = np.random.default_rng(0)
    num_pixels = _HEIGHT * _WIDTH
    hvs = rng.integers(0, 2, size=(num_pixels, _ASSIGN_DIM), dtype=np.uint8)
    rough_labels = rng.integers(0, 2, size=num_pixels)
    centroids = np.stack(
        [
            hvs[rough_labels == cluster].astype(np.int64).sum(axis=0)
            for cluster in range(2)
        ]
    ).astype(np.float64)
    return hvs, centroids


@pytest.mark.parametrize("backend_name", ["dense", "packed"])
def test_bench_assignment_backend(benchmark, assignment_problem, backend_name):
    """One clusterer-assignment round per backend, side by side."""
    hvs, centroids = assignment_problem
    backend = make_backend(backend_name)
    storage = backend.pack(hvs)
    storage.row_popcounts()  # pre-warm the per-fit cache, as HDKMeans does
    labels, _ = benchmark(backend.assign, storage, centroids)
    assert labels.shape == (hvs.shape[0],)


@pytest.mark.skipif(
    not hasattr(np, "bitwise_count"),
    reason="popcount falls back to the 16-bit LUT without np.bitwise_count; "
    "the 2x floor is only guaranteed with the hardware popcount ufunc",
)
def test_packed_assignment_is_2x_faster_and_bit_identical(assignment_problem):
    """Acceptance: >= 2x clusterer-assignment throughput at d = 4096 with
    label maps identical to the dense backend."""
    hvs, centroids = assignment_problem
    dense = make_backend("dense")
    packed = make_backend("packed")
    dense_storage = dense.pack(hvs)
    packed_storage = packed.pack(hvs)
    packed_storage.row_popcounts()

    def best_of(callable_, rounds=5):
        best = float("inf")
        result = None
        for _ in range(rounds):
            start = time.perf_counter()
            result = callable_()
            best = min(best, time.perf_counter() - start)
        return best, result

    dense_seconds, (dense_labels, _) = best_of(
        lambda: dense.assign(dense_storage, centroids)
    )
    packed_seconds, (packed_labels, _) = best_of(
        lambda: packed.assign(packed_storage, centroids)
    )
    assert np.array_equal(dense_labels, packed_labels)
    speedup = dense_seconds / packed_seconds
    assert speedup >= 2.0, (
        f"packed assignment speedup {speedup:.2f}x below the 2x floor "
        f"(dense {dense_seconds * 1e3:.1f} ms, packed {packed_seconds * 1e3:.1f} ms)"
    )


@pytest.mark.parametrize("backend_name", ["dense", "packed"])
def test_bench_engine_batch(benchmark, sample, backend_name):
    """Warm-cache engine throughput: grids are built once, then reused."""
    config = SegHDCConfig(
        dimension=_DIM,
        num_clusters=2,
        num_iterations=3,
        alpha=0.2,
        beta=9,
        seed=0,
        backend=backend_name,
    )
    engine = SegHDCEngine(config)
    engine.segment(sample.image)  # warm the encoder-grid cache
    result = benchmark(engine.segment, sample.image)
    assert result.workload["backend"] == backend_name
    assert result.workload["cache"]["position_grid_builds"] == 1
