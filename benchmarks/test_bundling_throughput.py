"""Bundling-kernel throughput: bit-sliced vertical counters vs the baselines.

Times the centroid-update kernel (``bundle_masked``) on a realistic
assignment-sized problem at d = 4096 for three implementations:

* ``dense`` — uint8 fancy-index + ``int64`` sum (the historical reference);
* ``packed`` — the bit-sliced carry-save vertical-count kernel;
* ``packed-unpack`` — the replaced chunked dense round-trip over packed
  storage (:func:`_bundle_unpacked` below), kept here as the baseline the
  new kernel's >= 2x acceptance gate is measured against.

``test_bitsliced_bundle_2x_and_bit_exact`` is the acceptance check: the
bit-sliced kernel must be bit-identical to both baselines and >= 2x faster
than the chunked-unpack path; the assertion message carries the timings.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.hdc import make_backend, unpack_hvs

_ROWS = 96 * 112
_DIM = 4096
_SPEEDUP_FLOOR = 2.0
_UNPACK_CHUNK_ROWS = 8192


def _bundle_unpacked(storage, mask):
    """Baseline bundle: unpack the member rows chunk by chunk, then sum."""
    indices = np.flatnonzero(mask)
    total = np.zeros(storage.dimension, dtype=np.int64)
    for start in range(0, indices.size, _UNPACK_CHUNK_ROWS):
        rows = storage.data[indices[start : start + _UNPACK_CHUNK_ROWS]]
        total += unpack_hvs(rows, storage.dimension).sum(axis=0, dtype=np.int64)
    return total


@pytest.fixture(scope="module")
def bundle_problem():
    """A centroid-update-sized problem: pixel HVs plus a ~half-member mask."""
    rng = np.random.default_rng(0)
    hvs = rng.integers(0, 2, size=(_ROWS, _DIM), dtype=np.uint8)
    mask = rng.integers(0, 2, size=_ROWS).astype(bool)
    return hvs, mask


def _best_of(callable_, rounds: int = 7):
    """Minimum wall-clock over ``rounds`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("kernel", ["dense", "packed", "packed-unpack"])
def test_bench_bundle_kernel(benchmark, bundle_problem, kernel):
    """One masked bundle per kernel, side by side under pytest-benchmark."""
    hvs, mask = bundle_problem
    backend = make_backend("packed" if kernel.startswith("packed") else "dense")
    storage = backend.pack(hvs)
    bundle = (
        _bundle_unpacked if kernel == "packed-unpack" else backend.bundle_masked
    )
    total = benchmark(bundle, storage, mask)
    assert total.shape == (_DIM,)
    assert total.sum() == hvs[mask].sum()


def test_bitsliced_bundle_2x_and_bit_exact(bundle_problem):
    """Acceptance: >= 2x bundling throughput over the chunked-unpack path at
    d = 4096, bit-identical to the dense sum."""
    hvs, mask = bundle_problem
    dense = make_backend("dense")
    packed = make_backend("packed")
    dense_storage = dense.pack(hvs)
    packed_storage = packed.pack(hvs)

    _, dense_total = _best_of(
        lambda: dense.bundle_masked(dense_storage, mask)
    )
    unpack_seconds, unpack_total = _best_of(
        lambda: _bundle_unpacked(packed_storage, mask)
    )
    sliced_seconds, sliced_total = _best_of(
        lambda: packed.bundle_masked(packed_storage, mask)
    )

    assert np.array_equal(sliced_total, dense_total)
    assert np.array_equal(sliced_total, unpack_total)

    speedup_vs_unpack = unpack_seconds / sliced_seconds
    assert speedup_vs_unpack >= _SPEEDUP_FLOOR, (
        f"bit-sliced bundle speedup {speedup_vs_unpack:.2f}x below the "
        f"{_SPEEDUP_FLOOR}x floor (unpack {unpack_seconds * 1e3:.1f} ms, "
        f"bit-sliced {sliced_seconds * 1e3:.1f} ms)"
    )
