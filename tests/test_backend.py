"""Tests for the pluggable HDC compute backends (dense vs bit-packed)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.hdc import (
    DenseBackend,
    HypervectorSpace,
    PackedBackend,
    available_backends,
    make_backend,
    pack_hvs,
    packed_words_per_hv,
    popcount_words,
    unpack_hvs,
)
from repro.hdc import backend as backend_module
from repro.hdc.backend import popcount16_table
from repro.seghdc.color_encoder import make_color_encoder
from repro.seghdc.pixel_producer import PixelHVProducer
from repro.seghdc.position_encoder import make_position_encoder


class TestPackingPrimitives:
    @pytest.mark.parametrize("dimension", [1, 7, 64, 65, 600, 1000])
    def test_pack_unpack_roundtrip(self, rng, dimension):
        hvs = rng.integers(0, 2, size=(11, dimension), dtype=np.uint8)
        packed = pack_hvs(hvs)
        assert packed.dtype == np.uint64
        assert packed.shape == (11, packed_words_per_hv(dimension))
        assert np.array_equal(unpack_hvs(packed, dimension), hvs)

    def test_xor_commutes_with_packing(self, rng):
        a = rng.integers(0, 2, size=(5, 200), dtype=np.uint8)
        b = rng.integers(0, 2, size=(5, 200), dtype=np.uint8)
        assert np.array_equal(
            pack_hvs(a) ^ pack_hvs(b), pack_hvs(np.bitwise_xor(a, b))
        )

    def test_and_popcount_equals_dot_product(self, rng):
        a = rng.integers(0, 2, size=(6, 333), dtype=np.uint8)
        b = rng.integers(0, 2, size=(6, 333), dtype=np.uint8)
        expected = (a & b).sum(axis=1)
        observed = popcount_words(pack_hvs(a) & pack_hvs(b))
        assert np.array_equal(observed, expected)

    def test_popcount16_table_is_exact(self):
        table = popcount16_table()
        assert table.shape == (1 << 16,)
        for value in (0, 1, 3, 0x00FF, 0xFFFF, 0b1010101010101010):
            assert table[value] == bin(value).count("1")

    def test_word_count_and_padding(self):
        assert packed_words_per_hv(1) == 1
        assert packed_words_per_hv(64) == 1
        assert packed_words_per_hv(65) == 2
        # Padding bits never contribute to popcounts.
        ones = np.ones((1, 65), dtype=np.uint8)
        assert popcount_words(pack_hvs(ones))[0] == 65

    def test_pack_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pack_hvs(np.uint8(1))
        with pytest.raises(ValueError):
            unpack_hvs(np.zeros((2, 3), dtype=np.uint64), 64)


class TestFactory:
    def test_available(self):
        assert available_backends() == ("dense", "packed")

    def test_make_by_name(self):
        assert isinstance(make_backend("dense"), DenseBackend)
        assert isinstance(make_backend("packed"), PackedBackend)

    def test_make_passthrough_instance(self):
        backend = PackedBackend()
        assert make_backend(backend) is backend

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("bitsliced")


@pytest.fixture(params=["dense", "packed"])
def backend(request):
    return make_backend(request.param)


def _cosine_argmax_reference(hvs, centroids):
    """Eq. 7 in exact rationals: per row, the lowest index maximising
    ``cos^2 = dot^2 / ||c||^2`` (the row norm is common to a row)."""
    rows = hvs.astype(np.int64).tolist()
    bundles = [[int(v) for v in c] for c in centroids]
    norms_sq = [max(1, sum(v * v for v in c)) for c in bundles]
    labels = []
    for row in rows:
        keys = [
            Fraction(sum(x * v for x, v in zip(row, c)) ** 2, n)
            for c, n in zip(bundles, norms_sq)
        ]
        labels.append(keys.index(max(keys)))
    return np.array(labels)


class TestKernels:
    """Both backends implement the same three kernels, bit-for-bit."""

    def _hvs(self, rng, n=40, d=300):
        return rng.integers(0, 2, size=(n, d), dtype=np.uint8)

    def test_pack_unpack_identity(self, backend, rng):
        hvs = self._hvs(rng)
        storage = backend.pack(hvs)
        assert storage.num_rows == 40
        assert storage.dimension == 300
        assert np.array_equal(backend.unpack(storage), hvs)
        assert np.array_equal(backend.unpack(storage, np.array([3, 7])), hvs[[3, 7]])

    def test_row_popcounts(self, backend, rng):
        hvs = self._hvs(rng)
        storage = backend.pack(hvs)
        assert np.array_equal(storage.row_popcounts(), hvs.sum(axis=1))

    def test_bind_position_grid_matches_dense_xor(self, backend, rng):
        rows = rng.integers(0, 2, size=(6, 130), dtype=np.uint8)
        cols = rng.integers(0, 2, size=(9, 130), dtype=np.uint8)
        storage = backend.bind_position_grid(rows, cols)
        expected = np.bitwise_xor(rows[:, None, :], cols[None, :, :]).reshape(54, 130)
        assert np.array_equal(backend.unpack(storage), expected)

    @pytest.mark.parametrize("dimension", [6, 64, 65, 140, 1001])
    @pytest.mark.parametrize("variant", ["manhattan", "random"])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("rgb_input", [False, True])
    def test_bind_color_gather_matches_produce_image(
        self, backend, rng, dimension, variant, channels, rgb_input
    ):
        space = HypervectorSpace(dimension, seed=5)
        producer = PixelHVProducer(
            make_position_encoder("block_decay", space, 7, 5, alpha=0.2, beta=2),
            make_color_encoder(variant, space, channels),
        )
        encoder = producer.color_encoder
        shape = (7, 5, 3) if rgb_input else (7, 5)
        pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
        grid = backend.bind_position_grid(
            producer.position_encoder.row_hypervectors(),
            producer.position_encoder.column_hypervectors(),
        )
        levels = encoder.level_indices(pixels)
        tables = backend.color_tables(encoder.level_tables())
        bound = backend.bind_color(grid, levels, tables, np.arange(7 * 5))
        expected = producer.produce_image(pixels)
        assert np.array_equal(backend.unpack(bound), expected)
        # A subset of rows, out of order and repeated: row i of the output
        # is pixel picked[i].
        picked = np.array([34, 3, 3, 17, 0])
        subset = backend.bind_color(
            grid, [indices[picked] for indices in levels], tables, picked
        )
        assert np.array_equal(backend.unpack(subset), expected[picked])

    def test_bundle_masked_matches_sum(self, backend, rng):
        hvs = self._hvs(rng)
        storage = backend.pack(hvs)
        mask = rng.integers(0, 2, size=40).astype(bool)
        mask[0] = True
        expected = hvs[mask].astype(np.int64).sum(axis=0)
        assert np.array_equal(backend.bundle_masked(storage, mask), expected)

    def test_assign_prefers_nearest_centroid(self, backend):
        space = HypervectorSpace(512, seed=4)
        a, b = space.random(), space.random()
        hvs = np.stack([a, a, b, b, a])
        storage = backend.pack(hvs)
        centroids = np.stack([a, b]).astype(np.float64)
        labels, _ = backend.assign(storage, centroids)
        assert labels.tolist() == [0, 0, 1, 1, 0]

    def test_assign_chunking_invariant(self, backend, rng, monkeypatch):
        hvs = self._hvs(rng, n=57)
        storage = backend.pack(hvs)
        centroids = hvs[[0, 1, 2]].astype(np.float64) + hvs[[3, 4, 5]]
        # A small slab is dotted unchunked; chunking is the word kernel's.
        monkeypatch.setattr(backend_module, "SMALL_SLAB_BITS", 0)
        monkeypatch.setattr(backend_module, "ASSIGN_CHUNK_ROWS", 5)
        small, _ = backend.assign(storage, centroids)
        monkeypatch.setattr(backend_module, "ASSIGN_CHUNK_ROWS", 10_000)
        big, _ = backend.assign(storage, centroids)
        assert np.array_equal(small, big)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 8192])
    def test_dots_are_exact_integers(self, backend, rng, chunk_rows, monkeypatch):
        hvs = self._hvs(rng, n=57)
        centroids = rng.integers(0, 1 << 40, size=(3, 300))
        monkeypatch.setattr(backend_module, "SMALL_SLAB_BITS", 0)
        monkeypatch.setattr(backend_module, "ASSIGN_CHUNK_ROWS", chunk_rows)
        dots = backend.dots(backend.pack(hvs), centroids)
        assert dots.dtype == np.int64
        assert np.array_equal(dots, hvs.astype(np.int64) @ centroids.T)

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["under", "at", "over"])
    @pytest.mark.parametrize("dimension", [1024, 1001])
    @pytest.mark.parametrize("num_clusters", [2, 5])
    def test_dots_across_the_small_slab_limit(
        self, backend, rng, monkeypatch, dimension, offset, num_clusters
    ):
        """Rows just under, at and just over ``SMALL_SLAB_BITS``: the packed
        backend dots the first two unpacked and the third with its bit-plane
        kernel, and every path gives the same exact integers."""
        rows = backend_module.SMALL_SLAB_BITS // dimension + offset
        hvs = rng.integers(0, 2, size=(rows, dimension), dtype=np.uint8)
        centroids = rng.integers(0, 1 << 20, size=(num_clusters, dimension))
        centroids[:, ::9] = 0
        plane_calls = []
        planes = PackedBackend.centroid_bit_planes
        monkeypatch.setattr(
            PackedBackend,
            "centroid_bit_planes",
            staticmethod(lambda *a: plane_calls.append(1) or planes(*a)),
        )
        dots = backend.dots(backend.pack(hvs), centroids)
        assert dots.dtype == np.int64
        assert np.array_equal(dots, hvs.astype(np.int64) @ centroids.T)
        if backend.name == "packed":
            assert bool(plane_calls) == (offset > 0)

    def test_small_slab_dots_beyond_float64_use_the_word_kernel(self, rng):
        """``d * max(c)`` above ``2^53`` could round in a float64 matmul, so
        such a small slab keeps the exact bit-plane kernel."""
        hvs = np.ones((3, 1001), dtype=np.uint8)
        hvs[1] = rng.integers(0, 2, size=1001)
        centroids = np.full((2, 1001), (1 << 52) + 1, dtype=np.int64)
        centroids[1, 1:] = 1
        expected = [
            [sum(int(x) * int(c) for x, c in zip(row, centroid)) for centroid in centroids]
            for row in hvs
        ]
        packed = PackedBackend()
        assert packed.dots(packed.pack(hvs), centroids).tolist() == expected

    @pytest.mark.parametrize("high", [50, 1 << 30])
    def test_assign_exact_tie_goes_to_lowest_index(self, backend, high):
        """``c_b = 3 c_a`` gives every row two equal cosines; the lowest
        index must win all of them, even where ``||c||^2`` passes 2^63."""
        rng = np.random.default_rng(11)
        hvs = rng.integers(0, 2, size=(4000, 1000), dtype=np.uint8)
        base = rng.integers(1, high, size=1000)
        centroids = np.stack([base, 3 * base]).astype(np.float64)
        labels, _ = backend.assign(backend.pack(hvs), centroids)
        assert np.count_nonzero(labels) == 0

    def test_assign_near_tie_matches_exact_reference(self, backend):
        """``c_b = 3 c_a`` with one coordinate moved by +-2: the cosines
        differ in the ~7th digit, below float32 resolution."""
        dimension = 256
        for seed in range(300):
            trial = np.random.default_rng(seed)
            base = trial.integers(1, 1 << 17, size=dimension)
            other = 3 * base
            other[trial.integers(dimension)] += trial.choice([-2, 2])
            centroids = np.stack([base, other]).astype(np.float64)
            hvs = trial.integers(0, 2, size=(4, dimension), dtype=np.uint8)
            labels, _ = backend.assign(backend.pack(hvs), centroids)
            expected = _cosine_argmax_reference(hvs, centroids)
            assert np.array_equal(labels, expected), f"seed {seed}"

    @pytest.mark.parametrize(
        "bad, message",
        [(0.5, "integer-valued"), (-1.0, "non-negative")],
    )
    def test_assign_rejects_non_integer_and_negative_centroids(
        self, backend, rng, bad, message
    ):
        storage = backend.pack(rng.integers(0, 2, size=(4, 64), dtype=np.uint8))
        centroids = np.ones((2, 64))
        centroids[0, 5] = bad
        with pytest.raises(ValueError, match=message):
            backend.assign(storage, centroids)


@pytest.mark.parametrize("top", [0, 1, 255, 256, 65535, 65536, 1 << 40])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_centroid_bit_planes_rebuild_the_centroids(rng, top, dtype):
    """Planes decode to the centroids exactly, across the widths the
    planes are masked in (uint8 .. uint64), for float and int input."""
    dimension = 70
    centroids = rng.integers(0, top + 1, size=(3, dimension))
    centroids[0, 0] = top
    planes = PackedBackend.centroid_bit_planes(centroids.astype(dtype), dimension)
    assert planes.shape == (max(1, top.bit_length()), 3, 2)
    bits = unpack_hvs(planes, dimension).astype(np.int64)
    weights = np.left_shift(1, np.arange(planes.shape[0], dtype=np.int64))
    assert np.array_equal(np.tensordot(weights, bits, axes=1), centroids)


class TestDensePackedParity:
    """Backend-specific contracts.  Label-map parity itself is covered by
    the systematic grid in ``test_parity_sweep.py``."""

    def test_packed_storage_is_about_8x_smaller(self, rng):
        hvs = rng.integers(0, 2, size=(100, 1024), dtype=np.uint8)
        dense_bytes = DenseBackend().pack(hvs).nbytes
        packed_bytes = PackedBackend().pack(hvs).nbytes
        assert packed_bytes * 8 == dense_bytes


class TestPickling:
    """Backends pickle by default, keeping their constructor tunables."""

    def test_backends_pickle_by_name(self):
        import pickle

        dense = pickle.loads(pickle.dumps(DenseBackend()))
        assert isinstance(dense, DenseBackend)
        packed = pickle.loads(pickle.dumps(PackedBackend(bundle_chunk_rows=7)))
        assert isinstance(packed, PackedBackend)
        # Constructor parameters survive the round trip.
        assert packed.bundle_chunk_rows == 7
