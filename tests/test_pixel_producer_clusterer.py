"""Tests for the pixel-HV producer and the HD K-Means clusterer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import HypervectorSpace, hamming_distance, make_backend
from repro.hdc import backend as backend_module
from repro.seghdc import (
    HDKMeans,
    ManhattanColorEncoder,
    PixelHVProducer,
    make_position_encoder,
)
from repro.seghdc.clusterer import select_initial_centroid_indices


def _producer(dimension=1024, height=6, width=8, channels=3, seed=0):
    space = HypervectorSpace(dimension, seed=seed)
    position = make_position_encoder("block_decay", space, height, width, alpha=0.5, beta=1)
    color = ManhattanColorEncoder(space, channels)
    return PixelHVProducer(position, color)


class TestPixelHVProducer:
    def test_single_pixel_is_xor_of_components(self):
        producer = _producer()
        position_hv = producer.position_encoder.encode(2, 3)
        color_hv = producer.color_encoder.encode_value((10, 20, 30))
        expected = np.bitwise_xor(position_hv, color_hv)
        assert np.array_equal(producer.produce_pixel(2, 3, (10, 20, 30)), expected)

    def test_produce_image_shape(self, rng):
        producer = _producer(height=5, width=7)
        image = rng.integers(0, 256, size=(5, 7, 3))
        hvs = producer.produce_image(image)
        assert hvs.shape == (35, 1024)
        assert hvs.dtype == np.uint8

    def test_produce_image_matches_pointwise(self, rng):
        producer = _producer(dimension=256, height=3, width=4)
        image = rng.integers(0, 256, size=(3, 4, 3))
        hvs = producer.produce_image(image)
        for row in range(3):
            for col in range(4):
                expected = producer.produce_pixel(row, col, tuple(image[row, col]))
                assert np.array_equal(hvs[row * 4 + col], expected)

    def test_same_color_distance_comes_from_position_only(self, rng):
        """Fig. 5(b/c): with equal colors the pixel-HV distance equals the
        position-HV distance."""
        producer = _producer(dimension=2048, height=6, width=6)
        color = (120, 64, 200)
        hv_a = producer.produce_pixel(0, 0, color)
        hv_b = producer.produce_pixel(0, 3, color)
        expected = hamming_distance(
            producer.position_encoder.encode(0, 0), producer.position_encoder.encode(0, 3)
        )
        assert hamming_distance(hv_a, hv_b) == expected

    def test_same_position_distance_comes_from_color_only(self):
        producer = _producer(dimension=2048)
        hv_a = producer.produce_pixel(1, 1, (50, 50, 50))
        hv_b = producer.produce_pixel(1, 1, (150, 50, 50))
        expected = hamming_distance(
            producer.color_encoder.encode_value((50, 50, 50)),
            producer.color_encoder.encode_value((150, 50, 50)),
        )
        assert hamming_distance(hv_a, hv_b) == expected

    def test_dimension_mismatch_is_rejected(self):
        space_a = HypervectorSpace(128, seed=0)
        space_b = HypervectorSpace(256, seed=0)
        position = make_position_encoder("manhattan", space_a, 4, 4)
        color = ManhattanColorEncoder(space_b, 3)
        with pytest.raises(ValueError, match="dimension"):
            PixelHVProducer(position, color)

    def test_image_shape_mismatch_is_rejected(self, rng):
        producer = _producer(height=4, width=4)
        with pytest.raises(ValueError, match="does not match"):
            producer.produce_image(rng.integers(0, 256, size=(5, 5, 3)))


class TestCentroidSeeding:
    def test_selects_extreme_intensities(self):
        intensities = np.array([10.0, 250.0, 40.0, 200.0, 90.0])
        indices = select_initial_centroid_indices(intensities, 2)
        assert set(indices) == {0, 1}

    def test_three_clusters_spread(self):
        intensities = np.linspace(0, 255, 101)
        indices = select_initial_centroid_indices(intensities, 3)
        assert len(set(indices)) == 3
        assert 0 in indices and 100 in indices

    def test_rejects_too_few_pixels(self):
        with pytest.raises(ValueError):
            select_initial_centroid_indices(np.array([1.0]), 2)

    def test_rejects_single_cluster(self):
        with pytest.raises(ValueError):
            select_initial_centroid_indices(np.arange(10.0), 1)

    def test_constant_intensity_image_yields_distinct_seeds(self):
        """Pathological tiny input: every pixel has the same intensity, so
        the quantile picks all land on equal values and only the stable
        argsort order separates them."""
        for num_pixels, num_clusters in [(2, 2), (3, 2), (3, 3), (7, 4)]:
            intensities = np.full(num_pixels, 128.0)
            indices = select_initial_centroid_indices(intensities, num_clusters)
            assert len(indices) == num_clusters
            assert len(set(indices.tolist())) == num_clusters
            assert all(0 <= index < num_pixels for index in indices)

    def test_num_pixels_equals_num_clusters_uses_every_pixel(self):
        """Pathological tiny input: with exactly k pixels every pixel must
        become a seed, whatever its intensity."""
        for num_clusters in (2, 3, 5):
            intensities = np.full(num_clusters, 7.0)
            indices = select_initial_centroid_indices(intensities, num_clusters)
            assert sorted(indices.tolist()) == list(range(num_clusters))
        # Also with distinct intensities.
        indices = select_initial_centroid_indices(np.array([9.0, 1.0, 5.0]), 3)
        assert sorted(indices.tolist()) == [0, 1, 2]

    @pytest.mark.parametrize(
        "intensities",
        [
            np.full(9, 42.0),  # all equal
            np.full(5, 7, dtype=np.uint8),
            np.array([3, 9, 3, 1, 9, 1, 5, 9]),  # ties at both extremes
            np.array([[1, 1, 0], [0, 2, 2]], dtype=np.uint8),
            np.array([7.0, 7.0]),  # n == k
            np.array([200, 10], dtype=np.uint8),
            np.array([-0.0, 0.0, np.inf, -np.inf, np.inf]),
        ],
    )
    def test_picks_are_the_float_stable_argsort_ends(self, intensities):
        """Integer intensities sort uncast; for k = 2 the picks are the first
        and last entries of the float64 stable argsort either way."""
        order = np.argsort(intensities.reshape(-1).astype(np.float64), kind="stable")
        indices = select_initial_centroid_indices(intensities, 2)
        assert indices.tolist() == [order[0], order[-1]]

    def test_integer_picks_match_float_picks_on_random_ties(self, rng):
        for _ in range(300):
            size = int(rng.integers(4, 40))
            values = rng.integers(0, int(rng.integers(1, 5)), size)
            for num_clusters in (2, 3, 4):
                expected = select_initial_centroid_indices(
                    values.astype(np.float64), num_clusters
                ).tolist()
                for intensities in (values, values.astype(np.uint8)):
                    indices = select_initial_centroid_indices(intensities, num_clusters)
                    assert indices.tolist() == expected

    @pytest.mark.parametrize("num_clusters", [2, 3])
    def test_nan_intensities_are_refused(self, num_clusters):
        """NaN has no place on the intensity axis: every k refuses it rather
        than seeding from wherever a sort would put it."""
        intensities = np.array([4.0, np.nan, 1.0, 9.0])
        with pytest.raises(ValueError, match="NaN"):
            select_initial_centroid_indices(intensities, num_clusters)
        with pytest.raises(ValueError, match="NaN"):
            select_initial_centroid_indices(intensities.astype(np.float32), 2)

    def test_evenly_spaced_picks_never_collapse_for_valid_sizes(self):
        """The quantile positions are distinct for every valid
        (num_pixels, num_clusters) pair, so the seeds need no de-duplication."""
        for num_pixels in range(2, 501):
            for num_clusters in range(2, min(num_pixels, 32) + 1):
                positions = np.linspace(0, num_pixels - 1, num_clusters).round().astype(int)
                assert np.unique(positions).size == num_clusters


class TestHDKMeans:
    def _two_blob_data(self, rng, per_cluster=60, dimension=512):
        """Two well-separated groups of binary HVs + matching intensities."""
        space = HypervectorSpace(dimension, seed=9)
        center_a = space.random()
        center_b = space.random()
        rows = []
        intensities = []
        for center, intensity in ((center_a, 20.0), (center_b, 230.0)):
            for _ in range(per_cluster):
                noisy = center.copy()
                flip = rng.choice(dimension, size=dimension // 20, replace=False)
                noisy[flip] ^= 1
                rows.append(noisy)
                intensities.append(intensity + rng.normal(0, 3))
        return np.stack(rows), np.array(intensities)

    def test_separates_two_blobs(self, rng):
        hvs, intensities = self._two_blob_data(rng)
        result = HDKMeans(2, num_iterations=5).fit(hvs, intensities)
        labels = result.labels
        first_half = labels[:60]
        second_half = labels[60:]
        # Each blob is internally consistent and the two blobs differ.
        assert len(np.unique(first_half)) == 1
        assert len(np.unique(second_half)) == 1
        assert first_half[0] != second_half[0]

    def test_labels_within_range(self, rng):
        hvs, intensities = self._two_blob_data(rng)
        result = HDKMeans(3, num_iterations=3).fit(hvs, intensities)
        assert result.labels.min() >= 0
        assert result.labels.max() < 3

    def test_history_recording(self, rng):
        hvs, intensities = self._two_blob_data(rng, per_cluster=20)
        result = HDKMeans(2, num_iterations=4, record_history=True).fit(hvs, intensities)
        assert len(result.history) == 4
        assert all(step.shape == result.labels.shape for step in result.history)
        assert np.array_equal(result.history[-1], result.labels)

    def test_no_history_by_default(self, rng):
        hvs, intensities = self._two_blob_data(rng, per_cluster=10)
        result = HDKMeans(2, num_iterations=2).fit(hvs, intensities)
        assert result.history == []

    def test_chunked_assignment_matches_unchunked(self, rng, monkeypatch):
        hvs, intensities = self._two_blob_data(rng, per_cluster=40)
        monkeypatch.setattr(backend_module, "ASSIGN_CHUNK_ROWS", 7)
        small_chunks = HDKMeans(2, num_iterations=3).fit(hvs, intensities)
        monkeypatch.setattr(backend_module, "ASSIGN_CHUNK_ROWS", 10_000)
        one_chunk = HDKMeans(2, num_iterations=3).fit(hvs, intensities)
        assert np.array_equal(small_chunks.labels, one_chunk.labels)

    def test_centroids_are_bundles_of_members(self, rng):
        hvs, intensities = self._two_blob_data(rng, per_cluster=15)
        result = HDKMeans(2, num_iterations=2).fit(hvs, intensities)
        assert result.centroids.dtype == np.int64
        for cluster in range(2):
            members = hvs[result.labels == cluster]
            if len(members):
                assert np.array_equal(
                    result.centroids[cluster], members.astype(np.int64).sum(axis=0)
                )

    def test_invalid_arguments(self, rng):
        hvs, intensities = self._two_blob_data(rng, per_cluster=5)
        with pytest.raises(ValueError):
            HDKMeans(1)
        with pytest.raises(ValueError):
            HDKMeans(2, num_iterations=0)
        with pytest.raises(ValueError):
            HDKMeans(2).fit(hvs, intensities[:-1])
        with pytest.raises(ValueError):
            HDKMeans(2).fit(hvs[0], intensities[:1])

    def test_more_clusters_than_pixels_rejected(self):
        hvs = np.zeros((3, 16), dtype=np.uint8)
        with pytest.raises(ValueError):
            HDKMeans(4).fit(hvs, np.arange(3.0))

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_backends_produce_identical_clusterings(self, rng, backend):
        hvs, intensities = self._two_blob_data(rng, per_cluster=30)
        reference = HDKMeans(2, num_iterations=4).fit(hvs, intensities)
        result = HDKMeans(2, num_iterations=4, backend=backend).fit(hvs, intensities)
        assert np.array_equal(reference.labels, result.labels)
        assert np.array_equal(reference.centroids, result.centroids)

    def test_non_binary_input_rejected_not_silently_cast(self, rng):
        """Backend packing would corrupt non-binary vectors (floats truncate
        to zero, larger ints collapse to single bits), so fit refuses them."""
        intensities = np.arange(6.0)
        with pytest.raises(ValueError, match="0/1"):
            HDKMeans(2).fit(rng.uniform(0.0, 1.0, size=(6, 32)), intensities)
        with pytest.raises(ValueError, match="0/1"):
            HDKMeans(2).fit(rng.integers(0, 256, size=(6, 32)), intensities)
        # Binary values in a non-uint8 dtype are fine.
        hvs = rng.integers(0, 2, size=(6, 32)).astype(np.float64)
        result = HDKMeans(2, num_iterations=2).fit(hvs, intensities)
        assert result.labels.shape == (6,)

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_rows_equal_fitting_the_repeated_matrix(self, rng, backend):
        """Distinct rows plus a pixel-to-row map cluster exactly like the
        matrix that stores every pixel's copy."""
        distinct, _ = self._two_blob_data(rng, per_cluster=12)
        rows = np.concatenate([np.arange(24), rng.integers(0, 24, size=200)])
        rng.shuffle(rows)
        intensities = rng.uniform(0.0, 255.0, size=rows.size)
        clusterer = HDKMeans(
            3, num_iterations=6, record_history=True, backend=backend
        )
        reference = clusterer.fit(distinct[rows], intensities)
        result = clusterer.fit(distinct, intensities, rows=rows)
        assert np.array_equal(result.labels, reference.labels)
        assert np.array_equal(result.centroids, reference.centroids)
        assert result.iterations_run == reference.iterations_run
        for step, expected in zip(result.history, reference.history, strict=True):
            assert np.array_equal(step, expected)

    def test_rows_must_cover_the_storage(self, rng):
        hvs, _ = self._two_blob_data(rng, per_cluster=3)
        intensities = np.arange(8.0)
        with pytest.raises(ValueError, match="all 6 storage rows"):
            HDKMeans(2).fit(hvs, intensities, rows=np.array([0, 1, 2, 3, 4, 4, 4, 4]))
        with pytest.raises(ValueError, match="all 6 storage rows"):
            HDKMeans(2).fit(hvs, intensities, rows=np.array([0, 1, 2, 3, 4, 5, 6, 0]))
        with pytest.raises(ValueError, match="1-D integer"):
            HDKMeans(2).fit(hvs, intensities, rows=np.arange(8.0))
        with pytest.raises(ValueError, match="intensities size"):
            HDKMeans(2).fit(hvs, intensities[:7], rows=np.arange(8) % 6)

    def test_fit_accepts_backend_storage(self, rng):
        hvs, intensities = self._two_blob_data(rng, per_cluster=20)
        storage = make_backend("packed").pack(hvs)
        from_storage = HDKMeans(2, num_iterations=3).fit(storage, intensities)
        from_dense = HDKMeans(2, num_iterations=3).fit(hvs, intensities)
        assert np.array_equal(from_storage.labels, from_dense.labels)


def _reference_fit(backend, storage, centroids, num_clusters, num_iterations):
    """The paper's loop: exactly ``num_iterations`` full assign + bundle
    passes, empty clusters keeping their centroid."""
    history = []
    for _ in range(num_iterations):
        labels, _ = backend.assign(storage, centroids)
        history.append(labels)
        updated = centroids.copy()
        for cluster in range(num_clusters):
            members = labels == cluster
            if members.any():
                updated[cluster] = backend.bundle_masked(storage, members)
        centroids = updated
    return labels, centroids, history


def _fixed_point_pass(history):
    """The first pass that repeats its predecessor's labels (else the last)."""
    for index in range(1, len(history)):
        if np.array_equal(history[index], history[index - 1]):
            return index + 1
    return len(history)


def _record_bounds(monkeypatch, backend):
    """Patch ``backend.assign`` to keep every returned :class:`DotBounds`."""
    passes = []
    assign = backend.assign

    def recording(*args, **kwargs):
        labels, bounds = assign(*args, **kwargs)
        passes.append(bounds)
        return labels, bounds

    monkeypatch.setattr(backend, "assign", recording)
    return passes


def _noisy_copies(rng, prototype, count, flips):
    rows = np.repeat(prototype[None, :], count, axis=0)
    for row in rows:
        row[rng.choice(prototype.size, size=flips, replace=False)] ^= 1
    return rows


class TestFixedPointStop:
    """``HDKMeans.fit`` stops at the first repeated assignment; that must be
    bit-identical to running every one of the ``num_iterations`` passes."""

    NUM_ITERATIONS = 10

    def _case(self, name, rng):
        """``(hvs, intensities, num_clusters, initial_centroids)``."""
        space = HypervectorSpace(512, seed=4)
        center_a, center_b = space.random(), space.random()
        if name == "early":
            # Overlapping groups: a few passes of real movement, then a
            # fixed point well inside the budget.
            mixed = center_a.copy()
            mixed[:400] = center_b[:400]
            hvs = np.concatenate([
                _noisy_copies(rng, center_a, 40, 150),
                _noisy_copies(rng, mixed, 40, 150),
            ])
            intensities = rng.uniform(0.0, 255.0, size=len(hvs))
            return hvs, intensities, 2, None
        if name == "warm":
            hvs = np.concatenate([
                _noisy_copies(rng, center_a, 30, 60),
                _noisy_copies(rng, center_b, 30, 60),
            ])
            intensities = np.r_[np.full(30, 20.0), np.full(30, 230.0)]
            # Both warm seeds sit in group A, far from the answer.
            initial = np.stack([hvs[0] + hvs[1], hvs[2]]).astype(np.float64)
            return hvs, intensities, 2, initial
        # "empty": k=3 on two modes.  Group A is one repeated HV holding the
        # two darkest seeds, so its two centroids tie and the higher index
        # never wins a pixel.
        hvs = np.concatenate([
            np.repeat(center_a[None, :], 40, axis=0),
            _noisy_copies(rng, center_b, 20, 25),
        ])
        intensities = np.r_[np.full(40, 20.0), np.full(20, 230.0)]
        return hvs, intensities, 3, None

    @pytest.mark.parametrize("backend_name", ["dense", "packed"])
    @pytest.mark.parametrize("case", ["early", "warm", "empty"])
    def test_matches_full_iteration_reference(
        self, rng, monkeypatch, backend_name, case
    ):
        hvs, intensities, num_clusters, initial = self._case(case, rng)
        backend = make_backend(backend_name)
        storage = backend.pack(hvs)
        passes = _record_bounds(monkeypatch, backend)
        result = HDKMeans(
            num_clusters, self.NUM_ITERATIONS, record_history=True
        ).fit(storage, intensities, initial_centroids=initial)
        if initial is None:
            seeds = select_initial_centroid_indices(intensities, num_clusters)
            initial = backend.unpack(storage, seeds).astype(np.float64)
        labels, centroids, history = _reference_fit(
            backend, storage, initial, num_clusters, self.NUM_ITERATIONS
        )
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.centroids, centroids)
        assert len(result.history) == self.NUM_ITERATIONS
        for got, want in zip(result.history, history):
            assert np.array_equal(got, want)
        assert result.warm_started is (case == "warm")
        assert 2 <= result.iterations_run < self.NUM_ITERATIONS
        if case == "empty":
            assert np.bincount(labels, minlength=num_clusters).min() == 0
        if case == "warm":
            # Warm seeds are bundles, so pass 2 already prunes.
            assert passes[1].rechecked < len(hvs)


def _differential_case(seed):
    """One seeded clustering problem for the pruned-vs-full comparison:
    ``(backend, hvs, intensities, num_clusters, initial_centroids)``."""
    rng = np.random.default_rng(seed)
    dimension = (64, 100, 512)[seed % 3]
    num_clusters = 2 + seed % 3
    backend = make_backend(("dense", "packed")[seed // 3 % 2])
    # Prototypes share a random half of their bits, so the groups overlap
    # and the loop keeps moving rows for a few passes.
    prototypes = rng.integers(0, 2, size=(num_clusters, dimension), dtype=np.uint8)
    shared = rng.random(dimension) < 0.5
    prototypes[:, shared] = prototypes[0, shared]
    hvs = np.concatenate([
        _noisy_copies(rng, prototype, int(rng.integers(6, 25)), dimension // 5)
        for prototype in prototypes
    ])
    if seed == 0:
        hvs = np.repeat(hvs[:6], 15, axis=0)  # many duplicate rows
    intensities = rng.uniform(0.0, 255.0, size=len(hvs))
    initial = None
    if seed // 6 % 2:
        picks = rng.choice(len(hvs), size=(num_clusters, 3))
        initial = hvs[picks].astype(np.float64).sum(axis=1)
    return backend, hvs, intensities, num_clusters, initial


DIFFERENTIAL_SEEDS = range(40)


class TestBoundPrunedAssignment:
    """Passes that reuse the previous pass's dot bounds must reproduce the
    full-pass loop exactly, and must actually skip rows."""

    NUM_ITERATIONS = 10

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_matches_full_pass_reference(self, seed):
        backend, hvs, intensities, num_clusters, initial = _differential_case(seed)
        storage = backend.pack(hvs)
        result = HDKMeans(
            num_clusters, self.NUM_ITERATIONS, record_history=True
        ).fit(storage, intensities, initial_centroids=initial)
        if initial is None:
            seeds = select_initial_centroid_indices(intensities, num_clusters)
            initial = backend.unpack(storage, seeds).astype(np.float64)
        labels, centroids, history = _reference_fit(
            backend, storage, initial, num_clusters, self.NUM_ITERATIONS
        )
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.centroids, centroids)
        assert result.iterations_run == _fixed_point_pass(history)
        assert len(result.history) == self.NUM_ITERATIONS
        for got, want in zip(result.history, history):
            assert np.array_equal(got, want)

    def test_cases_exercise_pruning_and_rechecks(self, monkeypatch):
        skipped = rechecked = 0
        for seed in DIFFERENTIAL_SEEDS:
            backend, hvs, intensities, num_clusters, initial = _differential_case(seed)
            passes = _record_bounds(monkeypatch, backend)
            HDKMeans(num_clusters, self.NUM_ITERATIONS).fit(
                backend.pack(hvs), intensities, initial_centroids=initial
            )
            bounded = passes[1:] if initial is not None else passes[2:]
            skipped += sum(len(hvs) - p.rechecked for p in bounded)
            rechecked += sum(p.rechecked for p in bounded)
        assert skipped > 0
        assert rechecked > 0

    @pytest.mark.parametrize("backend_name", ["dense", "packed"])
    def test_near_tie_rows_fall_back_to_exact_rule(self, monkeypatch, backend_name):
        """Hand-built drift: settled rows keep clear winners, while rows
        whose widened intervals overlap are recomputed; one of those is an
        exact tie, decided by ``_exact_argmax``."""
        dimension = 64

        def ones(*spans):
            row = np.zeros(dimension, dtype=np.uint8)
            for start, stop in spans:
                row[start:stop] = 1
            return row

        before = np.zeros((2, dimension), dtype=np.int64)
        before[0, 0:16] = 3
        before[1, 16:32] = 3
        # Each centroid loses 1 on four of its dims and gains 1 on four new
        # ones, so the two norms stay equal (sqrt(128)) and a row with equal
        # dots is an exact tie.
        after = before.copy()
        after[0, 0:4] -= 1
        after[0, 32:36] += 1
        after[1, 16:20] -= 1
        after[1, 36:40] += 1
        rows = {
            # Drift ±4 cannot close a 44-vs-4 gap: settled, never dotted.
            "clear0": (ones((0, 16)), 3, 0),
            "clear1": (ones((16, 32)), 3, 1),
            # 36 vs 36 before and after: overlapping intervals, exact tie,
            # lowest index wins.
            "tie": (ones((4, 16), (20, 32)), 2, 0),
            # Intervals [32, 40] vs [30, 34] overlap; exact 40 vs 30.
            "straddle0": (ones((4, 16), (22, 32), (32, 36)), 2, 0),
            "straddle1": (ones((20, 32), (6, 16), (36, 40)), 1, 1),
        }
        hvs = np.concatenate([np.repeat(row[None], count, axis=0)
                              for row, count, _ in rows.values()])
        expected = np.concatenate([np.full(count, label)
                                   for _, count, label in rows.values()])
        backend = make_backend(backend_name)
        storage = backend.pack(hvs)
        _, first = backend.assign(storage, before)
        exact_rows = []
        exact_argmax = backend_module._exact_argmax

        def spy(dots, centroids):
            exact_rows.append(len(dots))
            return exact_argmax(dots, centroids)

        monkeypatch.setattr(backend_module, "_exact_argmax", spy)
        labels, bounds = backend.assign(storage, after, bounds=first)
        assert labels.tolist() == expected.tolist()
        assert bounds.rechecked == 5  # the tie and straddle rows
        assert exact_rows == [2]  # only the tie rows
        full_labels, full = backend.assign(storage, after)
        assert np.array_equal(labels, full_labels)
        assert np.all(bounds.lo <= full.lo) and np.all(full.hi <= bounds.hi)
        recomputed = bounds.lo == bounds.hi
        assert recomputed.all(axis=1).sum() == 5


@given(
    num_points=st.integers(min_value=6, max_value=60),
    num_clusters=st.integers(min_value=2, max_value=4),
    seed=st.integers(0, 500),
)
@settings(max_examples=25, deadline=None)
def test_property_kmeans_always_returns_valid_labels(num_points, num_clusters, seed):
    rng = np.random.default_rng(seed)
    hvs = rng.integers(0, 2, size=(num_points, 64)).astype(np.uint8)
    intensities = rng.uniform(0, 255, size=num_points)
    result = HDKMeans(num_clusters, num_iterations=2).fit(hvs, intensities)
    assert result.labels.shape == (num_points,)
    assert result.labels.min() >= 0
    assert result.labels.max() < num_clusters
