"""Tests for the batch segmentation engine and its encoder-grid cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import DSB2018Synthetic
from repro.seghdc import SegHDCConfig, SegHDCEngine


def _config(**overrides):
    base = SegHDCConfig(
        dimension=400, num_clusters=2, num_iterations=3, alpha=0.2, beta=3, seed=0
    )
    return base.with_overrides(**overrides)


def _two_tone(height=20, width=24, value=220):
    image = np.full((height, width), 15, dtype=np.uint8)
    image[height // 4 : -height // 4, width // 4 : -width // 4] = value
    return image


def _record_unique(monkeypatch):
    """Record every later ``np.unique`` call (the sort the key table skips)."""
    calls = []
    unique = np.unique

    def recording(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", recording)
    return calls


class TestDistinctPixelKeys:
    def test_keys_renumber_before_they_would_overflow(self):
        """Mixed-radix keys that would pass int64 are first renumbered
        densely; equal keys still mean equal (position, levels) tuples."""
        from repro.seghdc.engine import _pixel_keys

        position = np.array([0, 0, 5, 5, 9, 9]) << 38
        levels = [np.array([1, 1, 2, 2, 1, 1]), np.array([3, 4, 3, 3, 0, 0])]
        keys, space = _pixel_keys(position, 1 << 42, levels, [1 << 21, 1 << 21])
        assert keys.dtype == np.int64
        assert 0 <= keys.min() and keys.max() < space
        expected = [0, 1, 2, 2, 3, 3]  # pixels 2,3 and 4,5 share a tuple
        assert np.array_equal(np.unique(keys, return_inverse=True)[1], expected)

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("distinct", [3, 60])
    def test_key_table_matches_np_unique_at_and_past_its_limit(
        self, rng, monkeypatch, offset, distinct
    ):
        """At the limit the keys go through the table, one past it through
        ``np.unique``; both give its ``first`` and ``rows``, dtypes too."""
        from repro.seghdc import engine as engine_module

        size = 97
        space = engine_module._KEY_TABLE_FACTOR * size + offset
        keys = rng.choice(rng.choice(space, distinct, replace=False), size)
        keys[[3, 50]] = [space - 1, 0]  # both ends of the key space
        _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
        calls = _record_unique(monkeypatch)
        got_first, got_rows = engine_module._distinct_keys(keys, space)
        assert len(calls) == offset
        assert (got_first.dtype, got_rows.dtype) == (first.dtype, rows.dtype)
        assert np.array_equal(got_first, first)
        assert np.array_equal(got_rows, rows)

    def test_renumbered_rgb_keys_take_the_table(self, rng, monkeypatch):
        """Keys renumbered before they overflow have a key space below the
        pixel count times the remaining levels, so they can still use the
        table."""
        from repro.seghdc import engine as engine_module

        position = rng.choice(np.array([1, 7, 40]) << 56, 16)
        levels = [rng.integers(0, 2, 16) for _ in range(3)]
        keys, space = engine_module._pixel_keys(position, 1 << 62, levels, [2, 2, 2])
        assert space <= 3 * 8 <= engine_module._KEY_TABLE_FACTOR * keys.size
        _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
        calls = _record_unique(monkeypatch)
        got_first, got_rows = engine_module._distinct_keys(keys, space)
        assert not calls
        assert np.array_equal(got_first, first)
        assert np.array_equal(got_rows, rows)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (64, 64), (6, 5, 3)])
    @pytest.mark.parametrize("levels", [2, 256])
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_distinct_rows_match_np_unique(
        self, rng, monkeypatch, shape, levels, backend
    ):
        """The engine's rows and bound storage bytes equal those built from
        ``np.unique`` over the same keys, on whichever path the key space
        selects."""
        from repro.imaging.image import to_grayscale
        from repro.seghdc import engine as engine_module

        engine = SegHDCEngine(_config(color_levels=levels, beta=4, backend=backend))
        image = rng.integers(0, 256, shape, dtype=np.uint8)
        height, width = shape[:2]
        channels = shape[2] if len(shape) == 3 else 1
        bundle = engine._encoders_for_shape(height, width, channels)
        pixels = to_grayscale(image) if channels == 1 else image
        level_indices = bundle.color_encoder.level_indices(pixels)
        keys, space = engine_module._pixel_keys(
            bundle.position_keys,
            bundle.position_groups,
            level_indices,
            [table.shape[0] for _, table in bundle.color_tables],
        )
        _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
        expected = engine.backend.bind_color(
            bundle.position_grid,
            [indices[first] for indices in level_indices],
            bundle.color_tables,
            first,
        )
        calls = _record_unique(monkeypatch)
        storage, got_rows = engine._bind_distinct_pixels(bundle, pixels)
        assert bool(calls) == (space > engine_module._KEY_TABLE_FACTOR * keys.size)
        assert got_rows.dtype == rows.dtype
        assert np.array_equal(got_rows, rows)
        assert storage.data.dtype == expected.data.dtype
        assert storage.data.tobytes() == expected.data.tobytes()

    def test_uniform_image_is_one_stored_row(self):
        config = _config(beta=100)
        engine = SegHDCEngine(config)
        result = engine.segment(np.full((12, 10), 90, dtype=np.uint8))
        assert result.workload["hv_storage_bytes"] == engine.backend.storage_nbytes(
            1, config.dimension
        )
        assert result.labels.shape == (12, 10)


class TestCaching:
    def test_same_shape_builds_position_grid_only_once(self):
        """Two same-shape images must reuse one cached position grid."""
        engine = SegHDCEngine(_config())
        engine.segment(_two_tone(value=220))
        engine.segment(_two_tone(value=180))
        info = engine.cache_info()
        assert info["position_grid_builds"] == 1
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["entries"] == 1

    def test_different_shapes_build_separate_grids(self):
        engine = SegHDCEngine(_config())
        engine.segment(_two_tone(20, 24))
        engine.segment(_two_tone(16, 24))
        info = engine.cache_info()
        assert info["position_grid_builds"] == 2
        assert info["entries"] == 2

    def test_cached_run_is_bit_identical_to_fresh_run(self):
        image = _two_tone()
        engine = SegHDCEngine(_config())
        warm_a = engine.segment(image)
        warm_b = engine.segment(image)
        fresh = SegHDCEngine(_config()).segment(image)
        assert np.array_equal(warm_a.labels, warm_b.labels)
        assert np.array_equal(warm_a.labels, fresh.labels)

    def test_lru_eviction(self):
        engine = SegHDCEngine(_config())
        engine.cache_size = 1
        engine.segment(_two_tone(20, 24))
        engine.segment(_two_tone(16, 24))
        engine.segment(_two_tone(20, 24))  # evicted, rebuilt
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["evictions"] == 2
        assert info["position_grid_builds"] == 3

    def test_clear_cache(self):
        engine = SegHDCEngine(_config())
        engine.segment(_two_tone())
        engine.clear_cache()
        assert engine.cache_info()["entries"] == 0
        engine.segment(_two_tone())
        assert engine.cache_info()["position_grid_builds"] == 2

    def test_workload_records_backend_and_cache(self):
        engine = SegHDCEngine(_config(backend="packed"))
        result = engine.segment(_two_tone())
        assert result.workload["backend"] == "packed"
        assert result.workload["cache"]["misses"] == 1
        assert result.workload["hv_storage_bytes"] > 0

    def test_byte_budget_evicts_lru_but_keeps_most_recent(self):
        # One 20x24 grid at d=400 is 20*24*400 = 192000 dense bytes, so a
        # budget below two grids keeps exactly the most recent entry.
        engine = SegHDCEngine(_config(backend="dense"))
        engine.max_cache_bytes = 200_000
        engine.segment(_two_tone(20, 24))
        engine.segment(_two_tone(16, 24))
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["evictions"] == 1
        assert info["cached_grid_bytes"] <= 200_000
        # The surviving entry is the most recent shape: no rebuild on reuse.
        engine.segment(_two_tone(16, 24))
        assert engine.cache_info()["position_grid_builds"] == 2

    def test_oversized_grid_is_not_pinned(self):
        """A grid larger than the whole byte budget falls back to the
        historical build-per-call behavior instead of staying resident."""
        engine = SegHDCEngine(_config())
        engine.max_cache_bytes = 1
        first = engine.segment(_two_tone())
        second = engine.segment(_two_tone())
        info = engine.cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0
        assert info["misses"] == 2
        assert info["oversize_skips"] == 2
        assert info["evictions"] == 0
        assert info["position_grid_builds"] == 2
        assert info["cached_grid_bytes"] == 0
        # Rebuilding is still bit-identical.
        assert np.array_equal(first.labels, second.labels)

    def test_oversized_grid_does_not_flush_hot_entries(self):
        """An over-budget shape must not evict the smaller cached grids."""
        # 20x24 at d=400 is 192000 dense bytes (fits); 24x32 is 307200 (too big).
        engine = SegHDCEngine(_config(backend="dense"))
        engine.max_cache_bytes = 200_000
        engine.segment(_two_tone(20, 24))
        engine.segment(_two_tone(24, 32))  # oversized: built, not cached
        engine.segment(_two_tone(20, 24))  # small grid must still be hot
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["hits"] == 1
        assert info["position_grid_builds"] == 2

    def test_byte_budget_exactly_one_grid_retains_it(self):
        """A budget of exactly one grid's bytes keeps that grid; one byte
        less trips the oversize path instead."""
        grid_bytes = 20 * 24 * 400  # dense bytes of a 20x24 grid at d=400
        engine = SegHDCEngine(_config(backend="dense"))
        engine.max_cache_bytes = grid_bytes
        engine.segment(_two_tone(20, 24))
        engine.segment(_two_tone(20, 24))
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["cached_grid_bytes"] == grid_bytes
        assert info["hits"] == 1
        assert info["oversize_skips"] == 0

        tight = SegHDCEngine(_config(backend="dense"))
        tight.max_cache_bytes = grid_bytes - 1
        tight.segment(_two_tone(20, 24))
        tight.segment(_two_tone(20, 24))
        info = tight.cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0
        assert info["oversize_skips"] == 2
        assert info["position_grid_builds"] == 2

    def test_clear_cache_mid_stream(self):
        """clear_cache between same-shape segments forces exactly one
        rebuild and leaves subsequent reuse intact."""
        engine = SegHDCEngine(_config())
        before = engine.segment(_two_tone())
        engine.clear_cache()
        after = engine.segment(_two_tone())
        info = engine.cache_info()
        assert info["position_grid_builds"] == 2
        assert info["misses"] == 2
        assert info["hits"] == 0
        engine.segment(_two_tone())
        assert engine.cache_info()["hits"] == 1
        # The rebuilt grid is bit-identical: same labels either side.
        assert np.array_equal(before.labels, after.labels)

    def test_segment_batch_mixed_shapes_exact_counter_accounting(self):
        """Mixed-shape batch with cache_size=2: every hit/miss/build/eviction
        is accounted for exactly."""
        engine = SegHDCEngine(_config())
        engine.cache_size = 2
        shape_a, shape_b, shape_c = (20, 24), (16, 24), (12, 16)
        batch = [
            _two_tone(*shape_a),  # miss, build A            -> [A]
            _two_tone(*shape_b),  # miss, build B            -> [A, B]
            _two_tone(*shape_a),  # hit                      -> [B, A]
            _two_tone(*shape_a),  # hit                      -> [B, A]
            _two_tone(*shape_b),  # hit                      -> [A, B]
            _two_tone(*shape_c),  # miss, build C, evicts A  -> [B, C]
        ]
        results = engine.segment_batch(batch)
        assert len(results) == 6
        info = engine.cache_info()
        assert info["misses"] == 3
        assert info["hits"] == 3
        assert info["position_grid_builds"] == 3
        assert info["evictions"] == 1
        assert info["entries"] == 2
        # A was the LRU victim: touching it again is a miss (and its
        # reinsertion evicts B, the new LRU)...
        engine.segment(_two_tone(*shape_a))
        info = engine.cache_info()
        assert info["misses"] == 4
        assert info["evictions"] == 2
        # ...while C is still resident and hits.
        engine.segment(_two_tone(*shape_c))
        assert engine.cache_info()["hits"] == 4

    def test_warm_counts_like_a_first_segment(self):
        engine = SegHDCEngine(_config())
        engine.warm(20, 24, 1)
        info = engine.cache_info()
        assert info["misses"] == 1 and info["position_grid_builds"] == 1
        engine.warm(20, 24, 1)  # already warm: a hit, no new build
        info = engine.cache_info()
        assert info["hits"] == 1 and info["position_grid_builds"] == 1
        # Warm is exactly what a first segment would have built.
        engine.segment(_two_tone())
        assert engine.cache_info()["position_grid_builds"] == 1

    def test_estimated_grid_nbytes_matches_the_real_build(self):
        for backend in ("dense", "packed"):
            engine = SegHDCEngine(_config(backend=backend))
            predicted = engine.estimated_grid_nbytes(20, 24)
            engine.warm(20, 24, 1)
            assert predicted == engine.cache_info()["cached_grid_bytes"], backend

    def test_warm_keys_shapes_by_channel_count(self):
        engine = SegHDCEngine(_config())
        engine.warm(20, 24, 1)
        engine.warm(20, 24, 3)
        info = engine.cache_info()
        assert info["position_grid_builds"] == 2
        assert info["entries"] == 2
        assert info["hits"] == 0

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_independent_engines_build_bit_identical_grids(self, backend):
        """A shape's grids depend only on the config and the shape, so each
        process-mode worker can build its own copy bit-exactly."""
        first = SegHDCEngine(_config(backend=backend))
        second = SegHDCEngine(_config(backend=backend))
        a = first._encoders_for_shape(20, 24, 3)
        b = second._encoders_for_shape(20, 24, 3)
        assert a.position_grid is not b.position_grid
        assert np.array_equal(a.position_grid.data, b.position_grid.data)
        assert len(a.color_tables) == len(b.color_tables) == 3
        for (start_a, table_a), (start_b, table_b) in zip(
            a.color_tables, b.color_tables
        ):
            assert start_a == start_b
            assert np.array_equal(table_a, table_b)
        # A different seed is a different grid: the config is the whole key.
        other = SegHDCEngine(_config(backend=backend, seed=1))
        c = other._encoders_for_shape(20, 24, 3)
        assert not np.array_equal(a.position_grid.data, c.position_grid.data)


class TestWarmStartStore:
    def test_same_shape_frames_warm_start(self):
        engine = SegHDCEngine(_config(warm_start=True))
        assert engine.segment(_two_tone()).workload["warm_started"] is False
        assert engine.segment(_two_tone()).workload["warm_started"] is True

    def test_store_is_an_lru_bounded_by_cache_size(self):
        """Distinct shapes must not grow the warm-start store without
        bound: after ``cache_size`` other shapes the first one is cold."""
        engine = SegHDCEngine(_config(warm_start=True))
        engine.segment(_two_tone(20, 24))
        for extra in range(engine.cache_size):
            engine.segment(_two_tone(12, 12 + extra))
        assert len(engine._warm_centroids) == engine.cache_size
        result = engine.segment(_two_tone(20, 24))
        assert result.workload["warm_started"] is False
        # The most recent shapes are still warm.
        result = engine.segment(_two_tone(12, 12 + engine.cache_size - 1))
        assert result.workload["warm_started"] is True

    def test_reuse_refreshes_a_shapes_recency(self):
        """The store evicts the least recently *used* shape, not the
        oldest inserted one."""
        engine = SegHDCEngine(_config(warm_start=True))
        engine.segment(_two_tone(20, 24))
        for extra in range(engine.cache_size - 1):
            engine.segment(_two_tone(12, 12 + extra))
        # Touch the oldest shape, then add one more: the victim is the
        # second-oldest shape.
        assert engine.segment(_two_tone(20, 24)).workload["warm_started"] is True
        engine.segment(_two_tone(16, 16))
        assert engine.segment(_two_tone(12, 12)).workload["warm_started"] is False
        assert engine.segment(_two_tone(20, 24)).workload["warm_started"] is True

    def test_store_follows_the_instance_cache_size(self):
        engine = SegHDCEngine(_config(warm_start=True))
        engine.cache_size = 1
        for _ in range(2):
            assert (
                engine.segment(_two_tone(20, 24)).workload["warm_started"]
                is False
            )
            assert (
                engine.segment(_two_tone(16, 24)).workload["warm_started"]
                is False
            )
        assert len(engine._warm_centroids) == 1
        assert engine.segment(_two_tone(16, 24)).workload["warm_started"] is True

    def test_warm_builds_grids_but_leaves_the_store_cold(self):
        engine = SegHDCEngine(_config(warm_start=True))
        engine.warm(20, 24, 1)
        result = engine.segment(_two_tone())
        assert result.workload["warm_started"] is False
        info = engine.cache_info()
        assert info["position_grid_builds"] == 1
        assert info["hits"] == 1

    def test_reset_warm_state_keeps_the_grid_cache(self):
        engine = SegHDCEngine(_config(warm_start=True))
        engine.segment(_two_tone())
        engine.reset_warm_state()
        assert len(engine._warm_centroids) == 0
        assert engine.segment(_two_tone()).workload["warm_started"] is False
        info = engine.cache_info()
        assert info["position_grid_builds"] == 1
        assert info["entries"] == 1


class TestSegmentBatch:
    def test_batch_of_same_shape_images_reuses_grids(self):
        """Acceptance: 8 same-shape images -> encoder grids built once."""
        dataset = DSB2018Synthetic(num_images=8, image_shape=(24, 32), seed=5)
        engine = SegHDCEngine(_config(beta=2))
        results = engine.segment_batch([sample.image for sample in dataset])
        assert len(results) == 8
        info = engine.cache_info()
        assert info["position_grid_builds"] == 1
        assert info["misses"] == 1
        assert info["hits"] == 7
        for result in results:
            assert result.labels.shape == (24, 32)

    def test_batch_matches_individual_segmentation(self):
        dataset = DSB2018Synthetic(num_images=3, image_shape=(24, 32), seed=5)
        images = [sample.image for sample in dataset]
        batch = SegHDCEngine(_config(beta=2)).segment_batch(images)
        for image, result in zip(images, batch):
            solo = SegHDCEngine(_config(beta=2)).segment(image)
            assert np.array_equal(result.labels, solo.labels)

    # Dense-vs-packed batch parity moved to the systematic grid in
    # test_parity_sweep.py.


class TestEngineConcurrency:
    def test_threads_sharing_one_engine_get_exact_counters_and_labels(self):
        """N threads hammering one engine: the locked cache guarantees each
        distinct shape is built exactly once and all counters add up."""
        import threading

        engine = SegHDCEngine(_config())
        shapes = [(20, 24), (16, 24)]
        reference = {
            shape: SegHDCEngine(_config()).segment(_two_tone(*shape)).labels
            for shape in shapes
        }
        failures: list[str] = []

        def hammer(shape):
            for _ in range(3):
                labels = engine.segment(_two_tone(*shape)).labels
                if not np.array_equal(labels, reference[shape]):
                    failures.append(f"labels diverged for {shape}")

        threads = [
            threading.Thread(target=hammer, args=(shapes[i % 2],))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        info = engine.cache_info()
        assert info["position_grid_builds"] == 2
        assert info["misses"] == 2
        assert info["hits"] == 6 * 3 - 2
        assert info["entries"] == 2

    def test_engine_pickles_with_cold_cache(self):
        """Engines pickle by spec: locks, cached grids and warm-start
        centroids must not ride along, and the clone must still segment
        identically."""
        import pickle

        from repro.api import make_segmenter

        engine = SegHDCEngine(_config(backend="packed", warm_start=True))
        original = engine.segment(_two_tone())
        assert engine.segment(_two_tone()).workload["warm_started"] is True
        assert engine.cache_info()["entries"] == 1
        assert engine.__reduce__() == (make_segmenter, (engine.describe(),))
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.describe() == engine.describe()
        info = clone.cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0
        assert info["position_grid_builds"] == 0
        assert len(clone._warm_centroids) == 0
        result = clone.segment(_two_tone())
        assert result.workload["warm_started"] is False
        assert np.array_equal(result.labels, original.labels)
        assert clone.cache_info()["position_grid_builds"] == 1


class TestRegisteredSegmenter:
    def test_registry_builds_an_engine_and_describe_round_trips(self):
        from repro.api import make_segmenter

        assert isinstance(make_segmenter("seghdc"), SegHDCEngine)
        engine = SegHDCEngine(_config(backend="dense", alpha=0.9))
        spec = engine.describe()
        assert spec == {"segmenter": "seghdc", "config": engine.config.to_dict()}
        rebuilt = make_segmenter(spec)
        assert isinstance(rebuilt, SegHDCEngine)
        assert rebuilt.config == engine.config
        assert rebuilt.backend.name == "dense"

    def test_engine_config_is_read_only(self):
        engine = SegHDCEngine(_config())
        with pytest.raises(AttributeError):
            engine.config = _config(alpha=0.9)
