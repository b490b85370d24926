"""Tests for the cross-engine shared grid cache.

Engine-level contracts first (export/import semantics, the new
``shared_grid_imports`` / ``shared_hits`` counters, oversize and
backend-mismatch handling, pickling), then the serving-layer integration:
a process-mode pool must report exactly **one** position-grid build across
the whole pool (the parent's), imports must be visible in the aggregated
stats and per-result workloads, and the eviction / mixed-shape fallbacks
must degrade to build-per-worker without losing parity.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.serving import SegmentationServer


def _config(**overrides):
    base = SegHDCConfig(
        dimension=300, num_clusters=2, num_iterations=2, alpha=0.2, beta=3, seed=0
    )
    return base.with_overrides(**overrides)


def _image(shape=(20, 24), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


class TestEngineExportImport:
    def test_import_installs_without_building_and_counts_shared_hits(self):
        parent = SegHDCEngine(_config())
        parent.warm(20, 24, 1)
        state = parent.export_shared_grids()
        assert set(state["grids"]) == {(20, 24, 1)}
        assert state["config"] == _config().to_dict()

        child = SegHDCEngine(_config())
        assert child.import_shared_grids(state) == 1
        info = child.cache_info()
        assert info["position_grid_builds"] == 0
        assert info["shared_grid_imports"] == 1
        assert info["entries"] == 1

        image = _image()
        expected = SegHDCEngine(_config()).segment(image)
        result = child.segment(image)
        assert np.array_equal(result.labels, expected.labels)
        info = child.cache_info()
        # The lookup hit the imported bundle: a hit, a shared hit, no build.
        assert info["hits"] == 1
        assert info["shared_hits"] == 1
        assert info["position_grid_builds"] == 0
        # The workload carries the same counters for the stats aggregator.
        assert result.workload["cache"]["shared_grid_imports"] == 1
        assert result.workload["cache"]["shared_hits"] == 1

    def test_warm_counts_like_a_first_segment(self):
        engine = SegHDCEngine(_config())
        engine.warm(20, 24, 1)
        info = engine.cache_info()
        assert info["misses"] == 1 and info["position_grid_builds"] == 1
        engine.warm(20, 24, 1)  # already warm: a hit, no new build
        info = engine.cache_info()
        assert info["hits"] == 1 and info["position_grid_builds"] == 1
        # Warm is exactly what a first segment would have built.
        engine.segment(_image())
        assert engine.cache_info()["position_grid_builds"] == 1

    def test_import_is_idempotent_and_skips_locally_built_shapes(self):
        parent = SegHDCEngine(_config())
        parent.warm(20, 24, 1)
        state = parent.export_shared_grids()

        child = SegHDCEngine(_config())
        child.segment(_image())  # builds (20, 24, 1) locally first
        assert child.import_shared_grids(state) == 0
        assert child.import_shared_grids(state) == 0
        info = child.cache_info()
        assert info["shared_grid_imports"] == 0
        assert info["position_grid_builds"] == 1
        # Lookups keep hitting the locally built bundle: no shared hits.
        child.segment(_image(seed=1))
        assert child.cache_info()["shared_hits"] == 0

    def test_export_subset_and_unknown_shapes(self):
        engine = SegHDCEngine(_config())
        engine.warm(20, 24, 1)
        engine.warm(16, 16, 1)
        assert set(engine.export_shared_grids([(20, 24, 1)])["grids"]) == {
            (20, 24, 1)
        }
        # Never-built shapes are simply absent, not an error.
        assert engine.export_shared_grids([(99, 99, 1)])["grids"] == {}
        assert set(engine.export_shared_grids()["grids"]) == {
            (20, 24, 1),
            (16, 16, 1),
        }

    def test_backend_mismatch_raises(self):
        parent = SegHDCEngine(_config(backend="dense"))
        parent.warm(20, 24, 1)
        child = SegHDCEngine(_config(backend="packed"))
        with pytest.raises(ValueError, match="backend"):
            child.import_shared_grids(parent.export_shared_grids())

    def test_any_config_mismatch_raises_naming_the_fields(self):
        """Grids encode every hyper-parameter, so importing across *any*
        config difference — not just the backend — must refuse instead of
        silently serving wrong labels."""
        parent = SegHDCEngine(_config(seed=1, alpha=0.9))
        parent.warm(20, 24, 1)
        child = SegHDCEngine(_config())  # seed=0, alpha=0.2
        with pytest.raises(ValueError, match="alpha.*seed|seed"):
            child.import_shared_grids(parent.export_shared_grids())
        assert child.cache_info()["shared_grid_imports"] == 0

    def test_oversize_bundles_are_skipped_on_import(self):
        parent = SegHDCEngine(_config())
        parent.warm(20, 24, 1)
        state = parent.export_shared_grids()
        grid_bytes = next(iter(state["grids"].values())).position_grid.nbytes

        child = SegHDCEngine(_config())
        child.max_cache_bytes = grid_bytes - 1
        assert child.import_shared_grids(state) == 0
        info = child.cache_info()
        assert info["oversize_skips"] == 1
        assert info["shared_grid_imports"] == 0
        assert info["entries"] == 0

    def test_eviction_drops_the_imported_flag(self):
        parent = SegHDCEngine(_config())
        parent.warm(20, 24, 1)
        state = parent.export_shared_grids()

        child = SegHDCEngine(_config())
        child.cache_size = 1
        child.import_shared_grids(state)
        child.segment(_image((16, 16)))  # evicts the imported (20, 24, 1)
        info = child.cache_info()
        assert info["evictions"] == 1
        # The shape now rebuilds locally; the stale imported flag must not
        # count the rebuilt bundle's hits as shared.
        child.segment(_image())  # rebuilds locally (the import was evicted)
        child.segment(_image(seed=1))  # hits the rebuilt, *local* bundle
        info = child.cache_info()
        assert info["position_grid_builds"] == 2
        assert info["hits"] == 1
        assert info["shared_hits"] == 0
        # Re-importing after eviction works and counts again.
        child.clear_cache()
        assert child.import_shared_grids(state) == 1
        assert child.cache_info()["shared_grid_imports"] == 2

    def test_estimated_grid_nbytes_matches_the_real_build(self):
        for backend in ("dense", "packed"):
            engine = SegHDCEngine(_config(backend=backend))
            predicted = engine.estimated_grid_nbytes(20, 24)
            engine.warm(20, 24, 1)
            actual = next(
                iter(engine.export_shared_grids()["grids"].values())
            ).position_grid.nbytes
            assert predicted == actual, backend

    def test_pickled_engine_starts_without_imported_state(self):
        parent = SegHDCEngine(_config())
        parent.warm(20, 24, 1)
        child = SegHDCEngine(_config())
        child.import_shared_grids(parent.export_shared_grids())
        clone = pickle.loads(pickle.dumps(child))
        info = clone.cache_info()
        assert info["entries"] == 0
        assert info["shared_grid_imports"] == 0
        clone.segment(_image())
        assert clone.cache_info()["shared_hits"] == 0

    def test_exported_state_survives_pickling(self):
        """The payload crosses process boundaries by pickle; the restored
        bundle must serve bit-identical segmentations."""
        parent = SegHDCEngine(_config())
        parent.warm(20, 24, 1)
        state = pickle.loads(pickle.dumps(parent.export_shared_grids()))
        child = SegHDCEngine(_config())
        assert child.import_shared_grids(state) == 1
        expected = SegHDCEngine(_config()).segment(_image())
        assert np.array_equal(child.segment(_image()).labels, expected.labels)
        assert child.cache_info()["position_grid_builds"] == 0


class TestServerSharedGridCache:
    def test_four_worker_pool_reports_exactly_one_grid_build(self):
        """The headline contract: cold-start grid builds no longer scale
        with worker count — 4 process workers, 1 build across the pool."""
        config = _config()
        images = [_image(seed=i) for i in range(12)]
        reference = SegHDCEngine(config).segment_batch(images)
        with SegmentationServer(
            config, mode="process", num_workers=4, max_batch_size=1
        ) as server:
            served = server.segment_batch(images, timeout=300)
            stats = server.stats()
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)
        assert stats.completed == len(images)
        cache = stats.cache
        assert cache["position_grid_builds"] == 1, cache
        # Every worker that served a job imported rather than built; the
        # parent contributes one extra engine snapshot.
        assert 1 <= cache["shared_grid_imports"] <= 4
        assert cache["shared_grid_imports"] == cache["engines"] - 1
        assert cache["shared_hits"] == stats.completed

    def test_workload_records_the_shared_cache_on_every_result(self):
        config = _config()
        with SegmentationServer(
            config, mode="process", num_workers=2, max_batch_size=2
        ) as server:
            results = server.segment_batch(
                [_image(seed=i) for i in range(4)], timeout=120
            )
        for result in results:
            cache = result.workload["cache"]
            assert cache["shared_grid_imports"] == 1
            assert cache["position_grid_builds"] == 0
            assert cache["shared_hits"] >= 1

    def test_mixed_shapes_build_once_per_shape(self):
        config = _config()
        shapes = [(20, 24), (16, 16)]
        images = [_image(shapes[i % 2], seed=i) for i in range(8)]
        reference = SegHDCEngine(config).segment_batch(images)
        with SegmentationServer(
            config, mode="process", num_workers=2, max_batch_size=2
        ) as server:
            served = server.segment_batch(images, timeout=300)
            stats = server.stats()
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)
        assert stats.cache["position_grid_builds"] == len(shapes)

    def test_worker_side_eviction_falls_back_to_local_builds(self, monkeypatch):
        """When a worker engine's own cache is too small for the working
        set (cache_size=1, two alternating shapes), the shared table
        misses on the worker side after eviction and the worker rebuilds
        locally — more builds than shapes, but parity is never lost."""
        config = _config()
        shapes = [(20, 24), (16, 16)]
        images = [_image(shapes[i % 2], seed=i) for i in range(8)]
        reference = SegHDCEngine(config).segment_batch(images)
        # Class-wide, so the forked worker engines inherit the limit.
        monkeypatch.setattr(SegHDCEngine, "cache_size", 1)
        with SegmentationServer(
            config,
            mode="process",
            num_workers=1,  # one worker makes the eviction churn determinate
            max_batch_size=1,
        ) as server:
            served = server.segment_batch(images, timeout=300)
            stats = server.stats()
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)
        cache = stats.cache
        # The parent built each shape once; the worker imported each shape
        # once (while payloads were attached) and then, with the payload no
        # longer shipped after the ack, rebuilt evicted shapes locally.
        assert cache["position_grid_builds"] > len(shapes)
        assert cache["evictions"] > 0
        assert stats.completed == len(images)

    def test_oversize_shapes_are_never_built_in_the_parent(self, monkeypatch):
        """Shapes whose grid exceeds the engine byte budget are detected by
        size prediction: the parent marks them unshareable without paying
        for a build, and workers fall back to build-per-call."""
        config = _config()
        images = [_image(seed=i) for i in range(3)]
        reference = SegHDCEngine(config).segment_batch(images)
        # Every grid is oversize; class-wide, so forked workers inherit it.
        monkeypatch.setattr(SegHDCEngine, "max_cache_bytes", 1024)
        with SegmentationServer(
            config,
            mode="process",
            num_workers=2,
            max_batch_size=1,
        ) as server:
            served = server.segment_batch(images, timeout=300)
            stats = server.stats()
            # Reach into the parent template engine: the precheck must have
            # skipped the build entirely, not built-then-discarded.
            parent_info = server.segmenter.engine.cache_info()
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)
        assert parent_info["position_grid_builds"] == 0
        assert stats.cache["shared_grid_imports"] == 0
        # Workers rebuilt per call (nothing retained): one build per job.
        assert stats.cache["position_grid_builds"] == stats.completed

    def test_share_grid_cache_off_means_no_parent_snapshot(self):
        config = _config()
        with SegmentationServer(
            config,
            mode="process",
            num_workers=2,
            max_batch_size=2,
            share_grid_cache=False,
        ) as server:
            server.segment_batch([_image(seed=i) for i in range(4)], timeout=120)
            stats = server.stats()
        assert stats.cache["shared_grid_imports"] == 0
        assert stats.cache["shared_hits"] == 0
        assert (
            stats.cache["position_grid_builds"] == stats.cache["engines"]
        )

    def test_thread_mode_is_unaffected(self):
        """Thread mode shares one engine outright; the shared-cache seam
        must stay inert there (no parent snapshot, no imports)."""
        config = _config()
        with SegmentationServer(
            config, mode="thread", num_workers=2, max_batch_size=1
        ) as server:
            server.segment_batch([_image(seed=i) for i in range(4)], timeout=120)
            stats = server.stats()
        assert stats.cache["position_grid_builds"] == 1
        assert stats.cache["shared_grid_imports"] == 0
        assert stats.cache["engines"] == 1

    def test_non_engine_segmenters_skip_the_shared_cache(self):
        """A segmenter without the export/import seam (the CNN baseline)
        serves in process mode exactly as before."""
        from repro.baseline import CNNBaselineConfig, CNNUnsupervisedSegmenter

        config = CNNBaselineConfig(
            num_features=8, num_layers=1, max_iterations=3, seed=0
        )
        images = [_image((16, 20), seed=i) for i in range(2)]
        reference = CNNUnsupervisedSegmenter(config).segment_batch(images)
        with SegmentationServer(
            {"segmenter": "cnn_baseline", "config": config.to_dict()},
            mode="process",
            num_workers=2,
        ) as server:
            served = server.segment_batch(images, timeout=300)
            stats = server.stats()
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)
        assert stats.completed == 2
