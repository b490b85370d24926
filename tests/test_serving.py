"""Tests for the concurrent segmentation serving layer.

Covers the component contracts (shape-aware batcher, bounded queue), the
server lifecycle in thread and process modes, error routing, backpressure,
stats accounting, the unified-API paths (any registered segmenter through
the same submit/poll and streaming ``map()`` machinery), and — the hard
part — a multi-producer stress test asserting bit-exact results and exact
counter totals under contention.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from repro.baseline import CNNBaselineConfig, CNNUnsupervisedSegmenter
from repro.seghdc import SegHDC, SegHDCConfig, SegHDCEngine
from repro.serving import (
    BoundedJobQueue,
    SegmentationServer,
    ServerClosed,
    ServerSaturated,
    ServingOptions,
    ShapeBatcher,
)


def _config(**overrides):
    base = SegHDCConfig(
        dimension=300, num_clusters=2, num_iterations=2, alpha=0.2, beta=3, seed=0
    )
    return base.with_overrides(**overrides)


def _image(shape=(20, 24), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


@dataclass
class _FakeJob:
    name: str
    shape_key: tuple


class TestShapeBatcher:
    def test_groups_same_shape_across_interleaved_queue(self):
        pending = deque(
            [
                _FakeJob("a1", (2, 2, 1)),
                _FakeJob("b1", (3, 3, 1)),
                _FakeJob("a2", (2, 2, 1)),
                _FakeJob("b2", (3, 3, 1)),
                _FakeJob("a3", (2, 2, 1)),
            ]
        )
        batch = ShapeBatcher(max_batch_size=8).take_batch(pending)
        assert [job.name for job in batch] == ["a1", "a2", "a3"]
        # Non-matching jobs keep their relative order.
        assert [job.name for job in pending] == ["b1", "b2"]

    def test_respects_max_batch_size(self):
        pending = deque(
            [_FakeJob(f"a{i}", (2, 2, 1)) for i in range(5)]
        )
        batch = ShapeBatcher(max_batch_size=3).take_batch(pending)
        assert len(batch) == 3
        assert [job.name for job in pending] == ["a3", "a4"]

    def test_batch_size_one_is_plain_fifo(self):
        pending = deque(
            [_FakeJob("a", (2, 2, 1)), _FakeJob("b", (3, 3, 1))]
        )
        batcher = ShapeBatcher(max_batch_size=1)
        assert [j.name for j in batcher.take_batch(pending)] == ["a"]
        assert [j.name for j in batcher.take_batch(pending)] == ["b"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShapeBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            ShapeBatcher().take_batch(deque())


class TestBoundedJobQueue:
    def _queue(self, depth=2, batch=4):
        return BoundedJobQueue(depth, ShapeBatcher(max_batch_size=batch))

    def test_put_take_roundtrip(self):
        queue = self._queue()
        assert queue.put(_FakeJob("a", (1, 1, 1)))
        assert queue.depth() == 1
        batch = queue.take_batch()
        assert [job.name for job in batch] == ["a"]
        assert queue.depth() == 0

    def test_nonblocking_put_bounces_when_full(self):
        queue = self._queue(depth=1)
        assert queue.put(_FakeJob("a", (1, 1, 1)))
        assert not queue.put(_FakeJob("b", (1, 1, 1)), block=False)
        assert not queue.put(_FakeJob("c", (1, 1, 1)), block=True, timeout=0.01)

    def test_blocked_put_wakes_when_slot_frees(self):
        queue = self._queue(depth=1)
        queue.put(_FakeJob("a", (1, 1, 1)))
        admitted = []

        def blocked_put():
            admitted.append(queue.put(_FakeJob("b", (1, 1, 1)), timeout=5.0))

        producer = threading.Thread(target=blocked_put)
        producer.start()
        time.sleep(0.05)
        queue.take_batch()
        producer.join(timeout=5.0)
        assert admitted == [True]
        assert queue.depth() == 1

    def test_close_returns_leftovers_and_signals_workers(self):
        queue = self._queue()
        queue.put(_FakeJob("a", (1, 1, 1)))
        leftovers = queue.close()
        assert [job.name for job in leftovers] == ["a"]
        assert queue.take_batch() is None
        with pytest.raises(RuntimeError):
            queue.put(_FakeJob("b", (1, 1, 1)))

    def test_take_batch_timeout_returns_empty_list(self):
        assert self._queue().take_batch(timeout=0.01) == []


class TestServerThreadMode:
    def test_results_match_serial_engine_bit_exactly(self):
        images = [_image(seed=i) for i in range(5)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with SegmentationServer(
            _config(), mode="thread", num_workers=3, max_batch_size=4
        ) as server:
            served = server.segment_batch(images)
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)

    def test_submit_poll_and_workload_annotation(self):
        with SegmentationServer(_config(backend="dense"), num_workers=1) as server:
            handle = server.submit(_image())
            result = handle.result(timeout=30)
            assert handle.done()
            assert result.workload["serving_latency_seconds"] > 0
            assert result.workload["backend"] == "dense"

    def test_mixed_shapes_batch_by_shape_and_share_the_engine_cache(self):
        """One worker, interleaved shapes: the batcher reorders into two
        shape runs and the shared engine builds each grid exactly once."""
        shapes = [(20, 24), (16, 20)]
        images = [_image(shapes[i % 2], seed=i) for i in range(8)]
        server = SegmentationServer(
            _config(), mode="thread", num_workers=1, max_batch_size=8
        )
        try:
            server.segment_batch(images)
            stats = server.stats()
            assert stats.completed == 8
            assert stats.cache["position_grid_builds"] == 2
            assert stats.cache["hits"] == 6
            assert stats.cache["hit_rate"] == pytest.approx(6 / 8)
        finally:
            server.close()

    def test_invalid_image_rejected_at_submit(self):
        with SegmentationServer(_config(), num_workers=1) as server:
            with pytest.raises(ValueError, match="2-D or 3-D"):
                server.submit(np.zeros(7, dtype=np.uint8))
            # The rejected submit never entered the counters.
            assert server.stats().submitted == 0

    def test_worker_error_routed_to_the_failing_handle_only(self):
        """A 1x1 image fails inside the worker (k=2 needs 2 pixels); the
        error reaches that handle and the server keeps serving."""
        with SegmentationServer(_config(), num_workers=1) as server:
            bad = server.submit(np.array([[3]], dtype=np.uint8))
            good = server.submit(_image())
            with pytest.raises(ValueError, match="cannot form 2 clusters"):
                bad.result(timeout=30)
            assert good.result(timeout=30).labels.shape == (20, 24)
            stats = server.stats()
            assert stats.failed == 1
            assert stats.completed == 1

    def test_backpressure_rejects_nonblocking_submits(self):
        server = SegmentationServer(
            _config(dimension=600, num_iterations=4),
            num_workers=1,
            max_queue_depth=1,
            max_batch_size=1,
        )
        try:
            rejected = 0
            # Keep shoving until the queue is observably full.
            for seed in range(40):
                try:
                    server.submit(_image((32, 40), seed=seed), block=False)
                except ServerSaturated:
                    rejected += 1
                    break
            assert rejected == 1
            assert server.stats().rejected == 1
            assert server.drain(timeout=60)
            stats = server.stats()
            # The bounced submit was retracted: only admitted jobs count.
            assert stats.submitted == stats.completed
        finally:
            server.close()

    def test_close_without_drain_fails_pending_handles(self):
        server = SegmentationServer(
            _config(dimension=600, num_iterations=4),
            num_workers=1,
            max_batch_size=1,
            max_queue_depth=16,
        )
        handles = [server.submit(_image((32, 40), seed=i)) for i in range(6)]
        server.close(drain=False)
        outcomes = {"ok": 0, "closed": 0}
        for handle in handles:
            try:
                handle.result(timeout=30)
                outcomes["ok"] += 1
            except ServerClosed:
                outcomes["closed"] += 1
        # Everything was either served or explicitly failed — nothing hangs.
        assert outcomes["ok"] + outcomes["closed"] == 6
        stats = server.stats()
        assert stats.completed + stats.failed == 6
        with pytest.raises(ServerClosed):
            server.submit(_image())

    def test_close_is_idempotent(self):
        server = SegmentationServer(_config(), num_workers=1)
        server.close()
        server.close()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="mode"):
            SegmentationServer(_config(), mode="fiber")
        with pytest.raises(ValueError, match="num_workers"):
            SegmentationServer(_config(), num_workers=0)


class TestServerProcessMode:
    def test_process_pool_parity_and_shared_grid_cache(self):
        images = [_image(seed=i) for i in range(4)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with SegmentationServer(
            _config(), mode="process", num_workers=2, max_batch_size=2
        ) as server:
            served = server.segment_batch(images, timeout=120)
            stats = server.stats()
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)
        assert stats.completed == 4
        # The parent template engine built the grid exactly once and the
        # workers imported it; worker + parent snapshots are all aggregated.
        assert stats.cache["position_grid_builds"] == 1
        assert stats.cache["shared_grid_imports"] >= 1
        assert stats.cache["shared_hits"] == stats.completed
        assert 2 <= stats.cache["engines"] <= 3  # workers seen + parent
        assert server.engine is None

    def test_process_pool_without_shared_cache_builds_per_worker(self):
        """share_grid_cache=False restores the historical cold-start
        semantics: every worker process builds its own encoder grids."""
        images = [_image(seed=i) for i in range(4)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with SegmentationServer(
            _config(),
            mode="process",
            num_workers=2,
            max_batch_size=2,
            share_grid_cache=False,
        ) as server:
            served = server.segment_batch(images, timeout=120)
            stats = server.stats()
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)
        assert stats.completed == 4
        # Each worker process reported its own engine's cache snapshot.
        assert 1 <= stats.cache["engines"] <= 2
        assert stats.cache["position_grid_builds"] == stats.cache["engines"]
        assert stats.cache["shared_grid_imports"] == 0


def _cnn_config(**overrides):
    base = dict(num_features=8, num_layers=1, max_iterations=3, seed=0)
    base.update(overrides)
    return CNNBaselineConfig(**base)


def _cnn_spec(**overrides):
    return {"segmenter": "cnn_baseline", "config": _cnn_config(**overrides).to_dict()}


class TestUnifiedSegmenterServing:
    """Acceptance: the CNN baseline rides the same submit/poll and ``map``
    paths as SegHDC, in both thread and process mode, bit-exactly."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_cnn_baseline_submit_poll_parity(self, mode):
        images = [_image((16, 20), seed=i) for i in range(3)]
        reference = CNNUnsupervisedSegmenter(_cnn_config()).segment_batch(images)
        with SegmentationServer(
            _cnn_spec(), mode=mode, num_workers=2, max_batch_size=2
        ) as server:
            handles = [server.submit(image) for image in images]
            served = [handle.result(timeout=120) for handle in handles]
        for expected, observed in zip(reference, served):
            assert np.array_equal(expected.labels, observed.labels)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("segmenter", ["seghdc", "cnn_baseline"])
    def test_map_parity_for_both_segmenters(self, mode, segmenter):
        images = [_image((16, 20), seed=i) for i in range(4)]
        if segmenter == "seghdc":
            spec = {"segmenter": "seghdc", "config": _config().to_dict()}
            reference = SegHDCEngine(_config()).segment_batch(images)
        else:
            spec = _cnn_spec()
            reference = CNNUnsupervisedSegmenter(_cnn_config()).segment_batch(images)
        with SegmentationServer(
            spec, mode=mode, num_workers=2, max_batch_size=2
        ) as server:
            collected = dict(server.map(images, timeout=120))
        assert sorted(collected) == list(range(len(images)))
        for index, expected in enumerate(reference):
            assert np.array_equal(expected.labels, collected[index].labels)

    def test_map_submits_lazily_under_backpressure(self):
        """A queue of depth 1 with many more images would deadlock if map
        tried to submit everything before yielding; the feeder/consumer
        split keeps it streaming."""
        images = (_image((16, 20), seed=i) for i in range(8))  # lazy generator
        with SegmentationServer(
            _config(), mode="thread", num_workers=1, max_queue_depth=1,
            max_batch_size=1,
        ) as server:
            seen = sum(1 for _ in server.map(images, timeout=120))
        assert seen == 8

    def test_map_yields_results_before_the_input_is_exhausted(self):
        """Streaming, not batch: with a slow producer, earlier results are
        already yielded while later images have not been submitted yet."""
        first_yield_seen = threading.Event()

        def producer():
            yield _image((16, 20), seed=0)
            # Wait (bounded) until the consumer saw result 0: proves results
            # flow while the input iterable is still being produced.
            assert first_yield_seen.wait(timeout=60)
            yield _image((16, 20), seed=1)

        with SegmentationServer(_config(), num_workers=1) as server:
            indices = []
            for index, _result in server.map(producer(), timeout=120):
                indices.append(index)
                first_yield_seen.set()
        assert sorted(indices) == [0, 1]

    def test_map_reraises_job_errors_at_the_yield_point(self):
        images = [_image((16, 20)), np.array([[3]], dtype=np.uint8)]
        with SegmentationServer(_config(), num_workers=1) as server:
            with pytest.raises(ValueError, match="cannot form 2 clusters"):
                for _ in server.map(images, timeout=120):
                    pass

    def test_map_empty_iterable(self):
        with SegmentationServer(_config(), num_workers=1) as server:
            assert list(server.map([])) == []

    def test_abandoning_map_stops_the_feeder(self):
        """Breaking out of map() must stop the feeder before its next
        submit — an unbounded producer must not keep occupying the server."""
        pulled = []

        def unbounded():
            seed = 0
            while True:
                pulled.append(seed)
                yield _image((16, 20), seed=seed)
                seed += 1

        with SegmentationServer(
            _config(), num_workers=1, max_queue_depth=2, max_batch_size=1
        ) as server:
            for _index, _result in server.map(unbounded(), timeout=120):
                break  # abandon after the first result
            assert server.drain(timeout=120)
            submitted_after_break = server.stats().submitted
            time.sleep(0.2)  # give a runaway feeder time to misbehave
            assert server.stats().submitted <= submitted_after_break + 1
        # The producer was only pulled for jobs submitted before the stop
        # flag was observed, not drained forever.
        assert len(pulled) <= submitted_after_break + 2

    def test_map_timeout_does_not_run_while_waiting_on_the_producer(self):
        """The timeout bounds completion latency, not producer latency: a
        producer pause far longer than the timeout must not raise while no
        job is in flight."""

        def slow_producer():
            yield _image((16, 20), seed=0)
            time.sleep(0.8)  # idle gap >> timeout, with zero jobs in flight
            yield _image((16, 20), seed=1)

        with SegmentationServer(_config(), num_workers=1) as server:
            indices = sorted(
                index for index, _result in server.map(
                    slow_producer(), timeout=0.3
                )
            )
        assert indices == [0, 1]

    def test_map_bounds_in_flight_results_for_a_slow_consumer(self):
        """A consumer slower than the workers must stall the feeder: jobs in
        flight (submitted but not yet yielded) stay within max_queue_depth,
        so finished label maps cannot pile up without bound."""
        depth = 3
        pulled = []

        def producer():
            for seed in range(20):
                pulled.append(seed)
                yield _image((16, 20), seed=seed)

        with SegmentationServer(
            _config(), num_workers=2, max_queue_depth=depth, max_batch_size=1
        ) as server:
            yielded = 0
            for _index, _result in server.map(producer(), timeout=120):
                yielded += 1
                # +1: the producer is pulled one image ahead of the
                # in-flight gate.
                assert len(pulled) <= yielded + depth + 1
                time.sleep(0.02)  # slower than the workers
        assert yielded == 20

    def test_process_worker_init_imports_the_registering_module(
        self, tmp_path, monkeypatch
    ):
        """Spawn-start workers begin with a fresh registry holding only the
        built-ins; the initializer must import a third-party segmenter's
        registering module before resolving the spec."""
        from repro.api import registry as registry_module
        from repro.serving import server as server_module

        module_name = "thirdparty_spawn_fixture"
        (tmp_path / f"{module_name}.py").write_text(
            "from repro.api import register_segmenter\n"
            "from repro.seghdc import SegHDC, SegHDCConfig\n"
            "register_segmenter(\n"
            "    'thirdparty_spawn',\n"
            "    factory=lambda config=None, **kw: SegHDC(config, **kw),\n"
            "    config_cls=SegHDCConfig,\n"
            "    overwrite=True,\n"
            ")\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        spec = {"segmenter": "thirdparty_spawn"}
        try:
            # Simulate the fresh-registry child: the name is unknown until
            # the provider module is imported.
            registry_module._REGISTRY.pop("thirdparty_spawn", None)
            with pytest.raises(ValueError, match="unknown segmenter"):
                server_module.make_segmenter(spec)
            server_module._init_process_worker(spec, module_name)
            # Importing the provider module registered the name, so the
            # spec resolved to a working segmenter.
            assert isinstance(server_module._PROCESS_SEGMENTER, SegHDC)
            # The built-ins ship their registering modules too.
            assert server_module._provider_module(
                {"segmenter": "seghdc"}
            ) == "repro.seghdc.pipeline"
        finally:
            server_module._PROCESS_SEGMENTER = None
            registry_module._REGISTRY.pop("thirdparty_spawn", None)
            sys.modules.pop(module_name, None)

    def test_engine_kwargs_on_non_seghdc_spec_raise_cleanly(self):
        with pytest.raises(ValueError, match="engine_kwargs.*cnn_baseline"):
            SegmentationServer(
                {"segmenter": "cnn_baseline"}, engine_kwargs={"cache_size": 2}
            )

    def test_bad_config_with_engine_kwargs_blames_the_config(self):
        """A TypeError caused by a bad config must not be rewrapped as an
        engine_kwargs error just because engine kwargs were also passed."""
        with pytest.raises(TypeError, match="expects a SegHDCConfig"):
            SegmentationServer(
                {"segmenter": "seghdc", "config": 42},
                engine_kwargs={"cache_size": 2},
            )

    def test_segmenter_instance_served_directly(self):
        segmenter = CNNUnsupervisedSegmenter(_cnn_config())
        image = _image((16, 20))
        expected = segmenter.segment(image).labels
        with SegmentationServer(segmenter, mode="thread", num_workers=2) as server:
            assert np.array_equal(
                server.submit(image).result(timeout=60).labels, expected
            )
            assert server.segmenter is segmenter

    def test_server_accepts_registered_name(self):
        with SegmentationServer("cnn_baseline", num_workers=1) as server:
            assert isinstance(server.segmenter, CNNUnsupervisedSegmenter)
            assert server.config == CNNBaselineConfig()

    def test_from_options_builds_the_described_topology(self):
        options = ServingOptions(mode="thread", num_workers=3, max_batch_size=2)
        with SegmentationServer.from_options(_config(), options) as server:
            stats = server.stats()
            assert stats.mode == "thread"
            assert stats.num_workers == 3

    def test_from_options_carries_the_transport_toggle(self):
        """ServingOptions.use_shared_memory must reach the server: with the
        ring disabled, a process-mode pool serves over pickle and says so in
        the per-path transport counters (also present in as_dict())."""
        options = ServingOptions(
            mode="process",
            num_workers=1,
            max_batch_size=2,
            use_shared_memory=False,
        )
        with SegmentationServer.from_options(_config(), options) as server:
            server.segment_batch([_image(seed=3)], timeout=120)
            stats = server.stats()
        assert set(stats.transport) == {"pickle"}
        as_dict = stats.as_dict()
        assert as_dict["transport"]["pickle"]["images"] == 1
        assert as_dict["transport"]["pickle"]["bytes_in"] > 0
        with pytest.raises(ValueError, match="shm_slot_bytes"):
            ServingOptions(shm_slot_bytes=0)

    def test_engine_kwargs_rejected_for_ready_instances(self):
        with pytest.raises(ValueError, match="engine_kwargs"):
            SegmentationServer(
                SegHDC(_config()), engine_kwargs={"cache_size": 2}
            )

    def test_rejects_non_segmenter_objects(self):
        with pytest.raises(TypeError, match="Segmenter"):
            SegmentationServer(object())

    def test_thread_mode_engine_exposed_for_seghdc_only(self):
        with SegmentationServer(_config(), num_workers=1) as seghdc_server:
            assert seghdc_server.engine is seghdc_server.segmenter.engine
        with SegmentationServer(_cnn_spec(), num_workers=1) as cnn_server:
            assert cnn_server.engine is None
            cnn_server.segment_batch([_image((16, 20))])
            # No engine cache to report, but stats still work.
            assert cnn_server.stats().completed == 1


class TestStressConcurrency:
    def test_many_producers_one_server_exact_results_and_counters(self):
        """Satellite: N threads hammering one shared server.  Every job
        completes, every label map is bit-identical to a single-threaded
        run, and no counter races (totals add up exactly)."""
        num_producers, jobs_per_producer = 6, 5
        total = num_producers * jobs_per_producer
        shapes = [(20, 24), (16, 20)]
        config = _config()

        # Single-threaded ground truth, one result per (shape, seed).
        reference = {}
        serial_engine = SegHDCEngine(config)
        for producer_index in range(num_producers):
            for job_index in range(jobs_per_producer):
                shape = shapes[(producer_index + job_index) % 2]
                seed = producer_index * 100 + job_index
                reference[(shape, seed)] = serial_engine.segment(
                    _image(shape, seed=seed)
                ).labels

        server = SegmentationServer(
            config,
            mode="thread",
            num_workers=3,
            max_queue_depth=8,  # small: forces real backpressure blocking
            max_batch_size=4,
        )
        mismatches: list[str] = []
        errors: list[BaseException] = []

        def producer(producer_index: int) -> None:
            try:
                handles = []
                for job_index in range(jobs_per_producer):
                    shape = shapes[(producer_index + job_index) % 2]
                    seed = producer_index * 100 + job_index
                    handles.append(
                        (shape, seed, server.submit(_image(shape, seed=seed)))
                    )
                for shape, seed, handle in handles:
                    labels = handle.result(timeout=120).labels
                    if not np.array_equal(labels, reference[(shape, seed)]):
                        mismatches.append(f"{shape}/{seed}")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=producer, args=(i,))
            for i in range(num_producers)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert server.drain(timeout=120)
            stats = server.stats()
        finally:
            server.close()

        assert not errors, errors
        assert not mismatches, mismatches
        # Totals add up exactly: nothing lost, nothing double-counted.
        assert stats.submitted == total
        assert stats.completed == total
        assert stats.failed == 0
        assert stats.rejected == 0
        assert stats.queue_depth == 0
        assert stats.in_flight == 0
        assert stats.latency["count"] == total
        assert stats.latency["p50"] > 0.0
        # The shared engine built each of the two grids exactly once and
        # every other lookup hit (cache lock => no duplicate builds).
        assert stats.cache["position_grid_builds"] == 2
        assert stats.cache["hits"] == total - 2
        assert stats.cache["hit_rate"] == pytest.approx((total - 2) / total)
        # Micro-batching actually happened (jobs > batches).
        assert 0 < stats.batches_dispatched <= total


class _StallSegmenter:
    """Segmenter whose ``segment`` blocks until released (lifecycle tests)."""

    def __init__(
        self,
        release: threading.Event,
        started: "threading.Event | None" = None,
    ) -> None:
        self._release = release
        self._started = started

    def segment(self, image):
        if self._started is not None:
            self._started.set()
        self._release.wait()
        pixels = np.asarray(getattr(image, "pixels", image))
        from repro.api import SegmentationResult

        return SegmentationResult(
            labels=np.zeros(pixels.shape[:2], dtype=np.int32),
            elapsed_seconds=0.0,
            num_clusters=1,
        )

    def segment_batch(self, images):
        return [self.segment(image) for image in images]

    def describe(self):
        return {"segmenter": "stall"}


class _SlowSegmenter(_StallSegmenter):
    """Segmenter taking a fixed wall time per image (deadline tests)."""

    def __init__(self, seconds: float) -> None:
        super().__init__(release=threading.Event())
        self._seconds = seconds

    def segment(self, image):
        time.sleep(self._seconds)
        pixels = np.asarray(getattr(image, "pixels", image))
        from repro.api import SegmentationResult

        return SegmentationResult(
            labels=np.zeros(pixels.shape[:2], dtype=np.int32),
            elapsed_seconds=self._seconds,
            num_clusters=1,
        )


class TestLifecycleDeadlines:
    """Regression tests for the shared-deadline fixes in close/segment_batch.

    Before the fix, ``close(drain=True, timeout=T)`` could block for
    ``(1 + num_workers) * T`` (the timeout was reused for ``wait_idle`` and
    every ``worker.join``) and ``segment_batch(timeout=T)`` for ``N * T``
    (per-handle waits); both now share one monotonic deadline so the
    caller-visible timeout means wall time.
    """

    def test_close_timeout_is_a_shared_deadline(self):
        release = threading.Event()
        started = threading.Event()
        server = SegmentationServer(
            _StallSegmenter(release, started), mode="thread", num_workers=2
        )
        try:
            server.submit(_image())
            assert started.wait(5)
            start = time.monotonic()
            server.close(drain=True, timeout=0.6)
            elapsed = time.monotonic() - start
            # Old behavior: 0.6 (wait_idle) + 2 x 0.6 (joins) ~= 1.8s.
            assert elapsed < 1.2, f"close took {elapsed:.2f}s for timeout=0.6"
        finally:
            release.set()

    def test_segment_batch_timeout_is_a_shared_deadline(self):
        server = SegmentationServer(
            _SlowSegmenter(0.25), mode="thread", num_workers=1
        )
        try:
            images = [_image(seed=i) for i in range(3)]
            start = time.monotonic()
            # One worker x 0.25s/image: results land at ~0.25/0.50/0.75s.
            # The old per-handle waits returned at ~0.75s WITHOUT raising
            # (each individual wait stayed under 0.4); the shared deadline
            # raises at ~0.4s.
            with pytest.raises(TimeoutError):
                server.segment_batch(images, timeout=0.4)
            elapsed = time.monotonic() - start
            assert elapsed < 0.7, (
                f"segment_batch took {elapsed:.2f}s for timeout=0.4"
            )
        finally:
            server.close(drain=True, timeout=5)

    def test_result_raises_a_fresh_copy_per_waiter(self):
        class _Failing(_StallSegmenter):
            def __init__(self):
                super().__init__(release=threading.Event())

            def segment(self, image):
                raise ValueError("kaboom")

        with SegmentationServer(
            _Failing(), mode="thread", num_workers=1
        ) as server:
            handle = server.submit(_image())
            caught = []

            def waiter():
                try:
                    handle.result(timeout=10)
                except ValueError as exc:
                    caught.append(exc)

            threads = [threading.Thread(target=waiter) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(caught) == 2
            first, second = caught
            # Each waiter gets its own exception object (concurrent raises
            # must not accrete tracebacks onto one shared instance) ...
            assert first is not second
            # ... that still looks like the worker's error and chains to it.
            assert type(first) is ValueError
            assert str(first) == "kaboom" == str(second)
            assert handle.exception(timeout=1) is not None
            assert handle.exception(timeout=1) is not handle.exception(1)


class TestStatsSnapshotConsistency:
    """The collector's snapshot must be one atomic cut of its counters."""

    def test_latency_count_never_disagrees_with_finished_jobs(self):
        """Snapshots taken under concurrent recording stay self-consistent.

        Counters and the latency reservoir are copied in a single critical
        section; a snapshot where ``latency.count`` drifts from
        ``completed + failed`` (within the reservoir window) means a worker
        landed between two separate lock acquisitions — exactly the skew a
        fleet prober polling ``/stats`` under load would surface.
        """
        from repro.serving.stats import StatsCollector

        collector = StatsCollector(latency_window=100_000)
        per_thread = 400
        stop = threading.Event()

        def hammer(seed: int) -> None:
            for i in range(per_thread):
                collector.record_submitted()
                if (seed + i) % 7 == 0:
                    collector.record_failed(0.001)
                else:
                    collector.record_completed(
                        0.001, cache={"position_grid_builds": 1, "hits": i}
                    )

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            observed = 0
            while any(thread.is_alive() for thread in threads) or observed < 5:
                stats = collector.snapshot(
                    mode="thread", num_workers=1, queue_depth=0
                )
                finished = stats.completed + stats.failed
                assert stats.latency["count"] == finished, (
                    f"torn snapshot: {stats.latency['count']} latency "
                    f"samples vs {finished} finished jobs"
                )
                assert stats.submitted >= finished
                observed += 1
                if stop.is_set():
                    break
        finally:
            for thread in threads:
                thread.join(timeout=30)
        stats = collector.snapshot(mode="thread", num_workers=1, queue_depth=0)
        assert stats.completed + stats.failed == 4 * per_thread
        assert stats.latency["count"] == 4 * per_thread

    def test_out_of_order_cache_snapshot_does_not_roll_counters_back(self):
        """A process worker's results can be delivered on different dispatch
        threads, so an older cumulative snapshot may be recorded after a
        newer one; the aggregate must keep the newer counters."""
        from repro.serving.stats import StatsCollector

        collector = StatsCollector()
        newer = {"hits": 2, "misses": 0, "shared_hits": 2}
        older = {"hits": 1, "misses": 0, "shared_hits": 1}
        collector.record_completed(0.001, cache=newer, source=101)
        collector.record_completed(0.001, cache=older, source=101)
        collector.record_completed(0.001, cache=older, source=202)
        cache = collector.snapshot(
            mode="process", num_workers=2, queue_depth=0
        ).cache
        assert cache["hits"] == 3
        assert cache["shared_hits"] == 3
        assert cache["engines"] == 2


class TestLatencyReservoir:
    """Bounded-memory latency sampling with whole-run percentiles.

    The regression pinned here: latency percentiles used to come from a
    sliding window of the most recent samples, so a long run's reported
    p99 silently forgot everything before the window while memory was the
    only thing bounded.  The reservoir keeps memory capped at the same
    ``latency_window`` parameter but samples uniformly over the *whole*
    run (Algorithm R), and ``latency.count`` reports every recorded
    sample, not the buffer occupancy.
    """

    def test_memory_stays_bounded_at_capacity(self):
        from repro.serving.stats import LatencyReservoir

        reservoir = LatencyReservoir(capacity=128, seed=0)
        for i in range(100_000):
            reservoir.add(float(i))
        assert len(reservoir) == 128
        assert len(reservoir.snapshot()) == 128
        assert reservoir.total == 100_000
        assert reservoir.capacity == 128

    def test_percentiles_represent_the_whole_run_not_a_window(self):
        """A bimodal run: fast first half, slow second half.

        A sliding window of the last 1k samples would report p50 ~= the
        slow mode only; the reservoir's uniform sample keeps both modes,
        so the median lands between them.
        """
        from repro.serving.stats import (
            LatencyReservoir,
            latency_percentiles,
        )

        reservoir = LatencyReservoir(capacity=1_000, seed=1)
        for _ in range(20_000):
            reservoir.add(0.010)
        for _ in range(20_000):
            reservoir.add(0.100)
        summary = latency_percentiles(
            reservoir.snapshot(), total=reservoir.total
        )
        assert summary["count"] == 40_000
        # Roughly half the kept samples come from each mode.
        kept_slow = sum(1 for v in reservoir.snapshot() if v > 0.05)
        assert 0.35 <= kept_slow / 1_000 <= 0.65
        assert 0.010 <= summary["p50"] <= 0.100
        assert summary["p99"] == pytest.approx(0.100)

    def test_percentiles_are_stable_under_capacity(self):
        """Below capacity the reservoir is exact: every sample kept."""
        from repro.serving.stats import (
            LatencyReservoir,
            latency_percentiles,
        )

        reservoir = LatencyReservoir(capacity=4096, seed=0)
        values = [i / 1000.0 for i in range(1000)]
        for value in values:
            reservoir.add(value)
        summary = latency_percentiles(
            reservoir.snapshot(), total=reservoir.total
        )
        assert summary["count"] == 1000
        assert summary["p50"] == pytest.approx(np.percentile(values, 50))
        assert summary["p99"] == pytest.approx(np.percentile(values, 99))

    def test_seeded_reservoir_is_deterministic(self):
        from repro.serving.stats import LatencyReservoir

        a = LatencyReservoir(capacity=64, seed=9)
        b = LatencyReservoir(capacity=64, seed=9)
        for i in range(10_000):
            a.add(float(i))
            b.add(float(i))
        assert a.snapshot() == b.snapshot()

    def test_capacity_validation(self):
        from repro.serving.stats import LatencyReservoir

        with pytest.raises(ValueError, match="capacity"):
            LatencyReservoir(capacity=0)

    def test_stats_collector_count_is_total_not_buffer_occupancy(self):
        from repro.serving.stats import StatsCollector

        collector = StatsCollector(latency_window=32)
        for _ in range(500):
            collector.record_submitted()
            collector.record_completed(0.002)
        stats = collector.snapshot(mode="thread", num_workers=1, queue_depth=0)
        assert stats.latency["count"] == 500
        assert stats.latency["p99"] == pytest.approx(0.002)
