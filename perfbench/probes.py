"""Spans and counters around one ``SegHDCEngine`` and its hdc backend.

:class:`EngineProbe` wraps the engine's ``segment`` (layer ``seghdc``) and
the backend instance's ``assign``, ``bundle_masked``, ``bind_color`` and
``bind_position_grid`` (layer ``hdc``).  Counting happens outside the
spans: assignment planes come from ``centroid_bit_planes(...).shape[0]``
and word operations are *computed* as ``n * ceil(d / 64) * planes * k``,
not counted by the kernel.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np

from measure import median
from spans import SpanRecorder, self_times


class EngineProbe:
    """Per-segment-call records plus spans for one engine."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def attach(self, engine) -> None:
        """Install the wrappers (instance attributes; the class is untouched)."""
        from repro.hdc.backend import PackedBackend

        self._planes = PackedBackend.centroid_bit_planes
        recorder, backend = self.recorder, engine.backend
        recorder.wrap(engine, "segment", "seghdc.segment",
                      before=self._begin, after=self._end)
        recorder.wrap(backend, "assign", "hdc.assign",
                      before=self._before_assign, after=self._after_assign)
        recorder.wrap(backend, "bundle_masked", "hdc.bundle",
                      after=self._after_bundle)
        recorder.wrap(backend, "bind_color", "hdc.bind_color")
        recorder.wrap(backend, "bind_position_grid", "hdc.bind_grid")

    # The in-span hooks only keep references; every count is computed in
    # _end, after the segment span has closed, so counting never inflates
    # a layer's self time.
    def _begin(self, args, kwargs) -> None:
        self._local.call = {"assign": [], "labels": [], "masks": []}

    def _before_assign(self, args, kwargs) -> None:
        call = getattr(self._local, "call", None)
        if call is not None:
            call["assign"].append((args[0], args[1]))

    def _after_assign(self, args, result, span) -> None:
        call = getattr(self._local, "call", None)
        if call is not None:
            call["labels"].append(result[0])

    def _after_bundle(self, args, result, span) -> None:
        call = getattr(self._local, "call", None)
        if call is not None:
            call["masks"].append(args[1])

    def _end(self, args, result, span) -> None:
        call = self._local.call
        self._local.call = None
        planes = []
        wordops = 0
        for storage, centroids in call["assign"]:
            count = int(self._planes(centroids, storage.dimension).shape[0])
            planes.append(count)
            words = -(-storage.dimension // 64)
            wordops += storage.num_rows * words * count * centroids.shape[0]
        labels = call["labels"]
        workload = result.workload
        record = {
            "request_id": span.request_id,
            "seconds": span.duration,
            "shape": (workload["height"], workload["width"], workload["channels"]),
            "pixels": workload["num_pixels"],
            "iterations": workload["iterations_run"],
            "assign_calls": len(call["assign"]),
            "planes": planes,
            "wordops": wordops,
            "switches": [
                int(np.count_nonzero(new != old))
                for old, new in zip(labels, labels[1:])
            ],
            "bundle_calls": len(call["masks"]),
            "bundle_rows": sum(int(np.count_nonzero(mask)) for mask in call["masks"]),
        }
        with self._lock:
            self.records.append(record)

    def layers(self, request_ids, items: int) -> dict:
        """``hdc.*`` and ``seghdc.*`` metrics over the given requests.

        Times and work counts are per workload item (``items`` of them);
        planes, iterations and idle iterations are per call.
        """
        wanted = set(request_ids)
        records = [r for r in self.records if r["request_id"] in wanted]
        totals = self_times(self.recorder.select(wanted))

        def total(name, key="total_s"):
            return totals.get(name, {}).get(key, 0.0)

        assign_s = total("hdc.assign")
        wordops = sum(r["wordops"] for r in records)
        planes = [p for r in records for p in r["planes"]]
        switches = sum(sum(r["switches"]) for r in records)
        switch_slots = sum(r["pixels"] * len(r["switches"]) for r in records)
        grid_spans = self.recorder.by_name("hdc.bind_grid")
        return {
            "hdc.assign_s": assign_s / items,
            "hdc.assign_calls": sum(r["assign_calls"] for r in records) / items,
            "hdc.assign_planes": float(np.mean(planes)) if planes else 0.0,
            "hdc.assign_gwordops": wordops / 1e9 / items,
            "hdc.assign_gwordops_s": wordops / 1e9 / assign_s if assign_s else 0.0,
            "hdc.bundle_s": total("hdc.bundle") / items,
            "hdc.bundle_calls": sum(r["bundle_calls"] for r in records) / items,
            "hdc.bundle_rows": sum(r["bundle_rows"] for r in records) / items,
            "hdc.bind_color_s": total("hdc.bind_color") / items,
            "hdc.bind_grid_s": (
                median([s.duration for s in grid_spans]) if grid_spans else 0.0
            ),
            "seghdc.segment_s": total("seghdc.segment") / items,
            "seghdc.self_s": total("seghdc.segment", "self_s") / items,
            "seghdc.iterations": (
                float(np.mean([r["iterations"] for r in records])) if records else 0.0
            ),
            "seghdc.switch_frac": switches / switch_slots if switch_slots else 0.0,
            "seghdc.idle_iters": (
                float(np.mean([r["switches"].count(0) for r in records]))
                if records else 0.0
            ),
        }

    def device_time_ratio(self, config, request_ids) -> float:
        """Cost-model latency over measured ``segment`` seconds, summed over
        the given calls."""
        from repro.device import HOST_PROFILE, EdgeDeviceSimulator

        simulator = EdgeDeviceSimulator(HOST_PROFILE)
        wanted = set(request_ids)
        modeled = measured = 0.0
        for record in self.records:
            if record["request_id"] not in wanted:
                continue
            height, width, channels = record["shape"]
            modeled += _estimate(simulator, config, height, width, channels).latency_seconds
            measured += record["seconds"]
        return modeled / measured if measured else 0.0


def _estimate(simulator, config, height, width, channels):
    return simulator.estimate_seghdc(
        height, width,
        dimension=config.dimension,
        num_clusters=config.num_clusters,
        num_iterations=config.num_iterations,
        channels=channels,
        backend=config.backend,
        counter_depth=config.counter_depth,
        bundle_chunk_rows=config.bundle_chunk_rows,
        strict=False,
    )


def device_mem_ratio(engine, image: np.ndarray) -> float:
    """Cost-model peak memory over the tracemalloc peak of one ``segment``
    (grids already warm, tracing off)."""
    from repro.device import HOST_PROFILE, EdgeDeviceSimulator

    height, width = image.shape[:2]
    channels = image.shape[2] if image.ndim == 3 else 1
    modeled = _estimate(
        EdgeDeviceSimulator(HOST_PROFILE), engine.config, height, width, channels
    ).peak_memory_bytes
    tracemalloc.start()
    try:
        engine.segment(image)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The model counts the position grid, which was allocated before
    # tracemalloc started; add its exact size so both sides cover it.
    peak += engine.estimated_grid_nbytes(height, width)
    return modeled / peak
