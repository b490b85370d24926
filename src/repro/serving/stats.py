"""Per-server statistics: counters, latency percentiles, cache aggregation.

The collector is the single point every worker reports through, so the
serving tests can assert that totals add up exactly under concurrency:
``submitted == completed + failed`` once a server is drained, and the number
of recorded latencies matches the number of finished jobs (up to the sliding
window).  Latencies are end-to-end (submit to result ready), which includes
queueing delay — the number a capacity planner actually cares about.

Cache efficiency is aggregated from ``SegmentationResult.workload["cache"]``
snapshots rather than by reaching into engines: the counters in a workload
are cumulative for the engine that produced it, so the collector keeps the
*latest* snapshot per engine source (one shared engine in thread mode, one
per worker process in process mode) and sums across sources.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatencyReservoir",
    "ServerStats",
    "StatsCollector",
    "aggregate_transport",
    "latency_percentiles",
    "record_transport_locked",
]


class LatencyReservoir:
    """Bounded, whole-run-representative latency sample (Algorithm R).

    The previous sliding-window ``deque(maxlen=...)`` kept only the *most
    recent* latencies, so an hour-long load run reported percentiles of its
    last few seconds — and sizing the window to cover the run meant memory
    growing with run length.  A uniform reservoir keeps memory capped at
    ``capacity`` samples while every recorded latency has equal probability
    of being in the sample, so the percentiles describe the whole run no
    matter how long it lasts.

    The replacement RNG is seeded, so a replayed run produces an identical
    sample — load-test reports are reproducible bit-for-bit.  Not
    thread-safe on its own: callers (:class:`StatsCollector`, the HTTP
    front end's counter set) already serialize recording under their lock.
    """

    __slots__ = ("_capacity", "_samples", "_rng", "_total")

    def __init__(self, capacity: int = 4096, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._samples: list[float] = []
        self._rng = random.Random(seed)
        self._total = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained samples (the memory bound)."""
        return self._capacity

    @property
    def total(self) -> int:
        """Every latency ever recorded, retained or not."""
        return self._total

    def __len__(self) -> int:
        return len(self._samples)

    def add(self, value: float) -> None:
        """Record one latency; evicts a uniformly random sample when full."""
        self._total += 1
        if len(self._samples) < self._capacity:
            self._samples.append(float(value))
            return
        slot = self._rng.randrange(self._total)
        if slot < self._capacity:
            self._samples[slot] = float(value)

    def snapshot(self) -> tuple:
        """Copy of the current sample (call under the owner's lock)."""
        return tuple(self._samples)


@dataclass(frozen=True)
class ServerStats:
    """Point-in-time snapshot of a :class:`SegmentationServer`'s behavior."""

    mode: str
    num_workers: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    queue_depth: int
    in_flight: int
    batches_dispatched: int
    mean_batch_size: float
    latency: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    transport: dict = field(default_factory=dict)
    #: Live-control-plane snapshot (``config_generation``, per-generation
    #: job counts, last-swap outcome) attached by
    #: :meth:`repro.serving.control.ControlPlane.stats`; empty for a bare
    #: :class:`SegmentationServer`.
    control: dict = field(default_factory=dict)

    @property
    def pending(self) -> int:
        """Jobs admitted but not yet finished (queued + in flight)."""
        return self.submitted - self.completed - self.failed

    def as_dict(self) -> dict:
        """JSON-friendly representation (the ``serving`` block of ``/stats``)."""
        payload = {
            "mode": self.mode,
            "num_workers": self.num_workers,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "batches_dispatched": self.batches_dispatched,
            "mean_batch_size": self.mean_batch_size,
            "latency": dict(self.latency),
            "cache": dict(self.cache),
            "transport": {
                path: dict(entry) for path, entry in self.transport.items()
            },
        }
        if self.control:
            payload["control"] = dict(self.control)
        return payload


def latency_percentiles(latencies, *, total: "int | None" = None) -> dict:
    """Count/mean/p50/p90/p99 summary of a latency sample (seconds).

    Shared between the serving collector and the HTTP front end so both
    report the same latency shape; an empty sample yields all-zero fields
    rather than NaNs.  ``total`` overrides the reported ``count`` when the
    sample is a bounded reservoir standing in for a larger population
    (:class:`LatencyReservoir`): the percentiles come from the sample, the
    count reports every latency the run actually recorded.
    """
    if not latencies:
        return {
            "count": int(total or 0),
            "mean": 0.0,
            "p50": 0.0,
            "p90": 0.0,
            "p99": 0.0,
        }
    values = np.asarray(latencies, dtype=np.float64)
    p50, p90, p99 = np.percentile(values, [50.0, 90.0, 99.0])
    return {
        "count": int(values.size if total is None else total),
        "mean": float(values.mean()),
        "p50": float(p50),
        "p90": float(p90),
        "p99": float(p99),
    }


def aggregate_transport(counters: dict) -> dict:
    """JSON-ready copy of per-path transport counters with derived rates.

    ``counters`` maps a transport path (``"pickle"``, ``"inline"``,
    ``"http-raw"``, ...) to its raw ``images`` / ``bytes_in`` / ``bytes_out``
    totals; the copy adds ``bytes_per_image`` — total bytes moved over that
    path divided by the images that rode it.
    Shared between :class:`StatsCollector` and the HTTP front end's counter
    set so both report the same transport shape.
    """
    report = {}
    for path, entry in counters.items():
        images = int(entry.get("images", 0))
        bytes_in = int(entry.get("bytes_in", 0))
        bytes_out = int(entry.get("bytes_out", 0))
        report[path] = {
            "images": images,
            "bytes_in": bytes_in,
            "bytes_out": bytes_out,
            "bytes_per_image": (
                (bytes_in + bytes_out) / images if images else 0.0
            ),
        }
    return report


def record_transport_locked(
    counters: dict, path: str, *, images: int, bytes_in: int, bytes_out: int
) -> None:
    """Fold one transfer into a per-path counter dict (caller holds the lock).

    The dict layout matches what :func:`aggregate_transport` consumes; both
    the serving collector and the HTTP front end mutate their counters
    through this single definition so the two transport tables cannot
    drift apart.
    """
    entry = counters.setdefault(
        path, {"images": 0, "bytes_in": 0, "bytes_out": 0}
    )
    entry["images"] += int(images)
    entry["bytes_in"] += int(bytes_in)
    entry["bytes_out"] += int(bytes_out)


def _lookups(cache: dict) -> int:
    return int(cache.get("hits", 0)) + int(cache.get("misses", 0))


def _aggregate_cache(snapshots: dict) -> dict:
    totals = {
        "hits": 0,
        "misses": 0,
        "position_grid_builds": 0,
        "evictions": 0,
    }
    for snapshot in snapshots.values():
        for key in totals:
            totals[key] += int(snapshot.get(key, 0))
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    totals["engines"] = len(snapshots)
    return totals


class StatsCollector:
    """Thread-safe counters + latency reservoir + cache snapshot registry.

    ``latency_window`` bounds the *retained* latency sample; recording is
    unbounded-duration safe because the sample is a uniform
    :class:`LatencyReservoir`, not a buffer of every latency (the reported
    ``latency.count`` still counts every finished job).
    """

    def __init__(self, *, latency_window: int = 4096) -> None:
        if latency_window < 1:
            raise ValueError(
                f"latency_window must be positive, got {latency_window}"
            )
        self._lock = threading.Condition()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._batches = 0
        self._batched_jobs = 0
        self._latencies = LatencyReservoir(latency_window)
        self._cache_snapshots: dict = {}
        self._transport: dict = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_submitted(self) -> None:
        """Count one admitted job."""
        with self._lock:
            self._submitted += 1

    def record_retracted(self) -> None:
        """Undo one ``record_submitted`` (the enqueue attempt failed).

        Admission is counted *before* the queue put so that ``wait_idle``
        (and therefore drain/close) can never observe an idle collector
        while an already-enqueued job is still uncounted; a put that then
        bounces or hits a closed queue retracts the count here.
        """
        with self._lock:
            self._submitted -= 1
            self._lock.notify_all()

    def record_rejected(self) -> None:
        """Count one job bounced by backpressure."""
        with self._lock:
            self._rejected += 1

    def record_batch(self, size: int) -> None:
        """Count one dispatched micro-batch of ``size`` jobs."""
        with self._lock:
            self._batches += 1
            self._batched_jobs += size

    def record_completed(
        self, latency_seconds: float, *, cache: dict | None = None, source=None
    ) -> None:
        """Count one success with its latency and cache snapshot."""
        with self._lock:
            self._completed += 1
            self._latencies.add(float(latency_seconds))
            if cache is not None:
                # Results from one engine can land out of order (process
                # mode delivers a worker's jobs on several dispatch
                # threads); its counters only grow, so a snapshot with
                # fewer lookups than the one held is stale: keep the held.
                held = self._cache_snapshots.get(source)
                if held is None or _lookups(cache) >= _lookups(held):
                    self._cache_snapshots[source] = dict(cache)
            self._lock.notify_all()

    def record_transport(
        self, path: str, *, images: int = 1, bytes_in: int = 0, bytes_out: int = 0
    ) -> None:
        """Count bytes moved across a process/transport boundary.

        ``path`` names how the pixels travelled to the worker —
        ``"pickle"`` (the process-pool pipe) or ``"inline"`` (thread mode,
        no boundary at all).  ``bytes_in`` counts serialized input pixel
        bytes and ``bytes_out`` serialized result (label map) bytes.
        """
        with self._lock:
            record_transport_locked(
                self._transport,
                path,
                images=images,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
            )

    def record_failed(self, latency_seconds: float | None = None) -> None:
        """Count one failure (latency recorded when known)."""
        with self._lock:
            self._failed += 1
            if latency_seconds is not None:
                self._latencies.add(float(latency_seconds))
            self._lock.notify_all()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def pending(self) -> int:
        """Admitted jobs not yet completed or failed."""
        with self._lock:
            return self._submitted - self._completed - self._failed

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every admitted job has finished (drain barrier)."""
        with self._lock:
            return self._lock.wait_for(
                lambda: self._submitted == self._completed + self._failed,
                timeout=timeout,
            )

    def snapshot(
        self, *, mode: str, num_workers: int, queue_depth: int
    ) -> ServerStats:
        """Immutable :class:`ServerStats` of the current counters.

        The counter reads and the latency-sample copy happen in **one**
        critical section, so the reported percentiles can never disagree
        with ``completed``/``failed`` mid-update (a worker landing between
        two separate lock acquisitions would bump a counter whose latency
        the sample missed, or vice versa — visible as ``latency.count``
        drifting from the finished-job count under fleet load).
        The O(n log n) percentile math itself runs *outside* the lock on
        the copied sample: a fleet prober polling every replica's
        ``/stats`` each probe round must not stall ``record_completed`` on
        the serving hot path.
        """
        with self._lock:
            submitted = self._submitted
            completed = self._completed
            failed = self._failed
            rejected = self._rejected
            batches = self._batches
            batched_jobs = self._batched_jobs
            latencies = self._latencies.snapshot()
            latency_total = self._latencies.total
            cache_snapshots = {
                source: dict(snapshot)
                for source, snapshot in self._cache_snapshots.items()
            }
            transport = {
                path: dict(entry) for path, entry in self._transport.items()
            }
        pending = submitted - completed - failed
        return ServerStats(
            mode=mode,
            num_workers=num_workers,
            submitted=submitted,
            completed=completed,
            failed=failed,
            rejected=rejected,
            queue_depth=queue_depth,
            in_flight=max(0, pending - queue_depth),
            batches_dispatched=batches,
            mean_batch_size=(batched_jobs / batches if batches else 0.0),
            latency=latency_percentiles(latencies, total=latency_total),
            cache=_aggregate_cache(cache_snapshots),
            transport=aggregate_transport(transport),
        )
