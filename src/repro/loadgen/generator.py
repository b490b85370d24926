"""The load generator: open/closed-loop request drivers + the run report.

Two driving disciplines, one record shape:

* **Open loop** — requests fire at the schedule's arrival times whether or
  not earlier ones finished (the honest model of independent users; a slow
  server faces a growing backlog instead of a conveniently self-throttling
  client).  A dispatcher thread walks the precomputed arrival list and
  hands each request to a bounded worker pool; when all ``concurrency``
  senders are busy the dispatch *timestamp* still honors the schedule and
  the queueing delay shows up in the measured latency — exactly as it
  would for a real user.
* **Closed loop** — ``concurrency`` senders issue back-to-back requests
  for the schedule's duration (each waits for its response before sending
  the next).  This measures the server's saturated throughput rather than
  its behavior at a fixed offered rate.

Every request ends in exactly one :class:`RequestRecord` carrying its
index, shape, timing, and an error-taxonomy verdict (``ok`` /
``rejected`` / ``timeout`` / ``transport`` / ``http_error`` /
``serving_error`` / ``error``).  The :class:`LoadReport` checks the
exactly-once invariant (no lost, no duplicated responses — the chaos
regression gates on this), computes sustained RPS and whole-run
percentiles, integrates SLO-violation seconds from per-second latency
buckets, and folds in the queue-depth timeline a sampler thread polled
from the target's stats while the run was hot.

Targets adapt the three serving front ends to one ``segment(image)`` call:
:class:`ServerTarget` (in-process :class:`SegmentationServer` /
:class:`ControlPlane`), :class:`HttpTarget` (a single-host server *or* the
cluster gateway over the raw-npy framed wire, via
:class:`~repro.serving.cluster.client.ReplicaClient`), and
:class:`CallableTarget` (any function — the unit tests' stub).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.loadgen.schedule import ArrivalSchedule
from repro.loadgen.workload import ShapeMix
from repro.serving.server import ServerClosed, ServerSaturated, ServingError
from repro.serving.stats import latency_percentiles

__all__ = [
    "CallableTarget",
    "HttpTarget",
    "LoadGenerator",
    "LoadReport",
    "RequestRecord",
    "ServerTarget",
    "classify_error",
]


def classify_error(exc: BaseException) -> str:
    """Map an exception to the error-taxonomy bucket it belongs to.

    The buckets separate *whose fault it was*: ``rejected`` is
    backpressure (the server protected itself), ``timeout`` is the
    client's patience, ``transport`` is a connection-level failure (the
    cluster client's :class:`ReplicaUnavailable`), ``http_error`` an
    application-level HTTP status, ``serving_error`` a worker/pool failure
    surfaced through the serving layer, and ``error`` anything else.
    """
    # Imported here lazily-by-name to keep the taxonomy in one place even
    # though the cluster client defines its own exception types.
    from repro.serving.cluster.client import (
        ReplicaHTTPError,
        ReplicaUnavailable,
    )

    if isinstance(exc, ServerSaturated):
        return "rejected"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, ReplicaUnavailable):
        return "transport"
    if isinstance(exc, ReplicaHTTPError):
        return "http_error"
    if isinstance(exc, (ServingError, ServerClosed)):
        return "serving_error"
    return "error"


@dataclass(frozen=True)
class RequestRecord:
    """One request's complete outcome (exactly one per issued request)."""

    index: int
    shape: "tuple[int, int]"
    scheduled_at: float
    sent_at: float
    done_at: float
    status: str
    error: "str | None" = None

    @property
    def latency_seconds(self) -> float:
        """End-to-end wall time from dispatch to outcome."""
        return self.done_at - self.sent_at

    def as_dict(self) -> dict:
        """JSON-ready form (written into the per-run result folder)."""
        return {
            "index": self.index,
            "shape": list(self.shape),
            "scheduled_at": self.scheduled_at,
            "sent_at": self.sent_at,
            "done_at": self.done_at,
            "latency_seconds": self.latency_seconds,
            "status": self.status,
            "error": self.error,
        }


class CallableTarget:
    """Adapt any ``fn(image) -> labels`` to the target protocol."""

    def __init__(self, fn, *, name: str = "callable") -> None:
        self._fn = fn
        self._name = name

    def segment(self, image: np.ndarray):
        """Run the wrapped callable."""
        return self._fn(image)

    def describe(self) -> dict:
        """Target metadata for the report."""
        return {"target": self._name}


class ServerTarget:
    """Drive an in-process server or control plane (submit + wait).

    ``server`` is anything with ``submit(image, block=True) -> handle`` and
    ``stats()`` — a :class:`SegmentationServer` or a
    :class:`~repro.serving.control.ControlPlane` (whose submit transparently
    retries across generation swaps, so autoscaling actuations are invisible
    here).  The target does not own the server's lifecycle.
    """

    def __init__(self, server, *, request_timeout: float = 60.0) -> None:
        self._server = server
        self._request_timeout = float(request_timeout)

    def segment(self, image: np.ndarray):
        """Submit one image and wait for its result."""
        handle = self._server.submit(image, block=True)
        return handle.result(self._request_timeout)

    def stats(self) -> dict:
        """The server's ``ServerStats`` as a serving-shaped dict."""
        return self._server.stats().as_dict()

    def describe(self) -> dict:
        """Target metadata for the report."""
        return {
            "target": "in-process",
            "mode": getattr(self._server, "mode", None),
        }


class HttpTarget:
    """Drive a server or cluster gateway over the raw-npy framed wire.

    Wraps a :class:`~repro.serving.cluster.client.ReplicaClient` (keep-alive
    connection pool sized to the generator's concurrency); ``segment``
    POSTs one image through ``segment_raw`` — octet-stream both ways, the
    zero-copy wire form.  ``stats`` normalizes both stats shapes: a
    single-host server's ``{"serving": ...}`` and the gateway's fleet
    rollup (queue depth is per-replica there and not rolled up, so it
    reports 0; latency comes from the gateway's HTTP percentiles and the
    worker count is the live replica count).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        request_timeout: float = 60.0,
        pool_size: int = 8,
    ) -> None:
        from repro.serving.cluster.client import ReplicaClient

        self._client = ReplicaClient(
            "loadgen",
            host,
            int(port),
            timeout=float(request_timeout),
            pool_size=int(pool_size),
        )

    def segment(self, image: np.ndarray):
        """POST one image over the framed octet-stream wire."""
        return self._client.segment_raw([image])[0]

    def stats(self) -> dict:
        """``GET /stats`` normalized to the serving shape."""
        payload = self._client.get_json("/stats")
        serving = payload.get("serving")
        if serving is not None:
            return dict(serving)
        fleet = payload.get("fleet") or {}
        totals = fleet.get("totals") or {}
        replicas = payload.get("replicas") or {}
        alive = sum(
            1 for entry in replicas.values() if (entry or {}).get("alive")
        )
        http = payload.get("http") or {}
        return {
            "latency": dict(http.get("latency") or {}),
            "queue_depth": 0,
            "completed": int(totals.get("completed", 0)),
            "failed": int(totals.get("failed", 0)),
            "num_workers": alive or len(replicas),
        }

    def get_json(self, path: str) -> dict:
        """Raw JSON GET passthrough (the autoscaler's observe hook)."""
        return self._client.get_json(path)

    def close(self) -> None:
        """Close the underlying connection pool."""
        self._client.close()

    def describe(self) -> dict:
        """Target metadata for the report."""
        return {"target": "http", "address": self._client.address}

    def __enter__(self) -> "HttpTarget":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class LoadReport:
    """Everything one load run produced, with derived summaries."""

    mode: str
    issued: int
    started_at: float
    finished_at: float
    schedule: dict
    mix: dict
    target: dict
    records: "list[RequestRecord]" = field(default_factory=list)
    #: ``(offset_seconds, serving-shaped stats dict)`` sampler timeline.
    samples: "list[tuple[float, dict]]" = field(default_factory=list)

    @property
    def elapsed_seconds(self) -> float:
        """Wall time of the whole run."""
        return max(1e-9, self.finished_at - self.started_at)

    def summary(self, *, slo_p99_seconds: "float | None" = None) -> dict:
        """Roll the records up into the run-summary JSON shape.

        The exactly-once invariant is computed here: ``lost`` counts issued
        requests that never produced a record, ``duplicated`` counts
        indexes that produced more than one — both must be zero in every
        run, chaos or not (an error *outcome* is a response; a missing one
        is a lost request).  With ``slo_p99_seconds``,
        ``slo_violation_seconds`` counts the one-second buckets whose
        bucket p99 (over request *completions*) exceeded the SLO.
        """
        by_status: dict = {}
        for record in self.records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        ok_records = [r for r in self.records if r.status == "ok"]
        ok_latencies = [r.latency_seconds for r in ok_records]
        indexes = [r.index for r in self.records]
        unique = len(set(indexes))
        summary = {
            "mode": self.mode,
            "issued": self.issued,
            "responses": len(self.records),
            "lost": self.issued - unique,
            "duplicated": len(indexes) - unique,
            "by_status": dict(sorted(by_status.items())),
            "error_rate": (
                1.0 - len(ok_records) / len(self.records)
                if self.records
                else 0.0
            ),
            "elapsed_seconds": self.elapsed_seconds,
            "offered_rps": self.issued / self.elapsed_seconds,
            "sustained_rps": len(ok_records) / self.elapsed_seconds,
            "latency": latency_percentiles(ok_latencies),
            "max_queue_depth": max(
                (
                    int(stats.get("queue_depth", 0))
                    for _, stats in self.samples
                ),
                default=0,
            ),
            "schedule": dict(self.schedule),
            "mix": dict(self.mix),
            "target": dict(self.target),
        }
        if slo_p99_seconds is not None:
            summary["slo_p99_seconds"] = float(slo_p99_seconds)
            summary["slo_violation_seconds"] = self._violation_seconds(
                float(slo_p99_seconds)
            )
        return summary

    def _violation_seconds(self, slo: float) -> int:
        """Seconds (1s completion buckets) whose p99 exceeded the SLO."""
        buckets: dict[int, list[float]] = {}
        for record in self.records:
            if record.status != "ok":
                continue
            second = int(record.done_at - self.started_at)
            buckets.setdefault(second, []).append(record.latency_seconds)
        violations = 0
        for latencies in buckets.values():
            if float(np.percentile(latencies, 99.0)) > slo:
                violations += 1
        return violations

    def requests_as_dicts(self) -> list:
        """Per-request JSON rows (the result folder's ``requests.json``)."""
        return [record.as_dict() for record in self.records]


class LoadGenerator:
    """Drive a target with a schedule + shape mix; produce a report.

    Parameters
    ----------
    target:
        A target object (``segment(image)``, optional ``stats()`` /
        ``describe()``) — see the module docstring.
    schedule:
        The :class:`~repro.loadgen.schedule.ArrivalSchedule`.  Open loop
        uses its arrival times; closed loop only its duration.
    mix:
        The :class:`~repro.loadgen.workload.ShapeMix` assigning each
        request its image.
    mode:
        ``"open"`` (schedule-driven dispatch) or ``"closed"``
        (back-to-back senders).
    concurrency:
        Sender threads.  In open loop this bounds simultaneous in-flight
        requests (arrivals beyond it queue in the dispatcher, their wait
        counted in latency); in closed loop it *is* the offered
        concurrency.
    stats_interval:
        Queue-depth sampling period while the run is hot (``0`` disables
        sampling; targets without ``stats()`` are never sampled).
    """

    def __init__(
        self,
        target,
        schedule: ArrivalSchedule,
        mix: ShapeMix,
        *,
        mode: str = "open",
        concurrency: int = 8,
        stats_interval: float = 0.2,
    ) -> None:
        if mode not in ("open", "closed"):
            raise ValueError(
                f"mode must be 'open' or 'closed', got {mode!r}"
            )
        if concurrency < 1:
            raise ValueError(
                f"concurrency must be positive, got {concurrency}"
            )
        self._target = target
        self._schedule = schedule
        self._mix = mix
        self._mode = mode
        self._concurrency = int(concurrency)
        self._stats_interval = float(stats_interval)

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #
    def run(self) -> LoadReport:
        """Execute the schedule against the target; returns the report."""
        records: list[RequestRecord] = []
        records_lock = threading.Lock()
        samples: "list[tuple[float, dict]]" = []
        start = time.perf_counter()
        stop_sampler = threading.Event()
        sampler = self._start_sampler(samples, start, stop_sampler)

        def fire(index: int, scheduled_at: float) -> None:
            image = self._mix.image_for(index)
            sent = time.perf_counter() - start
            try:
                self._target.segment(image)
            except Exception as exc:  # noqa: BLE001 - taxonomy'd per request
                record = RequestRecord(
                    index=index,
                    shape=self._mix.shape_for(index),
                    scheduled_at=scheduled_at,
                    sent_at=sent,
                    done_at=time.perf_counter() - start,
                    status=classify_error(exc),
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                record = RequestRecord(
                    index=index,
                    shape=self._mix.shape_for(index),
                    scheduled_at=scheduled_at,
                    sent_at=sent,
                    done_at=time.perf_counter() - start,
                    status="ok",
                )
            with records_lock:
                records.append(record)

        try:
            if self._mode == "open":
                issued = self._run_open(fire, start)
            else:
                issued = self._run_closed(fire, start)
        finally:
            stop_sampler.set()
            if sampler is not None:
                sampler.join(timeout=10.0)
        finished = time.perf_counter()
        describe = getattr(self._target, "describe", None)
        return LoadReport(
            mode=self._mode,
            issued=issued,
            started_at=start,
            finished_at=finished,
            schedule=self._schedule.describe(),
            mix=self._mix.describe(),
            target=describe() if callable(describe) else {},
            records=records,
            samples=samples,
        )

    def _run_open(self, fire, start: float) -> int:
        """Schedule-driven dispatch through a bounded sender pool."""
        arrivals = self._schedule.arrival_times()
        with ThreadPoolExecutor(
            max_workers=self._concurrency,
            thread_name_prefix="loadgen-send",
        ) as pool:
            futures = []
            for index, offset in enumerate(arrivals):
                delay = offset - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(fire, index, offset))
            for future in futures:
                future.result()
        return len(arrivals)

    def _run_closed(self, fire, start: float) -> int:
        """Back-to-back senders for the schedule's duration."""
        duration = self._schedule.duration
        counter = [0]
        counter_lock = threading.Lock()

        def sender() -> None:
            while True:
                now = time.perf_counter() - start
                if now >= duration:
                    return
                with counter_lock:
                    index = counter[0]
                    counter[0] += 1
                fire(index, now)

        threads = [
            threading.Thread(
                target=sender, name=f"loadgen-closed-{i}", daemon=True
            )
            for i in range(self._concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return counter[0]

    def _start_sampler(
        self,
        samples: list,
        start: float,
        stop: threading.Event,
    ) -> "threading.Thread | None":
        """Poll the target's stats on a side thread (queue-depth timeline)."""
        stats = getattr(self._target, "stats", None)
        if not callable(stats) or self._stats_interval <= 0:
            return None

        def sample_loop() -> None:
            while not stop.wait(self._stats_interval):
                try:
                    snapshot = stats()
                except Exception:  # noqa: BLE001 - sampling must not fail runs
                    continue
                samples.append((time.perf_counter() - start, snapshot))

        thread = threading.Thread(
            target=sample_loop, name="loadgen-sampler", daemon=True
        )
        thread.start()
        return thread
