"""Concurrent segmentation serving over any registered :class:`Segmenter`.

:class:`SegmentationServer` turns a segmenter into a long-lived service:
callers submit images and get :class:`JobHandle` futures back, a bounded
queue applies backpressure, a shape-aware micro-batcher groups same-shape
requests so every worker hits the engine's cached encoder grid (for
segmenters that cache by shape, like SegHDC), and a stats collector
aggregates queue depth, end-to-end latency percentiles, and cache hit rates
from the result workloads.

The server is algorithm-agnostic: the first argument can be a
``SegHDCConfig`` (served by a :class:`SegHDCEngine`), a registered
segmenter name or spec dict (``{"segmenter": "cnn_baseline", "config":
{...}}``), or any :class:`repro.api.Segmenter` instance.  SegHDC and the
CNN baseline go through the exact same submit/poll, ``segment_batch``, and
``map`` paths.

Two execution modes share the queueing/batching front end:

* ``mode="thread"`` — N worker threads call **one shared segmenter**.  For
  SegHDC the engine's LRU cache is lock-protected and the numpy kernels
  (XOR binds, the assignment matmul, popcounts) release the GIL, so
  same-machine threads overlap on multi-core hosts with zero serialization
  cost for the grids.  A user-supplied segmenter instance must be
  thread-safe in this mode.
* ``mode="process"`` — micro-batches are shipped to a
  ``ProcessPoolExecutor`` whose initializer builds **one segmenter per
  worker process** from the spec dict (``segmenter.describe()`` →
  ``make_segmenter``), the pickle-by-spec seam of the API.  Results are
  pickled back and per-process cache counters are aggregated through the
  ``workload["cache"]`` snapshots.  This mode sidesteps the GIL entirely;
  input pixels are pickled through the pool pipe and only the label maps
  come back.  Each result's ``workload["serving_transport"]`` records the
  path it rode (``"pickle"`` here, ``"inline"`` in thread mode), and the
  stats snapshot aggregates bytes moved per path.

Process workers share nothing but the spec: each worker's segmenter builds
every image shape's encoder grid once in its own LRU, exactly like the
thread-mode engine, so a pool of N workers reports at most N
``position_grid_builds`` per shape in the aggregated stats.

Ordering: results are delivered per job through its handle, so callers that
need input order simply keep their handles in order
(:meth:`SegmentationServer.segment_batch` does exactly that), or use the
``(index, result)`` pairs :meth:`SegmentationServer.map` yields.  The
dispatch order itself is *not* strictly FIFO — same-shape jobs may overtake
older jobs of a different shape, see
:class:`repro.serving.batcher.ShapeBatcher`.
"""

from __future__ import annotations

import copy as copy_module
import importlib
import os
import queue as queue_module
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.api.protocol import Segmenter
from repro.api.registry import make_segmenter, segmenter_entry
from repro.api.result import SegmentationResult, normalize_image
from repro.api.spec import ServingOptions
from repro.imaging.image import Image
from repro.seghdc.config import SegHDCConfig
from repro.seghdc.engine import SegHDCEngine
from repro.serving.batcher import ShapeBatcher
from repro.serving.jobqueue import BoundedJobQueue
from repro.serving.stats import ServerStats, StatsCollector

__all__ = [
    "JobHandle",
    "SegmentationServer",
    "ServerClosed",
    "ServerSaturated",
    "ServingError",
]

_MODES = ("thread", "process")


class ServingError(RuntimeError):
    """Base class for serving-layer errors."""


class ServerSaturated(ServingError):
    """The bounded queue is full and the submit was not allowed to wait."""


class ServerClosed(ServingError):
    """The server no longer accepts work (or was closed before a job ran)."""


class JobHandle:
    """Future-like handle for one submitted image."""

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        self._event = threading.Event()
        self._result: SegmentationResult | None = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        self._callback_lock = threading.Lock()

    def done(self) -> bool:
        """Non-blocking poll: has the job finished (successfully or not)?"""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> SegmentationResult:
        """Block for the segmentation result; re-raises worker exceptions.

        The raise is a **per-waiter copy** of the worker's exception: a
        raised exception object accumulates traceback frames, so handing the
        same object to every concurrent waiter would let their tracebacks
        accrete across threads.  Each waiter gets its own copy (falling back
        to a :class:`ServingError` chained to the original for exceptions
        that refuse to copy), with the worker-side traceback preserved.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(f"job {self.job_id} not done after {timeout}s")
        if self._error is not None:
            raise self._copied_error()
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> "BaseException | None":
        """The worker's exception (a per-waiter copy) or ``None`` on success.

        Blocks like :meth:`result`; raises ``TimeoutError`` when the job is
        not done within ``timeout``.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(f"job {self.job_id} not done after {timeout}s")
        if self._error is None:
            return None
        return self._copied_error()

    def _copied_error(self) -> BaseException:
        """A fresh exception object per caller (see :meth:`result`)."""
        error = self._error
        assert error is not None
        try:
            clone = copy_module.copy(error)
        except Exception:  # noqa: BLE001 - uncopyable exception
            clone = None
        if type(clone) is not type(error):
            # copy() round-trips through __reduce__, which can build a
            # different (or no) object for exotic exceptions; chain a fresh
            # wrapper instead of sharing the original mutable object.
            wrapper = ServingError(f"job {self.job_id} failed: {error!r}")
            wrapper.__cause__ = error
            return wrapper
        # copy() rebuilds from args/__dict__ only: carry the dunder context
        # over so the copy raises exactly like the original would have.
        clone.__cause__ = error.__cause__
        clone.__context__ = error.__context__
        clone.__suppress_context__ = error.__suppress_context__
        clone.__traceback__ = error.__traceback__
        return clone

    def _on_done(self, callback) -> None:
        """Run ``callback(handle)`` once the job finishes (immediately if it
        already has).  Internal plumbing for :meth:`SegmentationServer.map`."""
        with self._callback_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _fire_callbacks(self) -> None:
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _set_result(self, result: SegmentationResult) -> None:
        self._result = result
        self._event.set()
        self._fire_callbacks()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()
        self._fire_callbacks()


@dataclass
class _Job:
    """One queued segmentation request."""

    job_id: int
    pixels: np.ndarray
    shape_key: tuple
    submitted_at: float
    handle: JobHandle = field(repr=False, default=None)  # type: ignore[assignment]


def _collect_with_deadline(handles: list, timeout: "float | None") -> list:
    """Collect every handle's result under ONE shared deadline.

    The batch-level ``timeout`` means what it says: each successive wait
    gets only the time remaining on a single monotonic deadline, instead of
    restarting the clock per handle (which silently stretched the total
    wait to ``N x timeout``).  Shared by :meth:`SegmentationServer.
    segment_batch` and the control plane's batch path.
    """
    deadline = None if timeout is None else time.monotonic() + max(0.0, timeout)
    results = []
    for handle in handles:
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        results.append(handle.result(remaining))
    return results


def _map_streaming(submit, max_in_flight: int, images, timeout: "float | None"):
    """Generator behind :meth:`SegmentationServer.map` (and the control
    plane's generation-aware ``map``).

    ``submit`` is any callable returning a handle with ``_on_done`` /
    ``result`` (a :class:`JobHandle` or the control plane's generation
    wrapper); everything else — the feeder thread, completion-order yields,
    producer-aware timeout, consumer-side in-flight bound — is identical for
    every front end, so it lives here once.  See
    :meth:`SegmentationServer.map` for the full behavioral contract.
    """
    done: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
    feed_error: list[BaseException] = []
    stop = threading.Event()
    _SUBMITTED = object()  # sentinel carrying the final submit count
    # Consumer-side backpressure: one slot per in-flight job, returned
    # when the consumer takes the result at the yield point.
    in_flight = threading.Semaphore(max_in_flight)

    submitted = [0]  # feeder-side submit count, read by the consumer

    def feed() -> None:
        count = 0
        try:
            for index, image in enumerate(images):
                while not in_flight.acquire(timeout=0.1):
                    if stop.is_set():
                        return  # the finally still reports the count
                if stop.is_set():
                    break
                handle = submit(image)
                handle._on_done(
                    lambda finished, i=index: done.put((i, finished))
                )
                count += 1
                submitted[0] = count
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            feed_error.append(exc)
        finally:
            done.put((_SUBMITTED, count))

    feeder = threading.Thread(target=feed, name="seghdc-map-feeder", daemon=True)
    feeder.start()
    yielded = 0
    expected: "int | None" = None
    try:
        while expected is None or yielded < expected:
            waited = 0.0
            while True:
                poll = None if timeout is None else min(timeout, 0.1)
                try:
                    index, payload = done.get(timeout=poll)
                    break
                except queue_module.Empty:
                    pending = (
                        expected if expected is not None else submitted[0]
                    ) - yielded
                    if pending <= 0:
                        # Idle: waiting on the producer, not the server
                        # — the timeout clock does not run.
                        waited = 0.0
                        continue
                    waited += poll
                    if waited >= timeout:
                        raise TimeoutError(
                            f"map: no result within {timeout}s with "
                            f"{pending} job(s) in flight "
                            f"({yielded} yielded so far)"
                        ) from None
            if index is _SUBMITTED:
                expected = payload
                continue
            yielded += 1
            in_flight.release()
            yield index, payload.result(0)
    finally:
        stop.set()
    if feed_error:
        raise feed_error[0]


# ---------------------------------------------------------------------- #
# process-mode worker side (module level so it pickles by reference)
# ---------------------------------------------------------------------- #
_PROCESS_SEGMENTER: Segmenter | None = None


def _provider_module(spec: Mapping) -> "str | None":
    """The module whose import registers the spec's segmenter, if shippable.

    Under the ``spawn`` start method a worker process starts with a fresh
    registry that only self-imports the built-ins, so a third-party
    segmenter's registering module must be re-imported in the child before
    ``make_segmenter`` can resolve the spec.  ``__main__`` is not a stable
    import target across process boundaries, so it is omitted (fork-based
    pools inherit the parent's registry anyway).
    """
    try:
        module = segmenter_entry(spec["segmenter"]).factory.__module__
    except Exception:
        return None
    return None if module == "__main__" else module


def _init_process_worker(spec: dict, provider_module: "str | None" = None) -> None:
    """Pool initializer: one segmenter per worker process, built by spec.

    The spec dict is what ``segmenter.describe()`` returned on the server
    side — the registry rebuilds an equivalent cold segmenter, so heavy
    state (cached grids, locks) never crosses the process boundary.
    ``provider_module`` is imported first so segmenters that self-register
    at import time (the registry convention) resolve even when the worker
    did not inherit the parent's registry (spawn start method).
    """
    global _PROCESS_SEGMENTER
    if provider_module:
        importlib.import_module(provider_module)
    _PROCESS_SEGMENTER = make_segmenter(spec)


def _run_process_microbatch(batch: "list[np.ndarray]") -> list:
    """Segment one micro-batch of pixel arrays inside a worker process.

    Returns one ``("ok", result)`` or ``("error", exception)`` entry per image, so a
    single bad image fails its own job instead of the batch.  The worker's
    pid is stamped into the workload so the collector can keep one cache
    snapshot per process.
    """
    assert _PROCESS_SEGMENTER is not None, "pool initializer did not run"
    entries: list = []
    for pixels in batch:
        try:
            result = _PROCESS_SEGMENTER.segment(pixels)
            result.workload["serving_worker"] = os.getpid()
            entries.append(("ok", result))
        except Exception as exc:  # noqa: BLE001 - shipped back to the caller
            entries.append(("error", exc))
    return entries


class SegmentationServer:
    """Worker pool + bounded queue + micro-batcher over any segmenter.

    Usage::

        with SegmentationServer(config, mode="thread", num_workers=4) as server:
            handles = [server.submit(image) for image in images]
            labels = [handle.result().labels for handle in handles]
            server.stats().latency["p99"]

        # any registered segmenter, same paths
        with SegmentationServer({"segmenter": "cnn_baseline"}) as server:
            for index, result in server.map(stream_of_images):
                ...

    Parameters
    ----------
    segmenter:
        What to serve: a :class:`SegHDCConfig` (the server builds a
        :class:`SegHDCEngine` from it), a registered segmenter name or spec
        dict (built through :func:`repro.api.make_segmenter`), or a ready
        :class:`repro.api.Segmenter` instance (which must be thread-safe in
        thread mode and spec-picklable — ``describe()`` — in process mode).
        ``None`` serves a default-config :class:`SegHDCEngine`.
    mode:
        ``"thread"`` (shared engine, GIL-releasing kernels) or ``"process"``
        (one engine per worker process; see the module docstring).
    num_workers:
        Worker threads (thread mode) or worker processes (process mode).
    max_queue_depth:
        Backpressure bound: ``submit`` blocks — or fails with
        :class:`ServerSaturated` when ``block=False`` — while this many jobs
        are already queued.
    max_batch_size:
        Upper bound on a shape-aware micro-batch.  A micro-batch occupies
        one worker, so a batch limit at or above the queue depth can funnel
        an entire same-shape burst into a single worker; keep it small
        (1-2) when worker parallelism matters more than batching — in
        thread mode the shared engine cache makes batching redundant, it
        only amortises queue-pop overhead.  Process mode is where larger
        batches pay: each worker process amortises its own grid build over
        the run it receives.
    latency_window:
        Number of most-recent end-to-end latencies kept for percentiles.
    """

    def __init__(
        self,
        segmenter: "Segmenter | SegHDCConfig | Mapping | str | None" = None,
        *,
        mode: str = "thread",
        num_workers: int = 2,
        max_queue_depth: int = 64,
        max_batch_size: int = 8,
        latency_window: int = 4096,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.mode = mode
        self.num_workers = int(num_workers)
        self._segmenter = self._resolve_segmenter(segmenter)
        self._collector = StatsCollector(latency_window=latency_window)
        self._queue = BoundedJobQueue(max_queue_depth, ShapeBatcher(max_batch_size))
        self._closed = False
        self._close_lock = threading.Lock()
        self._next_job_id = 0
        self._id_lock = threading.Lock()

        self._pool: ProcessPoolExecutor | None = None
        if mode == "process":
            spec = self._segmenter.describe()
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=_init_process_worker,
                initargs=(spec, _provider_module(spec)),
            )
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"seghdc-serve-{index}",
                daemon=True,
            )
            for index in range(self.num_workers)
        ]
        for worker in self._workers:
            worker.start()

    @classmethod
    def from_options(
        cls,
        segmenter: "Segmenter | SegHDCConfig | Mapping | str | None" = None,
        options: "ServingOptions | Mapping | None" = None,
    ) -> "SegmentationServer":
        """Build a server from declarative :class:`ServingOptions` (the form
        a :class:`repro.api.RunSpec` carries)."""
        if options is None:
            options = ServingOptions()
        elif isinstance(options, Mapping):
            options = ServingOptions.from_dict(options)
        return cls(segmenter, **options.server_kwargs())

    @staticmethod
    def _resolve_segmenter(segmenter) -> Segmenter:
        if segmenter is None or isinstance(segmenter, SegHDCConfig):
            return SegHDCEngine(segmenter)
        if isinstance(segmenter, (str, Mapping)):
            return make_segmenter(segmenter)
        if isinstance(segmenter, Segmenter):
            return segmenter
        raise TypeError(
            "segmenter must be a SegHDCConfig, a registered name/spec dict, "
            f"or a Segmenter instance, got {type(segmenter).__name__}"
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def segmenter(self) -> Segmenter:
        """The served segmenter (in process mode: the template whose spec
        seeded the worker processes)."""
        return self._segmenter

    @property
    def config(self):
        """The segmenter's config, when it exposes one."""
        return getattr(self._segmenter, "config", None)

    @property
    def engine(self) -> "SegHDCEngine | None":
        """The served segmenter when it is a :class:`SegHDCEngine` in thread
        mode (its cache counters are live); ``None`` otherwise."""
        if self.mode == "thread" and isinstance(self._segmenter, SegHDCEngine):
            return self._segmenter
        return None

    def __enter__(self) -> "SegmentationServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work; optionally wait for admitted jobs to finish.

        With ``drain=False`` (or on error exit from a ``with`` block), jobs
        still sitting in the queue fail with :class:`ServerClosed`; jobs
        already picked up by a worker run to completion either way.
        Idempotent.

        ``timeout`` bounds the **whole** close: one monotonic deadline is
        computed up front and every internal wait (the drain barrier, each
        worker join) gets only the time remaining, so a close can never
        block for ``(1 + num_workers) x timeout`` the way reusing the raw
        timeout per wait would.
        """
        deadline = (
            None if timeout is None else time.monotonic() + max(0.0, timeout)
        )

        def remaining() -> "float | None":
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self._collector.wait_idle(remaining())
        leftovers = self._queue.close()
        for job in leftovers:
            job.handle._set_error(
                ServerClosed(f"server closed before job {job.job_id} ran")
            )
            self._collector.record_failed()
        for worker in self._workers:
            worker.join(remaining())
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        image: "Image | np.ndarray",
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> JobHandle:
        """Queue one image; returns a handle to poll or wait on.

        Backpressure: when the queue is at ``max_queue_depth``, a blocking
        submit waits for a slot (up to ``timeout``) and a non-blocking one
        raises :class:`ServerSaturated` immediately.  Images are validated
        here so shape errors surface in the caller, not inside a worker.
        """
        if self._closed:
            raise ServerClosed("server is closed")
        pixels, shape_key = normalize_image(image)
        with self._id_lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        handle = JobHandle(job_id)
        job = _Job(
            job_id=job_id,
            pixels=pixels,
            shape_key=shape_key,
            submitted_at=time.perf_counter(),
            handle=handle,
        )
        # Count the admission before the enqueue: drain/close wait on the
        # collector, so an enqueued-but-uncounted job would let close()
        # declare the server idle and fail a successfully submitted job.
        # A put that bounces retracts the count.
        self._collector.record_submitted()
        try:
            admitted = self._queue.put(job, block=block, timeout=timeout)
        except RuntimeError:
            self._collector.record_retracted()
            raise ServerClosed("server is closed") from None
        if not admitted:
            self._collector.record_retracted()
            self._collector.record_rejected()
            raise ServerSaturated(
                f"queue full ({self._queue.max_depth} pending jobs)"
            )
        return handle

    def segment_batch(
        self,
        images: "list[Image | np.ndarray]",
        *,
        timeout: float | None = None,
    ) -> list[SegmentationResult]:
        """Submit every image (blocking on backpressure) and collect results
        in input order — a drop-in, concurrent ``engine.segment_batch``.

        ``timeout`` bounds the whole batch, not each handle: the waits share
        one monotonic deadline, so ``segment_batch(images, timeout=2.0)``
        raises ``TimeoutError`` about two seconds in even when every handle
        keeps finishing *just* inside a per-handle window (the old
        ``N x timeout`` accounting bug).
        """
        handles = [self.submit(image, block=True) for image in images]
        return _collect_with_deadline(handles, timeout)

    def map(
        self,
        images: "Iterable[Image | np.ndarray]",
        *,
        timeout: float | None = None,
    ) -> "Iterator[tuple[int, SegmentationResult]]":
        """Streaming generator: submit as you iterate, yield as they finish.

        ``images`` may be any (possibly lazy/unbounded-producer) iterable; a
        feeder thread pulls from it and submits with blocking backpressure,
        while the generator yields ``(index, result)`` pairs **in completion
        order** — a fast small image overtakes a slow large one, and the
        caller starts consuming results while later images are still being
        submitted.  ``index`` is the image's position in the input.

        ``timeout`` bounds the wait for *each next* completion, counted
        only while at least one job is in flight — time spent idle because
        a lazy producer has not yielded the next image does not run the
        clock, so a slow camera feed cannot spuriously time out a healthy
        server.  A failed job re-raises its error at the yield point; an
        error while pulling from ``images`` (or submitting, e.g. the server
        closing) is raised after the already-submitted jobs have been
        yielded.  Closing or
        abandoning the generator early (``break``, ``close()``, an
        exception in the loop body) stops the feeder before its next
        submit, so an unbounded producer does not keep occupying the
        server; jobs already submitted still run to completion.

        Backpressure works in both directions: submission blocks on the
        server's ``max_queue_depth``, and the feeder also caps jobs
        *in flight* (submitted but not yet yielded) at ``max_queue_depth``,
        so a consumer slower than the workers stalls submission instead of
        letting finished results pile up without bound.
        """
        return _map_streaming(
            lambda image: self.submit(image, block=True),
            self._queue.max_depth,
            images,
            timeout,
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted job has finished; ``False`` on timeout."""
        return self._collector.wait_idle(timeout)

    def worker_pids(self) -> list[int]:
        """OS pids of the live worker processes (process mode only).

        Thread mode has no worker processes and returns ``[]``.  The
        executor spawns workers lazily, so the list is empty until the
        first batch has been dispatched.  This is the chaos-injection seam:
        the load harness SIGKILLs a pid from here to prove that a broken
        pool fails its in-flight jobs loudly (``ServingError``, never a
        silent drop) and that a control-plane rebuild restores service.
        """
        if self._pool is None:
            return []
        processes = getattr(self._pool, "_processes", None) or {}
        return sorted(int(pid) for pid in processes)

    def stats(self) -> ServerStats:
        """Snapshot of counters, queue depth, latency percentiles, cache."""
        stats = self._collector.snapshot(
            mode=self.mode,
            num_workers=self.num_workers,
            queue_depth=self._queue.depth(),
        )
        engine = self.engine
        if engine is not None:
            # Thread mode with a shared SegHDCEngine: its counters are
            # authoritative and current even before the first result lands.
            cache = dict(engine.cache_info())
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
            cache["engines"] = 1
            stats = replace(stats, cache=cache)
        return stats

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.take_batch()
            if batch is None:
                return
            if not batch:
                continue
            self._collector.record_batch(len(batch))
            if self.mode == "thread":
                self._run_batch_threaded(batch)
            else:
                self._run_batch_process(batch)

    def _run_batch_threaded(self, batch: "list[_Job]") -> None:
        for job in batch:
            try:
                result = self._segmenter.segment(job.pixels)
            except Exception as exc:  # noqa: BLE001 - delivered via handle
                self._collector.record_failed(
                    time.perf_counter() - job.submitted_at
                )
                job.handle._set_error(exc)
            else:
                # Thread mode crosses no process boundary: zero serialized
                # bytes either way, recorded so the transport table still
                # shows where every image travelled.
                result.workload["serving_transport"] = "inline"
                self._collector.record_transport("inline")
                self._finish(job, result, source="shared-engine")

    def _run_batch_process(self, batch: "list[_Job]") -> None:
        assert self._pool is not None
        try:
            entries = self._pool.submit(
                _run_process_microbatch, [job.pixels for job in batch]
            ).result()
        except Exception as exc:  # noqa: BLE001 - pool-level failure
            for job in batch:
                self._collector.record_failed(time.perf_counter() - job.submitted_at)
                job.handle._set_error(ServingError(f"worker pool failed: {exc!r}"))
            return
        for job, (status, payload) in zip(batch, entries):
            bytes_in = int(job.pixels.nbytes)
            if status == "ok":
                payload.workload["serving_transport"] = "pickle"
                self._collector.record_transport(
                    "pickle", bytes_in=bytes_in, bytes_out=int(payload.labels.nbytes)
                )
                self._finish(
                    job, payload, source=payload.workload.get("serving_worker")
                )
            else:
                self._collector.record_transport("pickle", bytes_in=bytes_in)
                self._collector.record_failed(time.perf_counter() - job.submitted_at)
                job.handle._set_error(payload)

    def _finish(self, job: "_Job", result: SegmentationResult, *, source) -> None:
        latency = time.perf_counter() - job.submitted_at
        result.workload["serving_latency_seconds"] = latency
        self._collector.record_completed(
            latency, cache=result.workload.get("cache"), source=source
        )
        job.handle._set_result(result)
