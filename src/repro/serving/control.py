"""Live control plane: hot reconfiguration of a running segmentation server.

Run-specs are validated and declarative (``repro.api.spec``) but a
:class:`repro.serving.server.SegmentationServer` freezes them at boot —
retuning ``counter_depth``, switching the dense/packed backend, or resizing
the worker pool meant a restart.  :class:`ControlPlane` makes those runtime
operations, modeled on the ConfD config-subscriber pattern (external config
is validated first, then pushed into a running daemon that regenerates its
state): a **generation** is one immutable ``(segmenter spec, ServingOptions)``
pair realised as one fully-built server, and a reconfiguration builds
generation N+1 next to the live generation N, proves it works, and only then
swaps traffic over.

The swap protocol, in order:

1. **Validate** the diff with the existing ``config_from_dict`` /
   ``ServingOptions.with_overrides`` machinery — an unknown or mistyped
   field is rejected **by name** before any pool is built, and the live
   generation is untouched.
2. **Build** generation N+1: a complete new ``SegmentationServer`` (its own
   queue, batcher and worker pool).
3. **Warm** it with a probe image of the most recently served shape, so the
   new generation's encoder-grid cache is hot before real traffic arrives
   (in process mode, the probed worker's cache; each other worker builds
   the shape once on its first request).  A failed or timed-out probe
   **rolls back**: the new server is torn down and generation N keeps
   serving, with the failure recorded in the last-swap outcome.
4. **Swap** the submission target atomically and wait for in-flight
   ``submit`` calls still pointing at generation N to land, so no request
   can fall between the generations.
5. **Drain** generation N — jobs it admitted finish on *its* pool — then
   retire it (one shared close deadline, see ``SegmentationServer.close``).

Callers never see the seam: :meth:`ControlPlane.submit` /
:meth:`segment_batch` / :meth:`map` route each request to the live
generation (retrying the rare submit that races a swap), every result's
workload carries ``config_generation``, and :meth:`stats` reports the
generation number, per-generation job counts, and the last-swap outcome.
:class:`SpecWatcher` is the file-driven front end (``seghdc serve
--watch-spec``): it polls a JSON spec file and pushes changes through the
same :meth:`ControlPlane.reconfigure` path the HTTP ``POST /v1/config``
endpoint uses.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.api.registry import segmenter_entry
from repro.api.spec import ServingOptions, config_from_dict, config_to_dict
from repro.serving.server import (
    JobHandle,
    SegmentationServer,
    ServerClosed,
    ServingError,
    _collect_with_deadline,
    _map_streaming,
)
from repro.serving.stats import ServerStats

__all__ = ["ControlError", "ControlPlane", "GenerationHandle", "SpecWatcher"]

#: Reconfiguration diff keys; anything else is rejected by name.
_DIFF_FIELDS = ("segmenter", "config", "serving")

#: Probe images above this pixel count fall back to a small default shape so
#: a server that last saw a huge frame cannot spuriously time out a warmup.
_MAX_PROBE_PIXELS = 512 * 512

_DEFAULT_PROBE_SHAPE = (32, 32)


class ControlError(ServingError):
    """A control-plane request problem (invalid diff, closed plane, ...)."""


class GenerationHandle:
    """A :class:`JobHandle` wrapper pinned to the generation that served it.

    Behaves like the wrapped handle (``done`` / ``result`` / ``exception``)
    and additionally stamps ``workload["config_generation"]`` on every
    retrieved result, so any consumer — ``segment_batch``, streaming
    ``map``, the HTTP front end's workload echo — can tell which
    configuration produced a given label map.
    """

    __slots__ = ("_inner", "generation")

    def __init__(self, inner: JobHandle, generation: int) -> None:
        self._inner = inner
        self.generation = int(generation)

    @property
    def job_id(self) -> int:
        """The wrapped job's id."""
        return self._inner.job_id

    def done(self) -> bool:
        """Non-blocking poll: has the job finished (successfully or not)?"""
        return self._inner.done()

    def result(self, timeout: float | None = None):
        """The wrapped result, with ``config_generation`` stamped in."""
        result = self._inner.result(timeout)
        result.workload["config_generation"] = self.generation
        return result

    def exception(self, timeout: float | None = None) -> "BaseException | None":
        """The worker's exception (a per-waiter copy) or ``None``."""
        return self._inner.exception(timeout)

    def _on_done(self, callback) -> None:
        """Completion hook, invoked with *this* wrapper (``map`` plumbing)."""
        self._inner._on_done(lambda _finished: callback(self))


def _generation_entry() -> dict:
    """Fresh per-generation counters.

    ``submit_gate`` counts ``submit`` calls currently *inside* the wrapped
    server's submit — the swap waits for it to reach zero after flipping the
    target, so a racing submit can never land on a generation that is
    already draining.
    """
    return {"submitted": 0, "completed": 0, "failed": 0, "submit_gate": 0}


class ControlPlane:
    """Generation-based hot-swap layer over :class:`SegmentationServer`.

    Usage::

        control = ControlPlane({"segmenter": "seghdc"},
                               ServingOptions(mode="thread", num_workers=2))
        handles = [control.submit(image) for image in images]
        control.reconfigure({"config": {"backend": "packed"}})
        # in-flight jobs finish on the old pool; new submits land on the new
        control.close()

    Parameters
    ----------
    segmenter:
        Anything :class:`SegmentationServer` accepts.  Hot *config*
        reconfiguration additionally requires the built segmenter to be
        spec-describable (``describe()``, the pickle-by-spec seam); serving
        topology diffs work for any segmenter.
    options:
        Initial :class:`ServingOptions` (or dict form); ``None`` means the
        defaults.
    drain_timeout:
        Upper bound on retiring an old generation (its ``close(drain=True)``
        deadline).  Jobs still pending past it fail with ``ServerClosed``
        rather than blocking the swap forever.
    warmup_timeout:
        Upper bound on the new generation's warmup probe; an expiry rolls
        the swap back.
    """

    def __init__(
        self,
        segmenter=None,
        options: "ServingOptions | Mapping | None" = None,
        *,
        drain_timeout: float = 60.0,
        warmup_timeout: float = 60.0,
    ) -> None:
        if options is None:
            options = ServingOptions()
        elif isinstance(options, Mapping):
            options = ServingOptions.from_dict(options)
        self._options = options
        self._drain_timeout = float(drain_timeout)
        self._warmup_timeout = float(warmup_timeout)
        self._server = SegmentationServer.from_options(segmenter, options)
        describe = getattr(self._server.segmenter, "describe", None)
        self._spec: "dict | None" = None
        if callable(describe):
            try:
                self._spec = dict(describe())
            except Exception:  # noqa: BLE001 - spec-less segmenters still serve
                self._spec = None
        # Fallback for serving-only diffs when the segmenter cannot be
        # rebuilt from a spec: reuse the instance itself (thread-safe
        # instances only, exactly like SegmentationServer's own contract).
        self._segmenter_fallback = (
            self._server.segmenter if self._spec is None else None
        )
        self._generation = 1
        self._generations: "dict[int, dict]" = {1: _generation_entry()}
        self._last_swap: "dict | None" = None
        self._last_shape: "tuple | None" = None
        self._closed = False
        # _state_cond guards the generation pointer + counters (short
        # critical sections on the request path); _swap_lock serializes the
        # heavyweight reconfigure/close lifecycle operations.
        self._state_cond = threading.Condition()
        self._swap_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def server(self) -> SegmentationServer:
        """The live generation's server (changes across swaps)."""
        with self._state_cond:
            return self._server

    @property
    def generation(self) -> int:
        """The live configuration generation (1 at boot, +1 per swap)."""
        with self._state_cond:
            return self._generation

    @property
    def segmenter(self):
        """The live generation's segmenter."""
        return self.server.segmenter

    @property
    def mode(self) -> str:
        """The live generation's execution mode."""
        return self.server.mode

    @property
    def num_workers(self) -> int:
        """The live generation's worker count."""
        return self.server.num_workers

    @property
    def serving_options(self) -> ServingOptions:
        """The live generation's declarative serving topology."""
        with self._state_cond:
            return self._options

    def describe(self) -> "dict | None":
        """The live generation's segmenter spec (``None`` if undescribable)."""
        with self._state_cond:
            return dict(self._spec) if self._spec is not None else None

    def control_info(self) -> dict:
        """JSON-ready control-plane state for ``/stats`` and ``/healthz``.

        Carries ``config_generation``, per-generation job counts (keyed by
        the generation number as a string, JSON-style), and the last swap
        outcome (``None`` until the first reconfiguration attempt).
        """
        with self._state_cond:
            return {
                "config_generation": self._generation,
                "generations": {
                    str(gen): {
                        key: entry[key]
                        for key in ("submitted", "completed", "failed")
                    }
                    for gen, entry in sorted(self._generations.items())
                },
                "last_swap": (
                    dict(self._last_swap) if self._last_swap else None
                ),
                "serving": self._options.to_dict(),
                "segmenter": (
                    dict(self._spec) if self._spec is not None else None
                ),
            }

    def stats(self) -> ServerStats:
        """The live server's stats with the control snapshot attached."""
        return replace(self.server.stats(), control=self.control_info())

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        image,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> GenerationHandle:
        """Queue one image on the live generation.

        Same contract as :meth:`SegmentationServer.submit` plus the
        generation seam: a submit that races a swap — the target server
        closes between the pointer read and the enqueue — transparently
        retries on the new generation instead of surfacing a spurious
        ``ServerClosed``, so sustained traffic sees zero dropped requests
        across a reconfiguration.
        """
        pixels = getattr(image, "pixels", image)
        shape = getattr(pixels, "shape", None)
        while True:
            with self._state_cond:
                if self._closed:
                    raise ServerClosed("control plane is closed")
                server = self._server
                generation = self._generation
                entry = self._generations[generation]
                entry["submit_gate"] += 1
            try:
                inner = server.submit(image, block=block, timeout=timeout)
            except ServerClosed:
                with self._state_cond:
                    entry["submit_gate"] -= 1
                    self._state_cond.notify_all()
                    if self._closed or self._server is server:
                        raise
                continue  # raced a swap: retry on the new generation
            except BaseException:
                with self._state_cond:
                    entry["submit_gate"] -= 1
                    self._state_cond.notify_all()
                raise
            break
        if shape is not None:
            self._last_shape = tuple(int(n) for n in shape)
        with self._state_cond:
            entry["submit_gate"] -= 1
            entry["submitted"] += 1
            self._state_cond.notify_all()

        def record_finished(handle: JobHandle, generation=generation) -> None:
            with self._state_cond:
                counters = self._generations.get(generation)
                if counters is not None:
                    key = "failed" if handle._error is not None else "completed"
                    counters[key] += 1

        inner._on_done(record_finished)
        return GenerationHandle(inner, generation)

    def segment_batch(
        self,
        images: list,
        *,
        timeout: float | None = None,
    ) -> list:
        """Submit every image and collect results in input order, under one
        shared batch deadline (see ``SegmentationServer.segment_batch``)."""
        handles = [self.submit(image, block=True) for image in images]
        return _collect_with_deadline(handles, timeout)

    def map(
        self,
        images: Iterable,
        *,
        timeout: float | None = None,
    ) -> "Iterator[tuple[int, object]]":
        """Streaming ``(index, result)`` generator over the live generation.

        Same contract as :meth:`SegmentationServer.map`; because each image
        is submitted through :meth:`submit`, a stream that spans a
        reconfiguration simply lands its later images on the new generation
        — already-submitted jobs finish on the old one, and every yielded
        result's ``config_generation`` says which."""
        return _map_streaming(
            lambda image: self.submit(image, block=True),
            self.serving_options.max_queue_depth,
            images,
            timeout,
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the live generation is idle; ``False`` on timeout."""
        return self.server.drain(timeout)

    # ------------------------------------------------------------------ #
    # reconfiguration
    # ------------------------------------------------------------------ #
    def reconfigure(self, diff: Mapping, *, reason: str = "api") -> dict:
        """Apply a validated config/serving diff by generation swap.

        ``diff`` may carry any of ``"segmenter"`` (switch the served
        algorithm), ``"config"`` (overrides merged onto the current config —
        or onto the new segmenter's defaults when the algorithm changes) and
        ``"serving"`` (:class:`ServingOptions` overrides).  Validation
        errors raise :class:`ControlError`/``ValueError`` **naming the
        offending field** and leave the live generation untouched.

        Returns the swap outcome dict (also retrievable via
        :meth:`control_info` as ``last_swap``): ``status`` is ``"swapped"``
        (new generation live, old drained and retired), ``"unchanged"``
        (the diff was a no-op — no pool was built), or ``"rolled_back"``
        (building or warming the new generation failed; the old generation
        keeps serving and ``error`` carries the cause).
        """
        with self._swap_lock:
            if self._closed:
                raise ControlError("control plane is closed")
            started = time.monotonic()
            new_spec, new_options = self._validated_target(diff)
            changed = self._changed_fields(new_spec, new_options)
            if not changed:
                return self._record_outcome(
                    {
                        "status": "unchanged",
                        "generation": self._generation,
                        "changed": [],
                        "reason": reason,
                        "duration_seconds": time.monotonic() - started,
                    }
                )
            return self._build_and_swap(
                new_spec, new_options, changed, reason, started
            )

    def rebuild(self, *, reason: str = "heal") -> dict:
        """Force a generation swap onto the *same* spec and serving options.

        The healing path: a SIGKILLed process-pool worker leaves the
        executor permanently broken (``BrokenProcessPool`` — every
        subsequent batch fails), and :meth:`reconfigure` short-circuits a
        no-op diff, so recovering at the same configuration needs this
        explicit rebuild.  The full swap protocol applies — build, warm
        probe, atomic swap, drain — so jobs still pending on the broken
        generation get their error verdicts while new traffic lands on a
        fresh pool.  The autoscaler calls this when it observes a failure
        spike.
        """
        with self._swap_lock:
            if self._closed:
                raise ControlError("control plane is closed")
            started = time.monotonic()
            new_spec = dict(self._spec) if self._spec is not None else None
            return self._build_and_swap(
                new_spec, self._options, ["rebuild"], reason, started
            )

    def _build_and_swap(
        self,
        new_spec: "dict | None",
        new_options: ServingOptions,
        changed: list,
        reason: str,
        started: float,
    ) -> dict:
        """Build/warm/swap/drain one new generation (caller holds the swap
        lock); shared by :meth:`reconfigure` and :meth:`rebuild`."""
        with self._swap_lock:
            next_generation = self._generation + 1
            try:
                new_server = SegmentationServer.from_options(
                    new_spec if new_spec is not None
                    else self._segmenter_fallback,
                    new_options,
                )
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                return self._record_outcome(
                    {
                        "status": "rolled_back",
                        "stage": "build",
                        "generation": self._generation,
                        "changed": changed,
                        "error": f"{type(exc).__name__}: {exc}",
                        "reason": reason,
                        "duration_seconds": time.monotonic() - started,
                    }
                )
            try:
                self._warm(new_server)
            except Exception as exc:  # noqa: BLE001 - rollback path
                new_server.close(drain=False, timeout=self._drain_timeout)
                return self._record_outcome(
                    {
                        "status": "rolled_back",
                        "stage": "warmup",
                        "generation": self._generation,
                        "changed": changed,
                        "error": f"{type(exc).__name__}: {exc}",
                        "reason": reason,
                        "duration_seconds": time.monotonic() - started,
                    }
                )
            # Atomic swap: new submissions land on generation N+1 from here.
            with self._state_cond:
                old_server = self._server
                old_generation = self._generation
                self._server = new_server
                self._generation = next_generation
                self._spec = new_spec
                self._options = new_options
                self._generations[next_generation] = _generation_entry()
                # Submits that already read the old pointer are still inside
                # old_server.submit; wait for them to land (admitted or
                # bounced) so the drain below covers every accepted job.
                self._state_cond.wait_for(
                    lambda: self._generations[old_generation]["submit_gate"]
                    == 0
                )
            # Retire generation N: admitted jobs run to completion on the
            # old pool (one shared deadline bounds the whole close).
            old_server.close(drain=True, timeout=self._drain_timeout)
            leftover = old_server.stats().pending
            return self._record_outcome(
                {
                    "status": "swapped",
                    "generation": next_generation,
                    "previous_generation": old_generation,
                    "changed": changed,
                    "drained": leftover == 0,
                    "old_generation_pending": leftover,
                    "reason": reason,
                    "duration_seconds": time.monotonic() - started,
                }
            )

    def _validated_target(self, diff: Mapping) -> tuple:
        """Validate ``diff`` against the current state; never mutates it.

        Returns the ``(spec, options)`` the next generation would serve.
        Raises :class:`ControlError` (or ``ValueError`` from the spec
        machinery) naming the offending field on any problem.
        """
        if not isinstance(diff, Mapping):
            raise ControlError(
                f"reconfiguration diff must be a mapping, got "
                f"{type(diff).__name__}"
            )
        unknown = sorted(set(diff) - set(_DIFF_FIELDS))
        if unknown:
            raise ControlError(
                f"unknown reconfiguration field(s) "
                f"{', '.join(repr(k) for k in unknown)}; expected one of: "
                f"{', '.join(_DIFF_FIELDS)}"
            )
        serving_diff = diff.get("serving") or {}
        if not isinstance(serving_diff, Mapping):
            raise ControlError(
                f"field 'serving' must be a mapping of ServingOptions "
                f"overrides, got {serving_diff!r}"
            )
        new_options = self._options.with_overrides(**dict(serving_diff))
        if "segmenter" not in diff and "config" not in diff:
            return (
                dict(self._spec) if self._spec is not None else None,
                new_options,
            )
        if self._spec is None:
            raise ControlError(
                "the served segmenter instance is not spec-describable; "
                "only 'serving' topology can be reconfigured at runtime"
            )
        entry = segmenter_entry(diff.get("segmenter", self._spec["segmenter"]))
        config_diff = diff.get("config") or {}
        if not isinstance(config_diff, Mapping):
            raise ControlError(
                f"field 'config' must be a mapping of "
                f"{entry.config_cls.__name__} overrides, got {config_diff!r}"
            )
        same_segmenter = entry.name == self._spec["segmenter"]
        base = dict(self._spec.get("config") or {}) if same_segmenter else {}
        merged = {**base, **dict(config_diff)}
        parsed = config_from_dict(entry.config_cls, merged)
        new_spec = {"segmenter": entry.name, "config": config_to_dict(parsed)}
        return new_spec, new_options

    def _changed_fields(self, new_spec, new_options) -> list:
        """Human-readable names of everything the diff actually changes."""
        changed = []
        old_spec = self._spec or {}
        spec = new_spec or {}
        if spec.get("segmenter") != old_spec.get("segmenter"):
            changed.append("segmenter")
        old_config = old_spec.get("config") or {}
        new_config = spec.get("config") or {}
        for key in sorted(set(old_config) | set(new_config)):
            if old_config.get(key) != new_config.get(key):
                changed.append(f"config.{key}")
        old_serving = self._options.to_dict()
        new_serving = new_options.to_dict()
        for key in sorted(old_serving):
            if old_serving[key] != new_serving[key]:
                changed.append(f"serving.{key}")
        return changed

    def _probe_image(self) -> np.ndarray:
        """A deterministic warmup image in the most recently served shape.

        Warming the last-seen shape means the new generation's encoder-grid
        cache (in process mode, the probed worker's) is hot for the traffic
        that is actually flowing; a gradient pattern
        keeps the clustering non-degenerate.  Shapes beyond
        :data:`_MAX_PROBE_PIXELS` fall back to a small default so a huge
        last frame cannot spuriously time the warmup out.
        """
        shape = self._last_shape or _DEFAULT_PROBE_SHAPE
        if shape[0] * shape[1] > _MAX_PROBE_PIXELS:
            shape = _DEFAULT_PROBE_SHAPE + shape[2:]
        height, width = shape[0], shape[1]
        probe = (
            (np.add.outer(np.arange(height), np.arange(width)) * 7) % 236 + 10
        ).astype(np.uint8)
        if len(shape) == 3:
            probe = np.repeat(probe[:, :, None], shape[2], axis=2)
        return probe

    def _warm(self, server: SegmentationServer) -> None:
        """Run the warmup probe through a candidate generation.

        Submitting a real image exercises the whole path — queue, batcher,
        worker pool (process-mode initializers included), engine, shared
        grid cache — so a generation that cannot serve fails *here*, before
        any traffic is swapped onto it."""
        handle = server.submit(self._probe_image(), block=True)
        result = handle.result(self._warmup_timeout)
        if result.labels.size == 0:
            raise ControlError("warmup probe returned an empty label map")

    def _record_outcome(self, outcome: dict) -> dict:
        with self._state_cond:
            self._last_swap = dict(outcome)
        return dict(outcome)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ControlPlane":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(
        self, *, drain: bool = True, timeout: float | None = None
    ) -> None:
        """Close the live generation (same contract as the server's close).

        Serializes against in-flight reconfigurations: a swap that already
        started completes (or rolls back) first, then its surviving
        generation is closed.  Idempotent.
        """
        with self._swap_lock:
            with self._state_cond:
                if self._closed:
                    return
                self._closed = True
                server = self._server
            server.close(drain=drain, timeout=timeout)


class SpecWatcher:
    """Poll a JSON spec file and push changes into a :class:`ControlPlane`.

    The file-driven half of the control plane (the ConfD *subscriber*
    shape): an operator edits a spec file, the watcher notices the content
    change on its next poll, extracts the ``segmenter`` / ``config`` /
    ``serving`` fields (RunSpec-only fields — ``dataset``, ``num_images``,
    ``image_shape``, ``seed``, ``output`` — are ignored so a full run-spec
    file can be watched verbatim), and applies them through
    :meth:`ControlPlane.reconfigure`.  A file that fails to parse or
    validate reports an ``"invalid"`` outcome through ``on_outcome`` and
    the live generation keeps serving — the watcher never crashes the
    server.

    The file's content *at watcher start* is the baseline: only subsequent
    changes trigger a reconfiguration (the boot configuration came from the
    CLI flags / initial spec, re-applying it would be a no-op swap attempt).
    """

    #: RunSpec fields that do not affect serving; ignored so a watched file
    #: may be a complete run-spec document.
    _IGNORED_FIELDS = frozenset(
        {"dataset", "num_images", "image_shape", "seed", "output"}
    )

    def __init__(
        self,
        control: ControlPlane,
        path: "str | Path",
        *,
        interval: float = 2.0,
        on_outcome=None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._control = control
        self._path = Path(path)
        self._interval = float(interval)
        self._on_outcome = on_outcome
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._last_content = self._read_content()

    def _read_content(self) -> "bytes | None":
        try:
            return self._path.read_bytes()
        except OSError:
            return None

    def poll_once(self) -> "dict | None":
        """Check the file once; apply it if its content changed.

        Returns the reconfiguration outcome dict, an ``{"status":
        "invalid", ...}`` dict for unreadable/unparseable/rejected content,
        or ``None`` when the file is unchanged (or still absent).  Public so
        tests — and callers that want edge-triggered application without the
        polling thread — can drive the watcher deterministically.
        """
        content = self._read_content()
        if content is None or content == self._last_content:
            return None
        self._last_content = content
        try:
            document = json.loads(content.decode("utf-8"))
            if not isinstance(document, Mapping):
                raise ValueError(
                    f"spec file must hold a JSON object, got "
                    f"{type(document).__name__}"
                )
        except (UnicodeDecodeError, ValueError) as exc:
            return self._report(
                {"status": "invalid", "path": str(self._path), "error": str(exc)}
            )
        diff = {
            key: value
            for key, value in document.items()
            if key not in self._IGNORED_FIELDS
        }
        try:
            outcome = self._control.reconfigure(
                diff, reason=f"watch-spec:{self._path.name}"
            )
        except (ControlError, ValueError) as exc:
            outcome = {
                "status": "invalid",
                "path": str(self._path),
                "error": str(exc),
            }
        return self._report(outcome)

    def _report(self, outcome: dict) -> dict:
        if self._on_outcome is not None:
            try:
                self._on_outcome(outcome)
            except Exception:  # noqa: BLE001 - a log hook must not kill polls
                pass
        return outcome

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 - keep polling; see class doc
                pass

    def start(self) -> "SpecWatcher":
        """Start the polling thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="seghdc-spec-watcher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the polling thread and wait for it to exit."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(5.0, 2 * self._interval))
            self._thread = None

    def __enter__(self) -> "SpecWatcher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
