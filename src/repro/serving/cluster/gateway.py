"""Shape-affinity HTTP gateway over a fleet of segmentation replicas.

:class:`ClusterGateway` is the fleet's single front door.  It re-exposes the
single-host wire surface — ``POST /v1/segment`` (raw ``.npy`` / SHDC
frame octet-stream or nested-list JSON bodies), ``POST /v1/segment-stream``,
``GET /healthz``, ``GET /stats`` — and fans the work across N
:class:`~repro.serving.http.SegmentationHTTPServer` replicas:

* **Routing** is shape-affine: each request's images are grouped by
  ``(H, W, C)`` and every group is sent to the replica the consistent-hash
  ring (:mod:`repro.serving.cluster.ring`) assigns that shape, so each
  replica's per-shape grid cache stays hot and the fleet builds each shape's
  position grid exactly once.
* **Failover** is bounded and exactly-once: a transport failure
  (:class:`~repro.serving.cluster.client.ReplicaUnavailable`) moves the
  *undelivered* images of the group to the next distinct ring node, never
  re-sending frames the client already received; after ``max_attempts``
  distinct replicas the remaining images fail loudly (503 for the batch
  endpoint, error frames for the stream).
* **Health** drives membership: a background
  :class:`~repro.serving.cluster.health.HealthProber` polls every replica's
  ``/healthz`` + ``/stats`` and flips ring membership through hysteresis, so
  a dead replica stops receiving traffic within one probe interval and a
  recovered one earns its arcs back.

The gateway reuses the single-host front end's request decoding
(:func:`repro.serving.http.decode_segment_request`), response encoding
(:func:`repro.serving.http.encode_segment_response`) and HTTP plumbing
verbatim, so every wire form a replica accepts is accepted here with
byte-identical semantics — the gateway's label maps are bit-exact with a
direct engine call because the replicas' are.

Differences from a single replica's surface, by design:

* JSON segment responses carry ``"replica"`` (who served the group) and a
  computed ``num_clusters``, but no per-image ``workload`` echo — workload
  accounting lives in each replica's ``/stats``.
* ``GET /stats`` is the fleet rollup: gateway HTTP counters, the routing
  table (shape → replica), ring membership, per-replica health/latency/
  cache/bytes-moved, and fleet totals (the smoke asserts fleet-wide
  ``position_grid_builds`` equals the number of distinct shapes served).
"""

from __future__ import annotations

import os
import queue
import secrets
import threading
import time
from typing import Generator

import numpy as np

from repro.serving.cluster.client import (
    ReplicaClient,
    ReplicaHTTPError,
    ReplicaUnavailable,
)
from repro.serving.cluster.health import HealthProber
from repro.serving.cluster.ring import DEFAULT_VNODES, ConsistentHashRing
from repro.serving.http import (
    MAX_IMAGES_PER_REQUEST,
    MAX_STREAM_IMAGES,
    HTTPRequestError,
    RawRequest,
    StreamingResponse,
    _BoundHTTPServer,
    _Handler,
    _HttpStats,
    decode_segment_request,
    encode_segment_response,
    framed_stream,
    npy_bytes,
    request_route,
    resolve_route,
)

__all__ = ["ClusterGateway"]


def _shape_label(shape: tuple) -> str:
    """``(H, W, C)`` -> ``"HxWxC"`` for routing-table/JSON keys."""
    return "x".join(str(int(part)) for part in shape)


class ClusterGateway:
    """HTTP gateway routing segment traffic across replicas by shape.

    Parameters
    ----------
    host / port:
        Bind address for the gateway's own HTTP server; ``port=0`` picks an
        ephemeral port (available as :attr:`port`).
    probe_interval / fail_threshold / recover_threshold:
        Health-prober cadence and hysteresis (see
        :class:`~repro.serving.cluster.health.HealthProber`).
    vnodes:
        Virtual nodes per replica on the consistent-hash ring.
    max_attempts:
        Distinct replicas tried per shape group before giving up (the
        bounded-retry contract: attempt 1 is the ring owner, each further
        attempt the next distinct node clockwise).
    replica_timeout:
        Socket timeout for gateway→replica requests, seconds.
    """

    #: ``(method, route)`` -> handler method name (see ``resolve_route``).
    ROUTES = {
        ("GET", "/healthz"): "_handle_healthz",
        ("GET", "/stats"): "_handle_stats",
        ("POST", "/v1/segment"): "_handle_segment",
        ("POST", "/v1/segment-stream"): "_handle_segment_stream",
    }

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        probe_interval: float = 0.5,
        fail_threshold: int = 2,
        recover_threshold: int = 1,
        vnodes: int = DEFAULT_VNODES,
        max_attempts: int = 3,
        replica_timeout: float = 120.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        self._ring = ConsistentHashRing(vnodes=vnodes)
        self._prober = HealthProber(
            on_dead=self._on_replica_dead,
            on_alive=self._on_replica_alive,
            interval=probe_interval,
            fail_threshold=fail_threshold,
            recover_threshold=recover_threshold,
        )
        self._max_attempts = int(max_attempts)
        self._replica_timeout = float(replica_timeout)
        self._lock = threading.Lock()
        self._clients: dict[str, ReplicaClient] = {}
        self._routing: dict[str, str] = {}
        self._failovers = 0
        self.http_stats = _HttpStats()
        self.instance_id = secrets.token_hex(8)
        self._pid = os.getpid()
        self._started_at_unix = time.time()
        self._started_at = time.perf_counter()
        self._serve_thread: "threading.Thread | None" = None
        self._serving = False
        self._closed = False
        self._httpd = _BoundHTTPServer((host, port), _Handler)
        self._httpd.app = self  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    # fleet membership
    # ------------------------------------------------------------------ #
    def register_replica(self, replica_id: str, host: str, port: int) -> None:
        """Track a replica; it joins routing once probes mark it alive.

        Re-registering an id (the supervisor restarting a replica on a new
        ephemeral port) swaps the client atomically: the old connection pool
        is closed, the prober restarts the hysteresis clock, and because
        ring placement depends only on the replica *id*, the shapes the old
        incarnation owned come straight back to the new one — warming one
        replica instead of reshuffling the fleet.
        """
        client = ReplicaClient(
            str(replica_id), host, port, timeout=self._replica_timeout
        )
        with self._lock:
            previous = self._clients.get(client.replica_id)
            self._clients[client.replica_id] = client
        self._prober.register(client)
        if previous is not None:
            previous.close()

    def unregister_replica(self, replica_id: str) -> None:
        """Drop a replica from routing, probing, and the client table."""
        self._prober.unregister(str(replica_id))
        with self._lock:
            client = self._clients.pop(str(replica_id), None)
        if client is not None:
            client.close()

    def _on_replica_alive(self, replica_id: str) -> None:
        """Prober callback: a replica passed hysteresis — give it arcs."""
        self._ring.add(replica_id)

    def _on_replica_dead(self, replica_id: str) -> None:
        """Prober callback: a replica failed hysteresis — pull its arcs."""
        self._ring.remove(replica_id)

    def _client_for(self, replica_id: str) -> "ReplicaClient | None":
        """The live client for a replica id (``None`` if unregistered)."""
        with self._lock:
            return self._clients.get(replica_id)

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every registered replica is alive and routable."""
        with self._lock:
            wanted = list(self._clients)
        self._prober.wait_alive(wanted, timeout=timeout)

    @property
    def ring(self) -> ConsistentHashRing:
        """The routing ring (tests inspect placement through this)."""
        return self._ring

    @property
    def prober(self) -> HealthProber:
        """The health prober (the smoke drives probe rounds through this)."""
        return self._prober

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        """Bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (the real one, also when constructed with 0)."""
        return self._httpd.server_address[1]

    def __enter__(self) -> "ClusterGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (or Ctrl-C)."""
        self._serving = True
        self._prober.start()
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ClusterGateway":
        """Serve on a daemon thread and return self (for tests/embedding)."""
        if self._serve_thread is None:
            self._serving = True
            self._prober.start()
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="seghdc-gateway",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop probing and serving; close every replica connection pool."""
        if self._closed:
            return
        self._closed = True
        self._prober.stop()
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
        with self._lock:
            clients, self._clients = dict(self._clients), {}
        for client in clients.values():
            client.close()

    # ------------------------------------------------------------------ #
    # routing core
    # ------------------------------------------------------------------ #
    def _note_routing(self, shape: tuple, replica_id: str) -> None:
        """Record the observed shape→replica placement for ``/stats``."""
        with self._lock:
            self._routing[_shape_label(shape)] = replica_id

    def _note_failover(self) -> None:
        """Count one replica giving up a group mid-request."""
        with self._lock:
            self._failovers += 1

    def _next_replica(self, shape: tuple, tried: set) -> "str | None":
        """The next untried replica for a shape, in ring failover order."""
        return next(self._ring.walk(shape, exclude=tried), None)

    def _segment_group(
        self, shape: tuple, arrays: list
    ) -> tuple[list, str]:
        """Segment one same-shape group with bounded failover.

        Returns ``(label maps, serving replica id)``.  Raises
        :class:`HTTPRequestError` (503) when no live replica could serve
        the group within ``max_attempts`` — application-level replica
        errors (:class:`ReplicaHTTPError`) propagate unchanged, since the
        next replica would reject the same payload for the same reason.
        """
        tried: set = set()
        last_error: "Exception | None" = None
        for _ in range(self._max_attempts):
            replica_id = self._next_replica(shape, tried)
            if replica_id is None:
                break
            client = self._client_for(replica_id)
            if client is None:
                tried.add(replica_id)
                continue
            try:
                labels = client.segment_raw(arrays)
            except ReplicaUnavailable as exc:
                tried.add(replica_id)
                last_error = exc
                self._note_failover()
                continue
            self._note_routing(shape, replica_id)
            return labels, replica_id
        raise HTTPRequestError(
            f"no live replica could serve shape {_shape_label(shape)}"
            + (f" (last error: {last_error})" if last_error else ""),
            status=503,
        )

    @staticmethod
    def _group_by_shape(images: list) -> dict:
        """Group request positions by image shape, preserving order.

        Returns ``{(H, W, C)-or-(H, W): [global indices]}``; the grouping
        key is the array shape exactly as the replica's engine will see it,
        which is also the single-host micro-batcher's grouping rule — the
        fleet inherits the same affinity boundary.
        """
        groups: dict = {}
        for index, image in enumerate(images):
            groups.setdefault(tuple(image.shape), []).append(index)
        return groups

    # ------------------------------------------------------------------ #
    # HTTP dispatch
    # ------------------------------------------------------------------ #
    def handle_request(
        self,
        method: str,
        path: str,
        body: bytes,
        *,
        content_type: "str | None" = None,
        accept: "str | None" = None,
    ) -> tuple:
        """Dispatch one request; returns ``(status, payload)``.

        Same socket-free contract as
        :meth:`SegmentationHTTPServer.handle_request` — the shared
        :class:`~repro.serving.http._Handler` drives both — so the gateway
        is unit-testable without sockets too.
        """
        request = RawRequest(
            body=body,
            content_type=(content_type or "").split(";", 1)[0].strip().lower(),
            accept=(accept or "").split(";", 1)[0].strip().lower(),
        )
        try:
            handler = resolve_route(self, method, request_route(path))
            if method == "POST":
                return 200, handler(request)
            return 200, handler()
        except HTTPRequestError as exc:
            return exc.status, {"error": str(exc)}
        except ReplicaHTTPError as exc:
            # A replica rejected the payload: forward its verdict verbatim
            # (the request is the client's problem, not the fleet's).
            return exc.status, {"error": exc.message}
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _handle_healthz(self) -> dict:
        """Gateway liveness + fleet summary (cheap, probe-friendly)."""
        alive = self._prober.alive_replicas()
        with self._lock:
            registered = len(self._clients)
        return {
            "status": "ok" if alive else "degraded",
            "role": "gateway",
            "instance_id": self.instance_id,
            "pid": self._pid,
            "started_at": self._started_at_unix,
            "uptime_seconds": time.perf_counter() - self._started_at,
            "replicas_registered": registered,
            "replicas_alive": alive,
        }

    def _handle_stats(self) -> dict:
        """Fleet-wide stats rollup (the smoke's affinity proof reads this).

        ``fleet.totals.position_grid_builds`` sums the grid builds every
        replica's engines ever performed; with shape-affine routing it
        equals the number of distinct shapes served, fleet-wide (for
        thread-mode replicas, one engine each) — the cluster-level
        generalisation of the engine's one-build-per-shape cache.
        """
        with self._lock:
            routing = dict(self._routing)
            failovers = self._failovers
        return {
            "uptime_seconds": time.perf_counter() - self._started_at,
            "gateway": {
                "instance_id": self.instance_id,
                "failovers": failovers,
                "routing_table": routing,
                "ring": self._ring.describe(),
                "max_attempts": self._max_attempts,
            },
            "http": self.http_stats.snapshot(),
            "replicas": self._prober.snapshot(),
            "fleet": self._fleet_rollup(self._prober.replica_stats()),
        }

    @staticmethod
    def _fleet_rollup(stats_by_replica: dict) -> dict:
        """Fold per-replica ``/stats`` bodies into fleet totals.

        Uses the prober's cached snapshots (refreshed every probe round)
        rather than fanning out synchronous ``/stats`` calls per gateway
        request — ``GET /stats`` must stay cheap enough for dashboards.
        """
        totals = {
            "completed": 0,
            "failed": 0,
            "position_grid_builds": 0,
            "cache_hits": 0,
            "bytes_moved": 0,
        }
        per_replica = {}
        for replica_id in sorted(stats_by_replica):
            stats = stats_by_replica[replica_id]
            if not stats:
                per_replica[replica_id] = None
                continue
            serving = stats.get("serving") or {}
            cache = serving.get("cache") or {}
            http = stats.get("http") or {}
            bytes_moved = sum(
                int(entry.get("bytes_in", 0)) + int(entry.get("bytes_out", 0))
                for entry in (http.get("transport") or {}).values()
            )
            entry = {
                "completed": int(serving.get("completed", 0)),
                "failed": int(serving.get("failed", 0)),
                "latency": dict(serving.get("latency") or {}),
                "position_grid_builds": int(
                    cache.get("position_grid_builds", 0)
                ),
                "cache_hits": int(cache.get("hits", 0)),
                "bytes_moved": bytes_moved,
                "config_generation": stats.get("config_generation"),
            }
            per_replica[replica_id] = entry
            totals["completed"] += entry["completed"]
            totals["failed"] += entry["failed"]
            totals["position_grid_builds"] += entry["position_grid_builds"]
            totals["cache_hits"] += entry["cache_hits"]
            totals["bytes_moved"] += entry["bytes_moved"]
        return {"totals": totals, "per_replica": per_replica}

    def _handle_segment(self, request: RawRequest):
        """``POST /v1/segment``: decode, group by shape, route, reassemble.

        Every wire form of the single-host endpoint is honoured.  The JSON
        response mirrors the replica's envelope with two fleet twists: each
        result names the ``replica`` that served it, and ``num_clusters``
        is computed from the label map (replicas ship bare label arrays
        over the raw wire; the cluster count is derivable, the per-image
        workload echo is not — that accounting lives in replica
        ``/stats``).
        """
        decoded = decode_segment_request(request, MAX_IMAGES_PER_REQUEST)
        images = decoded["images"]
        labels_by_index: dict = {}
        replica_by_index: dict = {}
        for shape, indices in self._group_by_shape(images).items():
            labels, replica_id = self._segment_group(
                shape, [images[i] for i in indices]
            )
            for local, global_index in enumerate(indices):
                labels_by_index[global_index] = labels[local]
                replica_by_index[global_index] = replica_id
        ordered = [labels_by_index[i] for i in range(len(images))]
        return encode_segment_response(
            decoded,
            ordered,
            (
                {
                    "num_clusters": int(labels.max()) + 1 if labels.size else 0,
                    "replica": replica_by_index[index],
                }
                for index, labels in enumerate(ordered)
            ),
            self.http_stats,
        )

    def _handle_segment_stream(self, request: RawRequest) -> StreamingResponse:
        """``POST /v1/segment-stream``: fan out by shape, re-interleave.

        One worker thread per shape group opens a streaming exchange with
        the group's ring owner; frames are forwarded to the client the
        moment any replica produces them (completion order across the whole
        fleet, frame index = position in the request).  Exactly-once under
        failover: a worker tracks which global indices it has already
        forwarded, and when a replica dies mid-stream only the
        *undelivered* indices are resent to the next ring node — delivered
        frames are never re-emitted, lost ones always retried, and images
        that exhaust ``max_attempts`` are framed as per-image errors
        (status 1) rather than silently dropped, so the frame count always
        matches the request.
        """
        decoded = decode_segment_request(request, MAX_STREAM_IMAGES)
        images = decoded["images"]
        groups = self._group_by_shape(images)
        results: "queue.Queue" = queue.Queue()

        def worker(shape: tuple, indices: list) -> None:
            """Stream one shape group with exactly-once failover.

            ``remaining`` shrinks as frames are forwarded, so however an
            attempt ends — clean, mid-stream death, or an unexpected bug —
            only the undelivered indices are retried or error-framed, and a
            frame is pushed for every index exactly once (the reassembly
            loop counts on it).
            """
            remaining = set(indices)
            tried: set = set()
            last_error: "Exception | None" = None
            try:
                for _ in range(self._max_attempts):
                    if not remaining:
                        break
                    replica_id = self._next_replica(shape, tried)
                    if replica_id is None:
                        break
                    client = self._client_for(replica_id)
                    if client is None:
                        tried.add(replica_id)
                        continue
                    batch = sorted(remaining)
                    try:
                        reader = client.open_stream(
                            [images[i] for i in batch]
                        )
                        try:
                            for local_index, labels in reader.frames():
                                global_index = batch[local_index]
                                results.put(
                                    (global_index, 0, npy_bytes(labels))
                                )
                                remaining.discard(global_index)
                        finally:
                            reader.close()
                        if not remaining:
                            self._note_routing(shape, replica_id)
                    except ReplicaUnavailable as exc:
                        tried.add(replica_id)
                        last_error = exc
                        self._note_failover()
                    except ReplicaHTTPError as exc:
                        # The replica rejected the payload itself; every
                        # other replica would too, so fail the remainder
                        # immediately.
                        last_error = exc
                        break
            except Exception as exc:  # noqa: BLE001 - must not hang frames()
                last_error = exc
            for global_index in sorted(remaining):
                message = (
                    f"no live replica could serve shape "
                    f"{_shape_label(shape)}"
                    + (f" (last error: {last_error})" if last_error else "")
                )
                results.put((global_index, 1, message.encode("utf-8")))

        def frames() -> Generator:
            """``(index, status, body)`` frames in fleet completion order."""
            threads = [
                threading.Thread(
                    target=worker,
                    args=(shape, indices),
                    name=f"gateway-stream-{_shape_label(shape)}",
                    daemon=True,
                )
                for shape, indices in groups.items()
            ]
            try:
                for thread in threads:
                    thread.start()
                for _ in range(len(images)):
                    yield results.get()
            finally:
                for thread in threads:
                    if thread.is_alive():
                        thread.join(timeout=10.0)

        return framed_stream(decoded, frames(), self.http_stats)
