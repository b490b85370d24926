"""Stdlib HTTP client pool for one replica (keep-alive, raw-npy wire).

The gateway talks to every replica through a :class:`ReplicaClient`: a small
pool of persistent :class:`http.client.HTTPConnection` objects (keep-alive,
``HTTP/1.1``) so sustained same-shape traffic re-uses TCP connections
instead of paying a handshake per request, speaking the zero-copy raw wire
forms from :mod:`repro.serving.http` — bare ``.npy`` bodies and the
``SHDC`` framed container — so pixels and label maps cross the fleet
boundary as bytes, never as JSON text.

Failure semantics are deliberately coarse: *any* transport-level problem
(refused connection, reset mid-response, malformed HTTP) raises
:class:`ReplicaUnavailable`, the signal the gateway's retry loop and the
health prober act on.  Application-level errors (a 400 from a bad payload)
raise :class:`ReplicaHTTPError` with the replica's status and message —
those are the *caller's* fault and must not trigger failover.
"""

from __future__ import annotations

import http.client
import json
import struct
import threading
from typing import Iterator

import numpy as np

from repro.serving.http import (
    FRAME_MAGIC,
    HTTPRequestError,
    array_from_npy_bytes,
    pack_frames,
)

__all__ = ["ReplicaClient", "ReplicaHTTPError", "ReplicaUnavailable"]

_CONTAINER_HEADER = struct.Struct("<4sHHI")
_FRAME_HEADER = struct.Struct("<IIQ")

#: Errors that mean "the replica (or the network to it) is gone", as opposed
#: to a well-formed HTTP error response.
_TRANSPORT_ERRORS = (
    ConnectionError,
    http.client.HTTPException,
    TimeoutError,
    OSError,
)


class ReplicaUnavailable(RuntimeError):
    """The replica could not be reached or died mid-exchange (failover cue)."""


class ReplicaHTTPError(RuntimeError):
    """The replica answered with an HTTP error status (no failover).

    Carries ``status`` and the decoded error message so the gateway can
    forward the replica's complaint (a 400 naming the bad field) to its own
    client instead of masking it as a fleet failure.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"replica answered {status}: {message}")
        self.status = int(status)
        self.message = message


class _StreamReader:
    """Incremental frame reader over one in-flight streaming response.

    Wraps the checked-out connection + response of a ``/v1/segment-stream``
    call: :meth:`frames` yields ``(index, labels)`` pairs as the replica
    produces them (``http.client`` de-chunks the transfer encoding), and
    :meth:`close` returns the connection to the pool when the stream ended
    cleanly — or discards it when it did not, since a half-read keep-alive
    connection can never be reused.
    """

    def __init__(self, client: "ReplicaClient", connection, response) -> None:
        self._client = client
        self._connection = connection
        self._response = response
        self._clean = False
        self._closed = False

    def _read_exact(self, count: int) -> bytes:
        """Read exactly ``count`` bytes or raise :class:`ReplicaUnavailable`.

        A short read means the replica died mid-stream (SIGKILL, crash) —
        the chunked coding guarantees a clean end-of-stream marker, so
        truncation is always a transport failure, never a valid end.
        """
        chunks = []
        remaining = count
        try:
            while remaining > 0:
                chunk = self._response.read(remaining)
                if not chunk:
                    raise ReplicaUnavailable(
                        f"replica {self._client.replica_id} stream truncated "
                        f"({count - remaining}/{count} bytes of a frame)"
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
        except _TRANSPORT_ERRORS as exc:
            raise ReplicaUnavailable(
                f"replica {self._client.replica_id} died mid-stream: {exc}"
            ) from exc
        return b"".join(chunks)

    def frames(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(index, labels)`` pairs as the replica streams them.

        An error frame (non-zero status — the replica's serving layer
        failed a job) raises :class:`ReplicaUnavailable` carrying the framed
        message: from the fleet's perspective a replica that cannot segment
        is as good as gone for the affected work, and the gateway's retry
        loop re-routes the *undelivered* frames.
        """
        header = self._read_exact(_CONTAINER_HEADER.size)
        magic, version, _flags, count = _CONTAINER_HEADER.unpack_from(header)
        if magic != FRAME_MAGIC or version != 1:
            raise ReplicaUnavailable(
                f"replica {self._client.replica_id} stream is not a v1 "
                f"frame container (magic {magic!r})"
            )
        for _ in range(count):
            index, status, length = _FRAME_HEADER.unpack(
                self._read_exact(_FRAME_HEADER.size)
            )
            payload = self._read_exact(length)
            if status != 0:
                raise ReplicaUnavailable(
                    f"replica {self._client.replica_id} framed an error for "
                    f"frame {index}: {payload.decode('utf-8', 'replace')}"
                )
            yield int(index), array_from_npy_bytes(payload)
        # The chunked terminator is still unread after the last frame; a
        # connection recycled before it is consumed cannot send again.
        try:
            trailing = self._response.read()
        except _TRANSPORT_ERRORS as exc:
            raise ReplicaUnavailable(
                f"replica {self._client.replica_id} died mid-stream: {exc}"
            ) from exc
        if trailing:
            raise ReplicaUnavailable(
                f"replica {self._client.replica_id} sent {len(trailing)} "
                "bytes past the last frame"
            )
        self._clean = True

    def close(self) -> None:
        """Recycle or discard the underlying connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._clean:
            self._client._checkin(self._connection)
        else:
            self._client._discard(self._connection)

    def __enter__(self) -> "_StreamReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ReplicaClient:
    """Keep-alive connection pool + wire codecs for one replica address.

    Parameters
    ----------
    replica_id:
        Stable fleet-side name (``"replica-0"``); used in errors and stats.
    host / port:
        The replica's bound address.
    timeout:
        Per-request socket timeout in seconds (connect and read).
    pool_size:
        Idle keep-alive connections retained; bursts beyond it open extra
        connections that are closed instead of pooled on return.
    """

    def __init__(
        self,
        replica_id: str,
        host: str,
        port: int,
        *,
        timeout: float = 120.0,
        pool_size: int = 4,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.replica_id = str(replica_id)
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self._pool_size = int(pool_size)
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._closed = False
        #: Total TCP connections ever opened — the keep-alive tests assert
        #: this stays at 1 across sequential requests.
        self.connections_created = 0
        #: Requests attempted / transport failures, for the gateway rollup.
        self.requests = 0
        self.transport_failures = 0

    @property
    def address(self) -> str:
        """``host:port`` string of the replica."""
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #
    def _checkout(self) -> http.client.HTTPConnection:
        """An idle pooled connection, or a freshly opened one."""
        with self._lock:
            if self._closed:
                raise ReplicaUnavailable(
                    f"client for replica {self.replica_id} is closed"
                )
            if self._idle:
                return self._idle.pop()
            self.connections_created += 1
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        """Return a healthy connection to the idle pool (or close it)."""
        with self._lock:
            if not self._closed and len(self._idle) < self._pool_size:
                self._idle.append(connection)
                return
        connection.close()

    def _discard(self, connection: http.client.HTTPConnection) -> None:
        """Close a connection that can no longer be trusted for reuse."""
        try:
            connection.close()
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass

    def close(self) -> None:
        """Close every pooled connection; further requests fail."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            self._discard(connection)

    def __enter__(self) -> "ReplicaClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # request primitives
    # ------------------------------------------------------------------ #
    def request(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "dict | None" = None,
    ) -> tuple[int, bytes]:
        """One fully-buffered exchange; returns ``(status, body bytes)``.

        Transport failures close the connection and raise
        :class:`ReplicaUnavailable`; HTTP statuses — including errors — are
        returned to the caller, which decides whether they are the
        replica's fault or its own.
        """
        connection = self._checkout()
        with self._lock:
            self.requests += 1
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            payload = response.read()
            status = response.status
        except _TRANSPORT_ERRORS as exc:
            self._discard(connection)
            with self._lock:
                self.transport_failures += 1
            raise ReplicaUnavailable(
                f"replica {self.replica_id} at {self.address} unreachable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if response.will_close:
            self._discard(connection)
        else:
            self._checkin(connection)
        return status, payload

    @staticmethod
    def _error_message(body: bytes) -> str:
        """The replica's JSON ``{"error": ...}`` message, or the raw text."""
        try:
            return json.loads(body.decode("utf-8")).get("error", "")
        except Exception:  # noqa: BLE001 - non-JSON error body
            return body.decode("utf-8", "replace")[:200]

    def get_json(self, path: str) -> dict:
        """GET a JSON endpoint (``/healthz``, ``/stats``)."""
        status, body = self.request("GET", path)
        if status >= 400:
            raise ReplicaHTTPError(status, self._error_message(body))
        return json.loads(body.decode("utf-8"))

    def post_json(self, path: str, payload: dict) -> dict:
        """POST a JSON body and decode the JSON response."""
        status, body = self.request(
            "POST",
            path,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        if status >= 400:
            raise ReplicaHTTPError(status, self._error_message(body))
        return json.loads(body.decode("utf-8"))

    # ------------------------------------------------------------------ #
    # segmentation wire
    # ------------------------------------------------------------------ #
    def segment_raw(self, images: list) -> list[np.ndarray]:
        """Segment a batch over the raw framed wire; returns label maps.

        One ``POST /v1/segment`` with a framed octet-stream body (no JSON
        text either way); the response frames come back indexed by
        position, so the returned list lines up with ``images``.
        """
        status, body = self.request(
            "POST",
            "/v1/segment",
            body=pack_frames(enumerate(images)),
            headers={
                "Content-Type": "application/octet-stream",
                "Accept": "application/octet-stream",
            },
        )
        if status >= 400:
            raise ReplicaHTTPError(status, self._error_message(body))
        try:
            from repro.serving.http import unpack_frames

            entries = dict(unpack_frames(body))
        except HTTPRequestError as exc:
            with self._lock:
                self.transport_failures += 1
            raise ReplicaUnavailable(
                f"replica {self.replica_id} returned an undecodable framed "
                f"body: {exc}"
            ) from exc
        missing = [i for i in range(len(images)) if i not in entries]
        if missing:
            raise ReplicaUnavailable(
                f"replica {self.replica_id} response is missing frames "
                f"{missing}"
            )
        return [entries[index] for index in range(len(images))]

    def open_stream(self, images: list) -> _StreamReader:
        """Start a ``/v1/segment-stream`` exchange; frames arrive lazily.

        The returned reader owns the connection until :meth:`_StreamReader.
        close`; frames are yielded in the replica's completion order with
        indices that are positions in ``images``.  A transport failure
        before the response headers raises here; one mid-stream raises from
        the reader, after the already-delivered frames were consumed —
        which is exactly the exactly-once bookkeeping boundary the gateway
        needs.
        """
        connection = self._checkout()
        with self._lock:
            self.requests += 1
        try:
            connection.request(
                "POST",
                "/v1/segment-stream",
                body=pack_frames(enumerate(images)),
                headers={"Content-Type": "application/octet-stream"},
            )
            response = connection.getresponse()
        except _TRANSPORT_ERRORS as exc:
            self._discard(connection)
            with self._lock:
                self.transport_failures += 1
            raise ReplicaUnavailable(
                f"replica {self.replica_id} at {self.address} unreachable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if response.status >= 400:
            body = response.read()
            self._checkin(connection)
            raise ReplicaHTTPError(response.status, self._error_message(body))
        return _StreamReader(self, connection, response)

    def snapshot(self) -> dict:
        """JSON-ready client counters for the gateway's ``/stats`` rollup."""
        with self._lock:
            return {
                "address": self.address,
                "requests": self.requests,
                "transport_failures": self.transport_failures,
                "connections_created": self.connections_created,
                "idle_connections": len(self._idle),
            }
