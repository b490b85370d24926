"""Stdlib HTTP front end over :class:`SegmentationServer`.

:class:`SegmentationHTTPServer` puts a network face on the serving layer
using nothing but ``http.server.ThreadingHTTPServer`` — no web framework,
so the front end runs on the same minimal containers as the rest of the
repo.  One HTTP server owns one :class:`SegmentationServer` (thread or
process mode, any registered segmenter), so every request rides the same
bounded queue, shape-aware micro-batcher, and — in process mode — the
cross-engine shared grid cache.

Endpoints
---------

``POST /v1/segment``
    Segment one image or a batch.  Two request wire forms:

    * **JSON** (``Content-Type: application/json``) — the body carries
      ``"image"`` (one payload) or ``"images"`` (a list); each image
      payload is ``{"data": "<base64>", "encoding": "npy"}`` (a
      base64-encoded ``.npy``), ``{"pixels": [[...]]}`` (nested JSON
      lists of 0-255 intensities), or a bare nested list.
    * **Raw** (``Content-Type: application/octet-stream``) — the body *is*
      a bare ``.npy`` file (single image) or the framed multi-array
      container (:func:`pack_frames`) for a batch.  No base64, no JSON:
      pixels are decoded as zero-copy views of the request body.

    ``"response_encoding"`` selects how label maps come back: ``"list"``
    (default, nested JSON lists), ``"npy"`` (base64 ``.npy`` inside the
    JSON envelope), or ``"raw"`` — the response body becomes a bare
    ``.npy`` (single) or framed container (batch) octet-stream.  Raw
    requests default to raw responses; ``Accept:
    application/octet-stream`` upgrades a JSON request's response and
    ``Accept: application/json`` opts a raw request back into the JSON
    envelope.  Label maps are produced by the same engine kernels as a
    direct :meth:`SegHDCEngine.segment` call and are bit-exact with one
    on every wire form.

``POST /v1/segment-stream``
    Chunked streaming segmentation for bulk clients: same request bodies
    as ``/v1/segment`` (up to :data:`MAX_STREAM_IMAGES` images), response
    is an octet-stream framed container sent with ``Transfer-Encoding:
    chunked`` whose frames arrive in **completion order** — each frame
    index is the image's position in the request — riding
    :meth:`SegmentationServer.map` underneath.

``POST /v1/run-spec``
    Execute a declarative JSON :class:`repro.api.RunSpec` and return the
    result payload (per-image IoU, throughput, serving stats).  The spec's
    ``output`` field is ignored: a network request must not write files on
    the server host.

``POST /v1/config``
    Hot reconfiguration (requires the server to be built with
    ``allow_reconfig=True`` / ``seghdc serve --allow-reconfig``; 403
    otherwise).  The JSON body is a diff with any of ``"segmenter"``,
    ``"config"`` and ``"serving"`` — e.g. ``{"config": {"backend":
    "packed"}}`` — validated by the control plane **naming offending
    fields** (400).  A successful swap answers 200 with the outcome dict
    (``status: "swapped"``, the new ``generation``, the ``changed`` field
    list); a no-op diff answers 200 with ``status: "unchanged"``; a diff
    whose new generation fails to build or warm answers 409 with ``status:
    "rolled_back"`` — the old generation keeps serving.  See
    :class:`repro.serving.control.ControlPlane` for the drain/swap
    protocol; in-flight requests always finish on the generation that
    admitted them.

``GET /v1/segmenters``
    Registry listing: every registered segmenter with its description and
    config fields, every compute backend with its capabilities, and the
    serving topology of this server.

``GET /healthz``
    Liveness: status, uptime, mode, worker count, ``config_generation``,
    whether reconfiguration is enabled, and the replica identity triple
    (``instance_id`` — random hex minted per server instance, ``pid``,
    ``started_at``) that lets a fleet health prober detect silent restarts
    behind a reused address.

``GET /stats``
    The wrapped server's :class:`ServerStats` (latency percentiles, cache
    counters — including shared-cache imports/hits — and queue depth) plus
    HTTP-level request/error counters, ``disconnects`` (clients that hung
    up before their reply was written), request latency percentiles, and
    per-wire-form transport byte counters (``http-raw`` / ``http-base64``
    / ``http-json``, each with measured ``bytes_per_image``).

Errors are JSON too: ``{"error": "..."}`` with 400 for malformed payloads,
404/405 for unknown routes/methods, 503 when the queue is saturated, and
500 for unexpected faults.

Usage::

    with SegmentationHTTPServer(config, port=8080) as http_server:
        http_server.serve_forever()          # or .start() for a thread

    # CLI equivalent
    #   seghdc serve --port 8080 --mode process --workers 4
"""

from __future__ import annotations

import ast
import base64
import io
import json
import math
import os
import secrets
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Mapping

import numpy as np

from repro.api.protocol import segmenter_capabilities
from repro.api.registry import available_segmenters, segmenter_entry
from repro.api.spec import ServingOptions
from repro.hdc.backend import available_backends, make_backend
from repro.serving.control import ControlError, ControlPlane
from repro.serving.server import SegmentationServer, ServerSaturated
from repro.serving.stats import (
    LatencyReservoir,
    aggregate_transport,
    latency_percentiles,
    record_transport_locked,
)

__all__ = [
    "HTTPRequestError",
    "RawRequest",
    "RawResponse",
    "SegmentationHTTPServer",
    "StreamingResponse",
    "array_from_npy_bytes",
    "decode_image_payload",
    "decode_segment_request",
    "encode_labels",
    "npy_bytes",
    "pack_frames",
    "unpack_frames",
]

#: Request bodies above this are rejected before parsing (64 MiB covers a
#: batch of dozens of megapixel grayscale frames with base64 overhead).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Upper bound on images per ``/v1/segment`` request; real batch workloads
#: should stream several requests and let the micro-batcher group them.
MAX_IMAGES_PER_REQUEST = 64
#: ``/v1/run-spec`` executions allowed at once.  Each one is a whole
#: experiment (dataset build + sweep, possibly its own worker pool), so it
#: must not scale with connection count the way handler threads do.
MAX_CONCURRENT_RUN_SPECS = 2
#: Upper bound on ``num_images`` a network-submitted run-spec may request.
MAX_RUN_SPEC_IMAGES = 64

#: Upper bound on images in one ``/v1/segment-stream`` request.  Streaming
#: exists for bulk clients, so the cap is higher than the batch endpoint's —
#: results leave as they finish, so they never pile up server-side.
MAX_STREAM_IMAGES = 1024

_RESPONSE_ENCODINGS = ("list", "npy", "raw")
_OCTET_STREAM = "application/octet-stream"

#: Multi-array framing for octet-stream batches: a 12-byte container header
#: (magic, version, flags, array count) followed by one frame per array —
#: ``(uint32 index, uint32 status, uint64 payload length)`` then the bare
#: ``.npy`` payload (or a UTF-8 error message when ``status != 0``).
FRAME_MAGIC = b"SHDC"
_CONTAINER_HEADER = struct.Struct("<4sHHI")
_FRAME_HEADER = struct.Struct("<IIQ")
_NPY_MAGIC = b"\x93NUMPY"


class HTTPRequestError(ValueError):
    """A client-side request problem, carrying the HTTP status to return."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


@dataclass
class RawResponse:
    """A non-JSON response body (bare ``.npy`` or a framed batch).

    Returned by route handlers instead of a JSON dict when the client asked
    for ``application/octet-stream``; the socket handler writes the body
    verbatim with the given content type.
    """

    body: bytes
    content_type: str = _OCTET_STREAM
    headers: dict = field(default_factory=dict)


@dataclass
class RawRequest:
    """An octet-stream request body plus the negotiated response wish.

    Internal hand-off between :meth:`SegmentationHTTPServer.handle_request`
    and the segment handlers, so the latter see one normalized object for
    either wire form.
    """

    body: bytes
    content_type: str
    accept: str


@dataclass
class StreamingResponse:
    """A chunked response: an iterator of body chunks, written as they come.

    The socket handler sends ``Transfer-Encoding: chunked`` and writes one
    HTTP chunk per yielded ``bytes``, so a bulk client starts consuming
    label maps while later images are still being segmented.
    """

    chunks: Iterator[bytes]
    content_type: str = _OCTET_STREAM


# ---------------------------------------------------------------------- #
# wire codecs
# ---------------------------------------------------------------------- #
def npy_bytes(array: np.ndarray) -> bytes:
    """Serialize an array to ``.npy`` bytes (no pickle, no staging copy).

    ``numpy.save`` writes any layout directly into the buffer, so the
    historical ``np.ascontiguousarray`` staging copy is skipped — for a
    large label map that copy was pure overhead on the response hot path.
    """
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def array_from_npy_bytes(data: "bytes | bytearray | memoryview") -> np.ndarray:
    """Zero-copy inverse of :func:`npy_bytes`: parse, then view in place.

    The ``.npy`` header is parsed by hand (magic, version, header length,
    ``ast.literal_eval`` of the header dict — never ``eval``) and the array
    is materialised with ``np.frombuffer`` over a ``memoryview`` of the
    body, so the pixels are *viewed* where the socket read them rather than
    copied through ``io.BytesIO`` as ``np.load`` would.  The result is
    read-only (it aliases the request body) and object dtypes are rejected
    outright, which also closes the pickle door ``allow_pickle=False``
    guards in ``np.load``.  A header shape or ``fortran_order`` that
    ``np.load`` would refuse is a :class:`HTTPRequestError` too.
    """
    view = memoryview(data)
    try:
        if view[:6] != _NPY_MAGIC:
            raise ValueError("missing .npy magic")
        major = view[6]
        if major == 1:
            (header_len,) = struct.unpack_from("<H", view, 8)
            offset = 10 + header_len
        elif major in (2, 3):
            (header_len,) = struct.unpack_from("<I", view, 8)
            offset = 12 + header_len
        else:
            raise ValueError(f"unsupported .npy major version {major}")
        header = ast.literal_eval(
            bytes(view[offset - header_len : offset]).decode("latin1")
        )
        dtype = np.dtype(header["descr"])
        if dtype.hasobject:
            raise ValueError("object dtypes are not allowed")
        shape = header["shape"]
        # np.load refuses all but a tuple of non-negative, non-bool ints.
        if not isinstance(shape, tuple) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise ValueError(f"shape is not valid: {shape!r}")
        fortran_order = header["fortran_order"]
        if not isinstance(fortran_order, bool):
            raise ValueError(f"fortran_order is not a bool: {fortran_order!r}")
        array = np.frombuffer(
            view, dtype=dtype, count=math.prod(shape), offset=offset
        )
        return array.reshape(shape, order="F" if fortran_order else "C")
    except HTTPRequestError:
        raise
    except Exception as exc:
        raise HTTPRequestError(
            f"body did not decode as a .npy payload: {exc}"
        ) from None


def pack_frames(entries) -> bytes:
    """Pack ``(index, array-or-error)`` pairs into the framed container.

    ``entries`` is an iterable of ``(index, numpy array)`` for successful
    results or ``(index, Exception)`` for per-image failures (framed with a
    non-zero status and a UTF-8 message payload), so a batch response can
    carry partial success without inventing a side channel.
    """
    frames = []
    for index, payload in entries:
        if isinstance(payload, np.ndarray):
            status, body = 0, npy_bytes(payload)
        else:
            status, body = 1, str(payload).encode("utf-8")
        frames.append(_FRAME_HEADER.pack(int(index), status, len(body)) + body)
    header = _CONTAINER_HEADER.pack(FRAME_MAGIC, 1, 0, len(frames))
    return header + b"".join(frames)


def unpack_frames(data: "bytes | memoryview") -> list:
    """Inverse of :func:`pack_frames`; arrays are zero-copy views.

    Returns ``(index, array)`` pairs in wire order.  An error frame
    (non-zero status) raises :class:`HTTPRequestError` carrying the framed
    message — request bodies have no business shipping errors, and clients
    of this helper (tests, the CLI wire benchmark) want the loud failure.
    """
    view = memoryview(data)
    if len(view) < _CONTAINER_HEADER.size:
        raise HTTPRequestError("framed body shorter than its header")
    magic, version, _flags, count = _CONTAINER_HEADER.unpack_from(view, 0)
    if magic != FRAME_MAGIC:
        raise HTTPRequestError(
            f"framed body magic {magic!r} is not {FRAME_MAGIC!r}"
        )
    if version != 1:
        raise HTTPRequestError(f"unsupported frame container version {version}")
    entries = []
    offset = _CONTAINER_HEADER.size
    for _ in range(count):
        if offset + _FRAME_HEADER.size > len(view):
            raise HTTPRequestError("framed body truncated mid-header")
        index, status, length = _FRAME_HEADER.unpack_from(view, offset)
        offset += _FRAME_HEADER.size
        if offset + length > len(view):
            raise HTTPRequestError("framed body truncated mid-payload")
        payload = view[offset : offset + length]
        offset += length
        if status != 0:
            raise HTTPRequestError(
                f"frame {index} carries error status {status}: "
                f"{bytes(payload).decode('utf-8', 'replace')}"
            )
        entries.append((int(index), array_from_npy_bytes(payload)))
    return entries


def _b64_npy_to_array(data: str) -> np.ndarray:
    """Decode a base64 ``.npy`` payload into an array (no pickle allowed).

    The base64 decode is the unavoidable copy of this path; the ``.npy``
    parse itself goes through :func:`array_from_npy_bytes`, skipping the
    second staging buffer ``np.load(io.BytesIO(...))`` used to add.
    """
    try:
        raw = base64.b64decode(data, validate=True)
    except Exception as exc:
        raise HTTPRequestError(f"image data is not valid base64: {exc}") from None
    return array_from_npy_bytes(raw)


def array_to_b64_npy(array: np.ndarray) -> str:
    """Inverse of the ``.npy`` image payload: array -> base64 ``.npy``."""
    return base64.b64encode(npy_bytes(array)).decode("ascii")


def decode_image_payload(entry) -> np.ndarray:
    """One request image payload -> pixel array (2-D or 3-D, uint8).

    Accepts the two wire forms the module docstring describes (base64
    ``.npy`` under ``"data"``, nested lists under ``"pixels"``) plus a bare
    nested list for convenience.  Validation errors raise
    :class:`HTTPRequestError` naming the problem, so the handler can return
    a clean 400 instead of a stack trace.
    """
    if isinstance(entry, Mapping):
        if "data" in entry:
            encoding = entry.get("encoding", "npy")
            if encoding != "npy":
                raise HTTPRequestError(
                    f"unknown image encoding {encoding!r}; expected 'npy'"
                )
            array = _b64_npy_to_array(entry["data"])
        elif "pixels" in entry:
            array = _pixels_to_array(entry["pixels"])
        else:
            raise HTTPRequestError(
                "image payload must carry 'data' (base64 .npy) or 'pixels' "
                f"(nested lists); got keys {sorted(entry)}"
            )
    elif isinstance(entry, list):
        array = _pixels_to_array(entry)
    else:
        raise HTTPRequestError(
            f"image payload must be an object or a nested list, got "
            f"{type(entry).__name__}"
        )
    return _validated_image(array)


def _validated_image(array: np.ndarray) -> np.ndarray:
    """Shared image validation for every wire form (JSON and raw ``.npy``).

    A uint8 array passes through untouched — on the raw octet-stream path
    that keeps it a zero-copy view of the request body; other numeric
    dtypes are clipped and cast (one copy, unavoidable for a format
    conversion).
    """
    if array.ndim not in (2, 3):
        raise HTTPRequestError(
            f"expected a 2-D or 3-D image, got shape {tuple(array.shape)}"
        )
    if array.dtype.kind not in "uif":
        raise HTTPRequestError(
            f"image dtype {array.dtype} is not numeric"
        )
    if array.dtype != np.uint8:
        array = np.clip(np.asarray(array, dtype=np.float64), 0, 255).astype(
            np.uint8
        )
    return array


def _pixels_to_array(pixels) -> np.ndarray:
    """Nested JSON lists -> numpy array, with a clean error on raggedness."""
    try:
        return np.asarray(pixels, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise HTTPRequestError(
            f"'pixels' is not a rectangular numeric array: {exc}"
        ) from None


def encode_labels(labels: np.ndarray, encoding: str):
    """Label map -> JSON response form (nested lists or base64 ``.npy``).

    ``"raw"`` is a whole-response encoding (the body becomes an
    octet-stream, see ``POST /v1/segment``), so it is rejected here — this
    helper only produces values that can sit inside a JSON payload.
    """
    if encoding == "list":
        return labels.tolist()
    if encoding == "npy":
        return array_to_b64_npy(labels)
    raise HTTPRequestError(
        f"unknown response_encoding {encoding!r}; expected one of "
        f"{_RESPONSE_ENCODINGS}"
    )


def _parse_json_object(body: bytes) -> dict:
    """Parse a request body as one JSON object, with clean 400s.

    Module-level (rather than a server method) because the cluster gateway
    parses the same bodies without owning a :class:`SegmentationHTTPServer`.
    """
    if not body:
        raise HTTPRequestError("request body is empty; expected JSON")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HTTPRequestError(f"body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise HTTPRequestError(
            f"JSON body must be an object, got {type(payload).__name__}"
        )
    return payload


def decode_segment_request(request: RawRequest, max_images: int) -> dict:
    """Normalize either wire form of a segment request.

    Octet-stream bodies carry a bare ``.npy`` (single image) or the framed
    container (batch); the arrays stay zero-copy views of the body.  JSON
    bodies are the historical form.  Returns a dict with the decoded
    ``images``, the ``single``/``encoding``/``include_workload`` options,
    and the transport-accounting facts (``path``, ``bytes_in`` — image wire
    bytes, not envelope).  Shared by the single-host front end and the
    cluster gateway so both speak byte-identical wire forms.
    """
    if request.content_type == _OCTET_STREAM:
        view = memoryview(request.body)
        if len(view) >= 4 and view[:4] == FRAME_MAGIC:
            raw_arrays = [array for _, array in unpack_frames(view)]
            single = False
        else:
            raw_arrays = [array_from_npy_bytes(view)]
            single = True
        if not raw_arrays:
            raise HTTPRequestError("framed body carries no images")
        if len(raw_arrays) > max_images:
            raise HTTPRequestError(
                f"{len(raw_arrays)} images in one request; the limit "
                f"is {max_images}"
            )
        # A raw request defaults to a raw response; Accept with an
        # explicit JSON preference opts back into the JSON envelope.
        encoding = "npy" if request.accept == "application/json" else "raw"
        return {
            "images": [_validated_image(array) for array in raw_arrays],
            "single": single,
            "encoding": encoding,
            "include_workload": False,
            "path": "http-raw",
            "bytes_in": len(request.body),
        }
    payload = _parse_json_object(request.body)
    if ("image" in payload) == ("images" in payload):
        raise HTTPRequestError(
            "provide exactly one of 'image' (single payload) or "
            "'images' (list of payloads)"
        )
    single = "image" in payload
    raw_images = [payload["image"]] if single else payload["images"]
    if not isinstance(raw_images, list):
        raise HTTPRequestError(
            f"'images' must be a list, got {type(raw_images).__name__}"
        )
    if not raw_images:
        raise HTTPRequestError("'images' is empty")
    if len(raw_images) > max_images:
        raise HTTPRequestError(
            f"{len(raw_images)} images in one request; the limit is "
            f"{max_images}"
        )
    encoding = payload.get("response_encoding", "list")
    if encoding not in _RESPONSE_ENCODINGS:
        raise HTTPRequestError(
            f"unknown response_encoding {encoding!r}; expected one of "
            f"{_RESPONSE_ENCODINGS}"
        )
    if request.accept == _OCTET_STREAM:
        encoding = "raw"
    images = [decode_image_payload(entry) for entry in raw_images]
    base64_input = any(
        isinstance(entry, Mapping) and "data" in entry
        for entry in raw_images
    )
    bytes_in = sum(
        len(entry["data"])
        if isinstance(entry, Mapping) and "data" in entry
        else int(image.nbytes)
        for entry, image in zip(raw_images, images)
    )
    return {
        "images": images,
        "single": single,
        "encoding": encoding,
        "include_workload": bool(payload.get("include_workload", True)),
        "path": "http-base64" if base64_input else "http-json",
        "bytes_in": bytes_in,
    }


def _json_default(value):
    """JSON fallback for numpy scalars/arrays that ride along in workloads."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


class _HttpStats:
    """Thread-safe HTTP-level counters + request latency reservoir.

    Like :class:`repro.serving.stats.StatsCollector`, the latency sample is
    a bounded uniform :class:`repro.serving.stats.LatencyReservoir` — an
    arbitrarily long serving run keeps constant memory while the reported
    percentiles describe the whole run, not just its tail.
    """

    def __init__(self, *, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._disconnects = 0
        self._by_route: dict = {}
        self._latencies = LatencyReservoir(latency_window)
        self._transport: dict = {}

    def record(self, route: str, status: int, seconds: float) -> None:
        """Count one finished request with its status and wall time."""
        with self._lock:
            self._requests += 1
            if status >= 400:
                self._errors += 1
            self._by_route[route] = self._by_route.get(route, 0) + 1
            self._latencies.add(float(seconds))

    def record_disconnect(self) -> None:
        """Count one request whose client hung up before the reply was out."""
        with self._lock:
            self._disconnects += 1

    def record_transport(
        self, path: str, *, images: int, bytes_in: int, bytes_out: int
    ) -> None:
        """Count wire bytes spent on image payloads for one segment request.

        ``path`` names the request's image encoding — ``"http-raw"``
        (octet-stream ``.npy``/framed bodies), ``"http-base64"`` (JSON with
        base64 ``.npy`` data), or ``"http-json"`` (nested pixel lists) —
        and the byte counts cover the image payloads only, not the JSON
        envelope, so ``bytes_per_image`` is directly comparable to the cost
        model's per-image network term.
        """
        with self._lock:
            record_transport_locked(
                self._transport,
                path,
                images=images,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
            )

    def snapshot(self) -> dict:
        """JSON-ready copy of the counters and latency percentiles.

        Counters and the latency sample are copied in one critical section
        (percentiles always consistent with ``requests``), and the
        percentile math runs outside the lock so stats polling never
        blocks request recording (same discipline as
        :meth:`repro.serving.stats.StatsCollector.snapshot`).
        """
        with self._lock:
            requests = self._requests
            errors = self._errors
            disconnects = self._disconnects
            by_route = dict(self._by_route)
            latencies = self._latencies.snapshot()
            latency_total = self._latencies.total
            transport = {
                path: dict(entry) for path, entry in self._transport.items()
            }
        return {
            "requests": requests,
            "errors": errors,
            "disconnects": disconnects,
            "by_route": by_route,
            "latency": latency_percentiles(latencies, total=latency_total),
            "transport": aggregate_transport(transport),
        }


class _Handler(BaseHTTPRequestHandler):
    """Thin request handler: parse the body, dispatch to the app, reply.

    All routing and payload logic lives in
    :meth:`SegmentationHTTPServer.handle_request` so it can be unit-tested
    without sockets; this class only does the HTTP plumbing.
    """

    server_version = "seghdc-http/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket.  A reply leaves as headers then
    # body (or one write per chunk); with Nagle on, a sub-MSS second write
    # waits for the ACK of the first, which the client delays by ~40 ms.
    disable_nagle_algorithm = True

    @property
    def app(self) -> "SegmentationHTTPServer":
        """The owning front-end instance (attached by the server)."""
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Suppress per-request stderr noise (stats carry the counters)."""

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Negative or non-integer Content-Length: answering without
            # reading is the only safe move (read(-1) would block until
            # the client hangs up, pinning a handler thread).
            status, payload = 400, {"error": "invalid Content-Length header"}
            self.close_connection = True  # unread body would desync keep-alive
        elif length > MAX_BODY_BYTES:
            status, payload = 413, {
                "error": f"request body over {MAX_BODY_BYTES} bytes"
            }
            # Drain in bounded chunks so keep-alive stays usable without
            # ever buffering the oversized body in memory.
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
        else:
            body = self.rfile.read(length) if length else b""
            status, payload = self.app.handle_request(
                method,
                self.path,
                body,
                content_type=self.headers.get("Content-Type"),
                accept=self.headers.get("Accept"),
            )
        if isinstance(payload, StreamingResponse):
            self._write_stream(status, payload)
        else:
            if isinstance(payload, RawResponse):
                encoded = payload.body
                content_type = payload.content_type
                extra_headers = payload.headers
            else:
                encoded = json.dumps(payload, default=_json_default).encode(
                    "utf-8"
                )
                content_type = "application/json"
                extra_headers = {}
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(encoded)))
            for name, value in extra_headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(encoded)
        self.app.http_stats.record(
            self.path.split("?", 1)[0], status, time.perf_counter() - start
        )

    def _write_stream(self, status: int, payload: StreamingResponse) -> None:
        """Send a chunked response, one HTTP chunk per produced body chunk.

        Each chunk — size line, payload, CRLF — is one socket write, so a
        small chunk leaves in one segment instead of three.  A fault while
        producing chunks cannot be turned into an error status any more
        (the 200 and headers are long gone), so the only honest signal is
        tearing the connection down mid-stream — the client sees a
        truncated chunked body, which no spec-conforming decoder mistakes
        for success.
        """
        self.send_response(status)
        self.send_header("Content-Type", payload.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for chunk in payload.chunks:
                if not chunk:
                    continue
                self.wfile.write(b"%X\r\n%b\r\n" % (len(chunk), chunk))
        except Exception:
            self.close_connection = True
            raise
        self.wfile.write(b"0\r\n\r\n")

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Serve GET endpoints (healthz, stats, segmenters)."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Serve POST endpoints (segment, run-spec)."""
        self._dispatch("POST")


class _BoundHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning front-end app."""

    daemon_threads = True
    app: "SegmentationHTTPServer"

    def handle_error(self, request, client_address) -> None:
        """Count client hang-ups; keep the default traceback for the rest.

        A client that closes its socket before the reply is out (a
        cancelled stream, a timed-out load generator) surfaces as a
        :class:`ConnectionError` from the handler's writes.  That is the
        client's choice, not a server fault, so it becomes the
        ``http.disconnects`` counter instead of a stderr traceback.
        """
        if isinstance(sys.exc_info()[1], ConnectionError):
            self.app.http_stats.record_disconnect()
            return
        super().handle_error(request, client_address)


class SegmentationHTTPServer:
    """HTTP front end over one :class:`SegmentationServer`.

    Parameters
    ----------
    segmenter:
        Anything :class:`SegmentationServer` accepts: a ``SegHDCConfig``, a
        registered name or spec dict, a ready segmenter instance, or
        ``None`` for a default SegHDC.  Specs keep the whole stack
        pickle-safe, so process mode works over HTTP exactly as it does in
        the library.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (the bound port is
        available as :attr:`port`).
    serving:
        :class:`ServingOptions` (or its dict form) describing the wrapped
        server's topology — mode, workers, queue depth, micro-batch bound,
        shared grid cache.
    engine_kwargs:
        Forwarded to the wrapped server (SegHDC engine tunables).
    allow_reconfig:
        Enable ``POST /v1/config`` hot reconfiguration.  Off by default —
        changing the served algorithm over the network is an operator
        decision, so the endpoint answers 403 unless the deployment opted
        in (``seghdc serve --allow-reconfig``).
    """

    def __init__(
        self,
        segmenter=None,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        serving: "ServingOptions | Mapping | None" = None,
        engine_kwargs: dict | None = None,
        allow_reconfig: bool = False,
    ) -> None:
        self._control = ControlPlane(
            segmenter, serving, engine_kwargs=engine_kwargs
        )
        self._allow_reconfig = bool(allow_reconfig)
        self._run_spec_slots = threading.BoundedSemaphore(
            MAX_CONCURRENT_RUN_SPECS
        )
        self.http_stats = _HttpStats()
        # Replica identity: a fresh random id per server instance lets a
        # fleet health prober distinguish "same replica, still warm" from
        # "something restarted behind the same host:port with a cold cache"
        # — the port alone cannot tell (supervisors reuse addresses).
        self.instance_id = secrets.token_hex(8)
        self._pid = os.getpid()
        self._started_at_unix = time.time()
        self._started_at = time.perf_counter()
        self._serve_thread: threading.Thread | None = None
        self._serving = False
        self._closed = False
        try:
            self._httpd = _BoundHTTPServer((host, port), _Handler)
        except Exception:
            self._control.close(drain=False)
            raise
        self._httpd.app = self

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def control(self) -> ControlPlane:
        """The control plane owning the wrapped server across generations."""
        return self._control

    @property
    def server(self) -> SegmentationServer:
        """The live generation's segmentation server (stats, drain, etc.)."""
        return self._control.server

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (the real one, also when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def bound_port(self) -> int:
        """Alias of :attr:`port`, named for the supervisor/smoke contract:
        after ``port=0`` this is the ephemeral port the kernel actually
        assigned, the value ``seghdc serve`` prints as
        ``SEGHDC_SERVE_PORT=<port>``."""
        return self.port

    def __enter__(self) -> "SegmentationHTTPServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (or Ctrl-C)."""
        self._serving = True
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "SegmentationHTTPServer":
        """Serve on a daemon thread and return self (for tests/embedding)."""
        if self._serve_thread is None:
            self._serving = True
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="seghdc-http", daemon=True
            )
            self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting HTTP requests and shut the worker pool down."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            # shutdown() blocks until serve_forever acknowledges; calling it
            # when no serve loop ever ran would wait forever.
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
        self._control.close(drain=True)

    # ------------------------------------------------------------------ #
    # routing
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

        ``payload`` is a JSON-ready dict for ordinary endpoints, a
        :class:`RawResponse` when the client negotiated an octet-stream
        body, or a :class:`StreamingResponse` for the streaming endpoint.
        Socket-free by design: the unit tests drive this directly and the
        :class:`_Handler` is a thin shell around it.  ``content_type`` and
        ``accept`` are the request headers of the same names (both
        optional, defaulting to the JSON wire form).
        """
        route = path.split("?", 1)[0].rstrip("/") or "/"
        request = RawRequest(
            body=body,
            content_type=(content_type or "").split(";", 1)[0].strip().lower(),
            accept=(accept or "").split(";", 1)[0].strip().lower(),
        )
        routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/v1/segmenters"): self._handle_segmenters,
            ("POST", "/v1/segment"): self._handle_segment,
            ("POST", "/v1/segment-stream"): self._handle_segment_stream,
            ("POST", "/v1/run-spec"): self._handle_run_spec,
            ("POST", "/v1/config"): self._handle_config,
        }
        known_paths = {r for _, r in routes}
        handler = routes.get((method, route))
        try:
            if handler is None:
                if route in known_paths:
                    raise HTTPRequestError(
                        f"method {method} not allowed for {route}", status=405
                    )
                raise HTTPRequestError(f"unknown path {route!r}", status=404)
            if route in ("/v1/segment", "/v1/segment-stream"):
                # The segment endpoints negotiate their own wire form, so
                # they get the raw body + headers instead of parsed JSON.
                return 200, handler(request)
            if method == "POST":
                result = handler(self._parse_json_body(body))
            else:
                result = handler()
            # A handler may pick its own status by returning a
            # (status, payload) tuple (e.g. /v1/config's 409 on rollback);
            # plain payloads keep the default 200.
            if isinstance(result, tuple):
                return result
            return 200, result
        except HTTPRequestError as exc:
            return exc.status, {"error": str(exc)}
        except ServerSaturated as exc:
            return 503, {"error": f"server saturated: {exc}"}
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    @staticmethod
    def _parse_json_body(body: bytes) -> dict:
        """Parse one JSON-object body (see :func:`_parse_json_object`)."""
        return _parse_json_object(body)

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _handle_healthz(self) -> dict:
        """Liveness payload: cheap enough for aggressive probe intervals.

        ``instance_id`` / ``pid`` / ``started_at`` identify this exact
        server process instance: a prober that sees the same address answer
        with a *different* instance id knows the replica silently restarted
        (fresh grid cache, stats reset to zero) and re-warms its routing
        assumptions instead of trusting stale counters.
        """
        return {
            "status": "ok",
            "instance_id": self.instance_id,
            "pid": self._pid,
            "started_at": self._started_at_unix,
            "uptime_seconds": time.perf_counter() - self._started_at,
            "mode": self._control.mode,
            "num_workers": self._control.num_workers,
            "config_generation": self._control.generation,
            "reconfig_allowed": self._allow_reconfig,
        }

    def _handle_stats(self) -> dict:
        """Serving stats (latency, cache, queue) + HTTP counters.

        ``serving.control`` carries the control-plane snapshot —
        ``config_generation``, per-generation job counts, last-swap outcome
        — so a dashboard can watch a hot reconfiguration land.
        """
        return {
            "uptime_seconds": time.perf_counter() - self._started_at,
            "config_generation": self._control.generation,
            "serving": self._control.stats().as_dict(),
            "http": self.http_stats.snapshot(),
        }

    def _handle_config(self, payload: dict) -> tuple:
        """``POST /v1/config``: hot-swap the served configuration.

        Returns ``(status, outcome)``: 200 for ``swapped``/``unchanged``,
        409 when the new generation rolled back (the outcome dict carries
        the failing stage and error), 400 via :class:`HTTPRequestError` for
        a diff the control plane rejects by field name, and 403 when the
        server was not started with ``allow_reconfig``.
        """
        if not self._allow_reconfig:
            raise HTTPRequestError(
                "reconfiguration is disabled; start the server with "
                "--allow-reconfig (allow_reconfig=True) to enable "
                "POST /v1/config",
                status=403,
            )
        try:
            outcome = self._control.reconfigure(payload, reason="http")
        except (ControlError, ValueError) as exc:
            raise HTTPRequestError(f"invalid config diff: {exc}") from None
        return (409 if outcome["status"] == "rolled_back" else 200), outcome

    def _handle_segmenters(self) -> dict:
        """Registry listing: segmenters, backends + capabilities, topology."""
        segmenters = []
        for name in available_segmenters():
            entry = segmenter_entry(name)
            config_cls = entry.config_cls
            fields = []
            if hasattr(config_cls, "__dataclass_fields__"):
                fields = sorted(config_cls.__dataclass_fields__)
            try:
                # Default-config capabilities: building a default instance
                # is cheap for every registered segmenter (no grids are
                # built until the first segment call).
                capabilities = segmenter_capabilities(entry.build(None))
            except Exception:
                # A segmenter whose default config cannot instantiate still
                # gets listed — introspection must not 500 the endpoint.
                capabilities = None
            segmenters.append(
                {
                    "name": entry.name,
                    "description": entry.description,
                    "config_class": config_cls.__name__,
                    "config_fields": fields,
                    "capabilities": capabilities,
                }
            )
        backends = [
            {"name": name, "capabilities": make_backend(name).capabilities()}
            for name in available_backends()
        ]
        return {
            "segmenters": segmenters,
            "backends": backends,
            "serving": {
                "segmenter": self._control.describe(),
                "mode": self._control.mode,
                "num_workers": self._control.num_workers,
                "config_generation": self._control.generation,
            },
        }

    def _decode_segment_request(self, request: RawRequest, max_images: int):
        """Normalize a segment request (see :func:`decode_segment_request`)."""
        return decode_segment_request(request, max_images)

    def _handle_segment(self, request: RawRequest):
        """Segment one image or a batch through the wrapped server.

        Returns the JSON payload dict, or a :class:`RawResponse` when the
        negotiated response encoding is ``"raw"`` — a bare ``.npy`` label
        map for a single-image request, the framed container for a batch.
        Every request records its image wire bytes under its transport
        path, so ``/stats`` can report measured ``bytes_per_image`` per
        wire form.
        """
        decoded = self._decode_segment_request(request, MAX_IMAGES_PER_REQUEST)
        results = self._segment_batch_bounded(decoded["images"])
        if decoded["encoding"] == "raw":
            if decoded["single"]:
                body = npy_bytes(results[0].labels)
            else:
                body = pack_frames(
                    (index, result.labels)
                    for index, result in enumerate(results)
                )
            self.http_stats.record_transport(
                decoded["path"],
                images=len(results),
                bytes_in=decoded["bytes_in"],
                bytes_out=len(body),
            )
            return RawResponse(
                body=body, headers={"X-Seghdc-Count": str(len(results))}
            )
        encoded = []
        bytes_out = 0
        for result in results:
            labels_encoded = encode_labels(result.labels, decoded["encoding"])
            # For base64 the string length *is* the wire size; for nested
            # lists the raw label bytes stand in (the decimal text is
            # larger, so the list path never under-reports raw's edge).
            bytes_out += (
                len(labels_encoded)
                if isinstance(labels_encoded, str)
                else int(result.labels.nbytes)
            )
            entry = {
                "shape": list(result.labels.shape),
                "num_clusters": result.num_clusters,
                "elapsed_seconds": result.elapsed_seconds,
                "labels": labels_encoded,
            }
            if decoded["include_workload"]:
                entry["workload"] = result.workload
            encoded.append(entry)
        self.http_stats.record_transport(
            decoded["path"],
            images=len(results),
            bytes_in=decoded["bytes_in"],
            bytes_out=bytes_out,
        )
        return {
            "count": len(encoded),
            "response_encoding": decoded["encoding"],
            "results": encoded,
        }

    def _handle_segment_stream(self, request: RawRequest) -> StreamingResponse:
        """Chunked streaming segmentation over ``SegmentationServer.map``.

        Accepts the same bodies as ``/v1/segment`` (framed or bare
        octet-stream, or the JSON envelope) up to
        :data:`MAX_STREAM_IMAGES`, and streams back an octet-stream framed
        container whose frames arrive in **completion order** — each frame
        index is the image's position in the request, so a bulk client
        pipelines results while later images are still queued.  Submission
        rides :meth:`SegmentationServer.map`'s blocking backpressure (a
        dedicated streaming connection stalls instead of bouncing), and a
        failed job is framed with a non-zero status before the stream
        ends.
        """
        decoded = self._decode_segment_request(request, MAX_STREAM_IMAGES)
        images = decoded["images"]
        http_stats = self.http_stats
        control = self._control

        def chunks() -> Iterator[bytes]:
            """Produce the container header, then one frame per result."""
            bytes_out = 0
            try:
                yield _CONTAINER_HEADER.pack(FRAME_MAGIC, 1, 0, len(images))
                # Riding the control plane's map means a stream that spans
                # a hot reconfiguration keeps flowing: later images land on
                # the new generation, already-admitted ones finish on the
                # old, and no frame is dropped or duplicated.
                iterator = control.map(images)
                while True:
                    try:
                        index, result = next(iterator)
                    except StopIteration:
                        return
                    except Exception as exc:  # noqa: BLE001 - framed error
                        # The index is not recoverable from map's raise, so
                        # the error frame carries the sentinel index; the
                        # client stops decoding at the error either way.
                        message = f"{type(exc).__name__}: {exc}"
                        body = message.encode("utf-8")
                        yield _FRAME_HEADER.pack(
                            0xFFFFFFFF, 1, len(body)
                        ) + body
                        return
                    frame_body = npy_bytes(result.labels)
                    bytes_out += len(frame_body)
                    yield _FRAME_HEADER.pack(
                        index, 0, len(frame_body)
                    ) + frame_body
            finally:
                http_stats.record_transport(
                    decoded["path"],
                    images=len(images),
                    bytes_in=decoded["bytes_in"],
                    bytes_out=bytes_out,
                )

        return StreamingResponse(chunks=chunks())

    def _segment_batch_bounded(self, images: list) -> list:
        """Submit a request's images without blocking on a full queue.

        ``SegmentationServer.segment_batch`` blocks on backpressure, which
        would turn a saturated server into unbounded hung handler threads
        (one per connection under ``ThreadingHTTPServer``).  Submitting
        with ``block=False`` lets :class:`ServerSaturated` propagate to the
        dispatcher's 503 instead.  On a mid-batch bounce, the jobs already
        admitted are awaited (they run regardless; discarding the handles
        would not un-run them) before the 503 goes out.
        """
        handles = []
        try:
            for image in images:
                handles.append(self._control.submit(image, block=False))
        except ServerSaturated:
            for handle in handles:
                try:
                    handle.result()
                except Exception:  # noqa: BLE001 - 503 already decided
                    pass
            raise
        return [handle.result() for handle in handles]

    def _handle_run_spec(self, payload: dict) -> dict:
        """Execute a JSON run-spec; never writes server-side files.

        A run-spec is a whole experiment (dataset build + sweep, possibly
        its own worker pool), so unlike ``/v1/segment`` it cannot ride the
        wrapped server's queue — instead concurrency is bounded by a
        semaphore (503 over :data:`MAX_CONCURRENT_RUN_SPECS` at once) and
        the requested image count is capped, so per-connection handler
        threads cannot multiply experiments without bound.
        """
        from repro.api.runner import execute_run_spec
        from repro.api.spec import RunSpec

        # A network caller must not write files on the serving host, so the
        # spec's output field is dropped before execution.
        payload = {k: v for k, v in payload.items() if k != "output"}
        try:
            spec = RunSpec.from_dict(payload)
        except (TypeError, ValueError) as exc:
            raise HTTPRequestError(f"invalid run spec: {exc}") from None
        if spec.num_images > MAX_RUN_SPEC_IMAGES:
            raise HTTPRequestError(
                f"run spec requests {spec.num_images} images; the network "
                f"limit is {MAX_RUN_SPEC_IMAGES}"
            )
        if not self._run_spec_slots.acquire(blocking=False):
            raise HTTPRequestError(
                f"{MAX_CONCURRENT_RUN_SPECS} run-spec executions already in "
                "flight; retry later",
                status=503,
            )
        try:
            return execute_run_spec(spec)
        finally:
            self._run_spec_slots.release()
