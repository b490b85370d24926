"""Tests for the stdlib HTTP serving front end (:mod:`repro.serving.http`).

Four layers of coverage:

* payload codecs — both wire forms of an image (raw ``.npy`` and nested
  lists), both response encodings, the validation errors and the
  refusal of the retired ``"data"`` / ``"npy"`` forms;
* socket-free dispatch — ``handle_request`` routing, every endpoint's
  payload shape and error statuses;
* a real ``ThreadingHTTPServer`` socket round-trip via ``urllib``, with
  label-map parity against a direct :class:`SegHDCEngine` run on both
  compute backends, plus the process-mode shared grid cache observed
  through ``GET /stats``;
* the socket write discipline — small keep-alive replies must not wait out
  the ~40 ms Nagle x delayed-ACK stall, each streamed chunk is one write,
  and a client hang-up is a counted disconnect, not a traceback.
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.serving import HTTPRequestError, SegmentationHTTPServer
from repro.serving.cluster import ClusterGateway
from repro.serving.http import (
    UNMATCHED_ROUTE,
    FRAME_MAGIC,
    RawResponse,
    StreamingResponse,
    RawRequest,
    _Handler,
    array_from_npy_bytes,
    decode_image_payload,
    decode_segment_request,
    npy_bytes,
    pack_frames,
    unpack_frames,
)

_OCTET = "application/octet-stream"


def _config(**overrides):
    base = SegHDCConfig(
        dimension=300, num_clusters=2, num_iterations=2, alpha=0.2, beta=3, seed=0,
        backend="dense",
    )
    return base.with_overrides(**overrides)


def _image(shape=(20, 24), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _pixels_payload(array):
    return {"pixels": array.tolist()}


def _labels_from(entry):
    return np.asarray(entry["labels"])


def _retired_data_payload(array):
    """The retired base64 ``.npy`` image form, well-formed."""
    data = base64.b64encode(npy_bytes(array)).decode("ascii")
    return {"data": data, "encoding": "npy"}


@pytest.fixture()
def app():
    """A dispatch-level server (bound to an ephemeral port, not started)."""
    with SegmentationHTTPServer(
        _config(), port=0, serving={"mode": "thread", "num_workers": 2}
    ) as server:
        yield server


class TestPayloadCodecs:
    def test_npy_roundtrip_preserves_pixels(self):
        image = _image((8, 10))
        request = RawRequest(npy_bytes(image), _OCTET, "")
        [decoded] = decode_segment_request(request, 1)["images"]
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, image)

    def test_nested_lists_and_bare_lists_decode(self):
        pixels = [[0, 128, 255], [10, 20, 30]]
        for payload in ({"pixels": pixels}, pixels):
            decoded = decode_image_payload(payload)
            assert decoded.shape == (2, 3)
            assert decoded.dtype == np.uint8
            assert decoded[0, 2] == 255

    def test_float_values_are_clipped_to_byte_range(self):
        decoded = decode_image_payload({"pixels": [[-5.0, 300.0], [1.5, 2.0]]})
        assert decoded[0, 0] == 0 and decoded[0, 1] == 255

    def test_rgb_payloads_keep_three_dimensions(self):
        image = _image((6, 7, 3))
        assert decode_image_payload(_pixels_payload(image)).shape == (6, 7, 3)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"data": "aGVsbG8="}, "'data'.*retired"),
            (_retired_data_payload(_image()), "'data'.*retired"),
            ({"pixels": [[1, 2], [3]]}, "rectangular"),
            ({"pixels": "text"}, "rectangular|numeric"),
            ({"wrong": 1}, "'pixels'"),
            (42, "object or a nested list"),
            ({"pixels": [0, 1, 2, 3]}, "2-D or 3-D"),
            ([[[[1]]]], "2-D or 3-D"),
        ],
    )
    def test_bad_image_payloads_raise_clean_errors(self, payload, match):
        with pytest.raises(HTTPRequestError, match=match):
            decode_image_payload(payload)


class TestZeroCopyCodecs:
    """The raw ``.npy`` codec pair and the multi-array frame container."""

    @pytest.mark.parametrize(
        "array",
        [
            _image((8, 10)),
            np.arange(24, dtype=np.int32).reshape(4, 6),
            np.linspace(0.0, 1.0, 12).reshape(3, 4),
            _image((4, 5, 3)),
        ],
        ids=["uint8", "int32", "float64", "rgb"],
    )
    def test_npy_roundtrip_is_bit_exact(self, array):
        decoded = array_from_npy_bytes(npy_bytes(array))
        assert decoded.dtype == array.dtype
        assert np.array_equal(decoded, array)

    def test_decode_views_the_body_instead_of_copying(self):
        """The zero-copy pin: the decoded array must alias the wire bytes
        (a regression to ``np.load(io.BytesIO(...))`` would double-buffer
        every image on the hot path)."""
        data = npy_bytes(_image((16, 16)))
        decoded = array_from_npy_bytes(data)
        assert np.shares_memory(decoded, np.frombuffer(data, dtype=np.uint8))
        assert not decoded.flags.writeable  # it aliases the request body

    def test_encode_skips_the_contiguity_staging_copy(self):
        """`npy_bytes` must serialize non-contiguous arrays directly (the
        historical ``np.ascontiguousarray`` staging copy is gone), and the
        bytes must still decode bit-exactly."""
        base = np.arange(64, dtype=np.int32).reshape(8, 8)
        strided = base[::2, ::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(array_from_npy_bytes(npy_bytes(strided)), strided)

    def test_fortran_order_arrays_roundtrip(self):
        array = np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4))
        assert np.array_equal(array_from_npy_bytes(npy_bytes(array)), array)

    def test_npy_version_2_headers_parse(self):
        import io

        buffer = io.BytesIO()
        array = _image((6, 7))
        np.lib.format.write_array(buffer, array, version=(2, 0))
        assert np.array_equal(array_from_npy_bytes(buffer.getvalue()), array)

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"not an npy body", "magic"),
            (npy_bytes(_image((4, 4)))[:20], ".npy"),
            (b"\x93NUMPY\x09\x00" + b"\x00" * 32, "version"),
        ],
        ids=["bad-magic", "truncated", "bad-version"],
    )
    def test_bad_npy_bodies_raise_clean_400s(self, data, match):
        with pytest.raises(HTTPRequestError, match=match):
            array_from_npy_bytes(data)

    def test_object_dtypes_are_rejected(self):
        import io

        buffer = io.BytesIO()
        np.save(buffer, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(HTTPRequestError, match="object"):
            array_from_npy_bytes(buffer.getvalue())

    @pytest.mark.parametrize(
        "shape, fortran_order, match",
        [
            ("(4.9, 6)", "False", "shape"),
            ("(True, 6)", "False", "shape"),
            ("(-1, 6)", "False", "shape"),
            ("(4, 6, -1)", "False", "shape"),
            ("(4, 6)", "0", "fortran_order"),
        ],
        ids=[
            "float-dim",
            "bool-dim",
            "negative-dim",
            "negative-trailing-dim",
            "int-fortran-order",
        ],
    )
    def test_headers_np_load_refuses_are_400s(self, shape, fortran_order, match):
        """Dimensions must be non-bool, non-negative ints and
        ``fortran_order`` a bool: each of these once decoded (``int(4.9)``,
        ``int(True)``, a negative ``frombuffer`` count reading the whole
        body, ``0`` read as C order) though ``np.load`` refuses them all."""
        import io

        data = npy_bytes(np.arange(24, dtype=np.uint8).reshape(4, 6))
        (header_len,) = struct.unpack_from("<H", data, 8)
        header = (
            "{'descr': '|u1', 'fortran_order': %s, 'shape': %s, }"
            % (fortran_order, shape)
        ).ljust(header_len - 1) + "\n"
        tampered = data[:10] + header.encode("latin1") + data[10 + header_len :]
        assert len(tampered) == len(data)
        with pytest.raises((ValueError, TypeError)):
            np.load(io.BytesIO(tampered), allow_pickle=False)
        with pytest.raises(HTTPRequestError, match=match):
            array_from_npy_bytes(tampered)

    def test_frame_container_roundtrip(self):
        arrays = [_image((5, 6), seed=i) for i in range(3)]
        packed = pack_frames(enumerate(arrays))
        assert packed[:4] == FRAME_MAGIC
        entries = unpack_frames(packed)
        assert [index for index, _ in entries] == [0, 1, 2]
        for (_, decoded), original in zip(entries, arrays):
            assert np.array_equal(decoded, original)

    def test_error_frames_raise_with_the_framed_message(self):
        packed = pack_frames([(0, _image((3, 3))), (1, ValueError("boom"))])
        with pytest.raises(HTTPRequestError, match="boom"):
            unpack_frames(packed)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda b: b[:8], "shorter than its header"),
            (lambda b: b"XXXX" + b[4:], "magic"),
            (lambda b: b[:-4], "truncated"),
        ],
        ids=["short", "bad-magic", "cut-payload"],
    )
    def test_malformed_containers_raise_clean_400s(self, mutate, match):
        packed = pack_frames([(0, _image((4, 4)))])
        with pytest.raises(HTTPRequestError, match=match):
            unpack_frames(mutate(packed))


class TestRawWireDispatch:
    """Octet-stream request/response negotiation through handle_request."""

    def _json_reference(self, app, images):
        body = json.dumps(
            {"images": [_pixels_payload(image) for image in images]}
        ).encode()
        status, payload = app.handle_request("POST", "/v1/segment", body)
        assert status == 200, payload.get("error")
        return [_labels_from(entry) for entry in payload["results"]]

    def test_raw_single_image_gets_a_bare_npy_body(self, app):
        image = _image(seed=5)
        [expected] = self._json_reference(app, [image])
        status, payload = app.handle_request(
            "POST", "/v1/segment", npy_bytes(image), content_type=_OCTET
        )
        assert status == 200, payload
        assert isinstance(payload, RawResponse)
        assert payload.content_type == _OCTET
        assert payload.headers["X-Seghdc-Count"] == "1"
        assert np.array_equal(array_from_npy_bytes(payload.body), expected)

    def test_raw_framed_batch_roundtrip(self, app):
        images = [_image(seed=i) for i in range(3)]
        expected = self._json_reference(app, images)
        body = pack_frames(enumerate(images))
        status, payload = app.handle_request(
            "POST", "/v1/segment", body, content_type=_OCTET
        )
        assert status == 200, payload
        assert isinstance(payload, RawResponse)
        entries = unpack_frames(payload.body)
        assert [index for index, _ in entries] == [0, 1, 2]
        for (_, labels), reference in zip(entries, expected):
            assert np.array_equal(labels, reference)

    def test_raw_request_with_accept_json_gets_the_list_envelope(self, app):
        image = _image(seed=6)
        [expected] = self._json_reference(app, [image])
        _, raw = app.handle_request(
            "POST", "/v1/segment", npy_bytes(image), content_type=_OCTET
        )
        status, payload = app.handle_request(
            "POST",
            "/v1/segment",
            npy_bytes(image),
            content_type=_OCTET,
            accept="application/json",
        )
        assert status == 200, payload
        assert isinstance(payload, dict)
        assert payload["response_encoding"] == "list"
        labels = payload["results"][0]["labels"]
        assert isinstance(labels, list)
        raw_labels = array_from_npy_bytes(raw.body)
        assert np.array_equal(np.asarray(labels, raw_labels.dtype), raw_labels)
        assert np.array_equal(raw_labels, expected)

    def test_json_request_with_accept_octet_upgrades_to_raw(self, app):
        image = _image(seed=7)
        [expected] = self._json_reference(app, [image])
        body = json.dumps({"image": _pixels_payload(image)}).encode()
        status, payload = app.handle_request(
            "POST", "/v1/segment", body, accept=_OCTET
        )
        assert status == 200, payload
        assert isinstance(payload, RawResponse)
        assert np.array_equal(array_from_npy_bytes(payload.body), expected)

    def test_response_encoding_raw_in_the_json_body(self, app):
        images = [_image(seed=i) for i in range(2)]
        expected = self._json_reference(app, images)
        body = json.dumps(
            {
                "images": [_pixels_payload(image) for image in images],
                "response_encoding": "raw",
            }
        ).encode()
        status, payload = app.handle_request("POST", "/v1/segment", body)
        assert status == 200, payload
        assert isinstance(payload, RawResponse)
        for (_, labels), reference in zip(
            unpack_frames(payload.body), expected
        ):
            assert np.array_equal(labels, reference)

    def test_garbage_octet_stream_bodies_are_400(self, app):
        status, payload = app.handle_request(
            "POST", "/v1/segment", b"definitely not npy", content_type=_OCTET
        )
        assert status == 400 and ".npy" in payload["error"]
        status, payload = app.handle_request(
            "POST",
            "/v1/segment",
            pack_frames([]),
            content_type=_OCTET,
        )
        assert status == 400 and "no images" in payload["error"]

    @pytest.mark.parametrize(
        "body, content_type",
        [
            (npy_bytes(np.zeros((0, 64), np.uint8)), _OCTET),
            (npy_bytes(np.zeros((8, 0, 3), np.uint8)), _OCTET),
            (npy_bytes(np.zeros((8, 8, 0), np.uint8)), _OCTET),
            (b'{"image": {"pixels": [[]]}}', None),
            (b'{"image": {"pixels": [[1, NaN], [2, 3]]}}', None),
            (npy_bytes(np.array([[1.0, np.nan], [2.0, 3.0]])), _OCTET),
        ],
        ids=["0x64", "8x0x3", "8x8x0", "json-empty", "json-nan", "npy-nan"],
    )
    def test_empty_and_nan_images_are_400(self, app, body, content_type):
        status, payload = app.handle_request(
            "POST", "/v1/segment", body, content_type=content_type
        )
        assert status == 400, payload
        assert "zero-length axis" in payload["error"] or "NaN" in payload["error"]

    @pytest.mark.parametrize(
        "route, limit_name",
        [
            ("/v1/segment", "MAX_IMAGES_PER_REQUEST"),
            ("/v1/segment-stream", "MAX_STREAM_IMAGES"),
        ],
    )
    def test_over_limit_frame_count_is_refused_before_any_frame_parses(
        self, app, monkeypatch, route, limit_name
    ):
        from repro.serving import http as http_module

        limit = getattr(http_module, limit_name)
        body = pack_frames(
            (index, np.zeros((1, 1), np.uint8)) for index in range(limit + 1)
        )
        parsed = []
        real_parse = http_module.array_from_npy_bytes

        def counting_parse(data):
            parsed.append(len(data))
            return real_parse(data)

        monkeypatch.setattr(http_module, "array_from_npy_bytes", counting_parse)
        status, payload = app.handle_request(
            "POST", route, body, content_type=_OCTET
        )
        assert status == 400
        assert f"the limit is {limit}" in payload["error"]
        assert parsed == []

    def test_transport_counters_split_by_wire_form(self, app):
        image = _image(seed=8)
        app.handle_request(
            "POST", "/v1/segment", npy_bytes(image), content_type=_OCTET
        )
        status, _ = app.handle_request(
            "POST",
            "/v1/segment",
            json.dumps({"image": _retired_data_payload(image)}).encode(),
        )
        assert status == 400  # the retired form is refused, not counted
        app.handle_request(
            "POST",
            "/v1/segment",
            json.dumps({"image": image.tolist()}).encode(),
        )
        transport = app.http_stats.snapshot()["transport"]
        assert set(transport) == {"http-raw", "http-json"}
        raw = transport["http-raw"]
        assert raw["images"] == 1
        assert raw["bytes_in"] == len(npy_bytes(image))
        assert raw["bytes_out"] > 0
        assert raw["bytes_per_image"] == raw["bytes_in"] + raw["bytes_out"]
        # JSON counts the decoded pixel bytes, not the decimal text.
        listed = transport["http-json"]
        assert listed["images"] == 1
        assert listed["bytes_in"] == image.nbytes


class TestStreamingDispatch:
    """The chunked /v1/segment-stream endpoint at the dispatch level."""

    def _consume(self, payload: StreamingResponse) -> bytes:
        assert isinstance(payload, StreamingResponse)
        return b"".join(payload.chunks)

    def test_stream_frames_cover_every_image_bit_exactly(self, app):
        images = [_image(seed=i) for i in range(4)]
        expected = SegHDCEngine(_config()).segment_batch(images)
        status, payload = app.handle_request(
            "POST",
            "/v1/segment-stream",
            pack_frames(enumerate(images)),
            content_type=_OCTET,
        )
        assert status == 200
        entries = dict(unpack_frames(self._consume(payload)))
        # Frames arrive in completion order; indices map back to inputs.
        assert sorted(entries) == list(range(len(images)))
        for index, reference in enumerate(expected):
            assert np.array_equal(entries[index], reference.labels)

    def test_stream_accepts_the_json_envelope_too(self, app):
        images = [_image(seed=i) for i in range(2)]
        expected = SegHDCEngine(_config()).segment_batch(images)
        body = json.dumps(
            {"images": [_pixels_payload(image) for image in images]}
        ).encode()
        status, payload = app.handle_request(
            "POST", "/v1/segment-stream", body
        )
        assert status == 200
        entries = dict(unpack_frames(self._consume(payload)))
        for index, reference in enumerate(expected):
            assert np.array_equal(entries[index], reference.labels)

    def test_stream_failure_becomes_an_error_frame(self, app):
        # A 1x1 image passes wire validation but fails in the worker
        # (2 clusters need 2 pixels): the stream must end with an error
        # frame, not a hung or silently truncated response.
        status, payload = app.handle_request(
            "POST",
            "/v1/segment-stream",
            npy_bytes(np.array([[3]], dtype=np.uint8)),
            content_type=_OCTET,
        )
        assert status == 200  # headers were already committed by design
        with pytest.raises(HTTPRequestError, match="cannot form 2 clusters"):
            unpack_frames(self._consume(payload))

    def test_stream_records_transport_bytes(self, app):
        image = _image(seed=9)
        body = npy_bytes(image)
        _, payload = app.handle_request(
            "POST", "/v1/segment-stream", body, content_type=_OCTET
        )
        self._consume(payload)
        transport = app.http_stats.snapshot()["transport"]["http-raw"]
        assert transport["bytes_in"] == len(body)
        assert transport["bytes_out"] > 0


class TestDispatch:
    """Socket-free routing through ``handle_request``."""

    def test_healthz(self, app):
        status, payload = app.handle_request("GET", "/healthz", b"")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["mode"] == "thread"
        assert payload["num_workers"] == 2

    def test_unknown_path_is_404_and_wrong_method_is_405(self, app):
        assert app.handle_request("GET", "/nope", b"")[0] == 404
        assert app.handle_request("POST", "/healthz", b"{}")[0] == 405
        assert app.handle_request("GET", "/v1/segment", b"")[0] == 405

    def test_malformed_bodies_are_400(self, app):
        assert app.handle_request("POST", "/v1/segment", b"")[0] == 400
        assert app.handle_request("POST", "/v1/segment", b"not json")[0] == 400
        assert app.handle_request("POST", "/v1/segment", b"[1,2]")[0] == 400
        status, payload = app.handle_request(
            "POST", "/v1/segment", json.dumps({"images": []}).encode()
        )
        assert status == 400 and "empty" in payload["error"]
        status, _ = app.handle_request(
            "POST",
            "/v1/segment",
            json.dumps(
                {"image": _pixels_payload(_image()), "images": []}
            ).encode(),
        )
        assert status == 400

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 100_000,  # nesting deeper than the recursion limit
            b'{"image": [[' + b"1" * 5000 + b"]]}",  # over int's digit limit
            b'{"image": [[1' + b"0" * 400 + b"]]}",  # overflows float64
        ],
        ids=["deep-nesting", "long-int", "float-overflow"],
    )
    def test_pathological_json_is_400(self, app, body):
        assert app.handle_request("POST", "/v1/segment", body)[0] == 400

    def test_segment_single_image_matches_direct_engine(self, app):
        image = _image(seed=3)
        expected = SegHDCEngine(_config()).segment(image)
        status, payload = app.handle_request(
            "POST",
            "/v1/segment",
            json.dumps({"image": _pixels_payload(image)}).encode(),
        )
        assert status == 200, payload.get("error")
        assert payload["count"] == 1
        entry = payload["results"][0]
        assert np.array_equal(_labels_from(entry), expected.labels)
        assert entry["num_clusters"] == 2
        assert entry["workload"]["backend"] == "dense"
        assert "cache" in entry["workload"]

    def test_segment_batch_list_response_and_workload_toggle(self, app):
        images = [_image(seed=i) for i in range(3)]
        expected = SegHDCEngine(_config()).segment_batch(images)
        body = json.dumps(
            {
                "images": [_pixels_payload(image) for image in images],
                "response_encoding": "list",
                "include_workload": False,
            }
        ).encode()
        status, payload = app.handle_request("POST", "/v1/segment", body)
        assert status == 200, payload.get("error")
        assert payload["count"] == 3
        for ref, entry in zip(expected, payload["results"]):
            assert np.array_equal(_labels_from(entry), ref.labels)
            assert "workload" not in entry

    def test_segment_rejects_oversize_batches(self, app):
        from repro.serving import http as http_module

        body = json.dumps(
            {"images": [[[1]]] * (http_module.MAX_IMAGES_PER_REQUEST + 1)}
        ).encode()
        status, payload = app.handle_request("POST", "/v1/segment", body)
        assert status == 400 and "limit" in payload["error"]

    def test_segmenters_listing(self, app):
        status, payload = app.handle_request("GET", "/v1/segmenters", b"")
        assert status == 200
        names = [entry["name"] for entry in payload["segmenters"]]
        assert "seghdc" in names and "cnn_baseline" in names
        seghdc = next(e for e in payload["segmenters"] if e["name"] == "seghdc")
        assert "dimension" in seghdc["config_fields"]
        backends = {entry["name"]: entry for entry in payload["backends"]}
        assert backends["packed"]["capabilities"]["storage"] == "uint64"
        assert payload["serving"]["segmenter"]["segmenter"] == "seghdc"

    def test_retired_data_image_payload_is_400_naming_it(self, app):
        body = json.dumps({"image": _retired_data_payload(_image())}).encode()
        status, payload = app.handle_request("POST", "/v1/segment", body)
        assert status == 400
        assert "'data'" in payload["error"] and "retired" in payload["error"]

    def test_retired_npy_response_encoding_is_400_naming_it(self, app):
        body = json.dumps(
            {"image": _pixels_payload(_image()), "response_encoding": "npy"}
        ).encode()
        status, payload = app.handle_request("POST", "/v1/segment", body)
        assert status == 400
        assert "'npy'" in payload["error"]
        assert "('list', 'raw')" in payload["error"]

    def test_retired_run_spec_route_is_404_naming_the_path(self, app):
        body = json.dumps({"segmenter": "seghdc"}).encode()
        status, payload = app.handle_request("POST", "/v1/run-spec", body)
        assert status == 404
        assert "/v1/run-spec" in payload["error"]

    def test_stats_reports_serving_and_http_counters(self, app):
        app.handle_request("GET", "/healthz", b"")
        app.handle_request(
            "POST",
            "/v1/segment",
            json.dumps({"image": _pixels_payload(_image())}).encode(),
        )
        status, payload = app.handle_request("GET", "/stats", b"")
        assert status == 200
        serving = payload["serving"]
        assert serving["completed"] >= 1
        assert serving["cache"]["position_grid_builds"] >= 1
        assert set(serving["latency"]) >= {"count", "p50", "p90", "p99"}
        # HTTP counters come from the socket layer; dispatch-only calls do
        # not count, so the dict is present with its full shape.
        assert set(payload["http"]) == {
            "requests", "errors", "disconnects", "by_route", "latency",
            "transport",
        }

    def test_everything_is_json_serializable(self, app):
        """The handler JSON-encodes whatever dispatch returns; numpy types
        in workloads must not break that."""
        for method, path, body in [
            ("GET", "/healthz", b""),
            ("GET", "/stats", b""),
            ("GET", "/v1/segmenters", b""),
            (
                "POST",
                "/v1/segment",
                json.dumps({"image": _pixels_payload(_image())}).encode(),
            ),
        ]:
            _, payload = app.handle_request(method, path, body)
            from repro.serving.http import _json_default

            json.dumps(payload, default=_json_default)


class TestSaturation:
    def test_saturated_server_returns_503_instead_of_blocking(self):
        """The /v1/segment path submits without blocking so a full queue
        surfaces as a 503, not as a hung handler thread."""
        import time as time_module

        from repro.api.result import SegmentationResult

        class _SlowSegmenter:
            """Thread-safe stub that holds a worker long enough for the
            queue to fill behind it."""

            def segment(self, image):
                """Sleep, then return an all-zero label map."""
                time_module.sleep(0.5)
                labels = np.zeros(np.asarray(image).shape[:2], dtype=int)
                return SegmentationResult(
                    labels=labels, elapsed_seconds=0.5, num_clusters=2
                )

            def segment_batch(self, images):
                """Serial batch over :meth:`segment`."""
                return [self.segment(image) for image in images]

            def describe(self):
                """Minimal spec dict (thread mode never rebuilds it)."""
                return {"segmenter": "slow-stub"}

        with SegmentationHTTPServer(
            _SlowSegmenter(),
            port=0,
            serving={
                "mode": "thread",
                "num_workers": 1,
                "max_queue_depth": 1,
                "max_batch_size": 1,
            },
        ) as server:
            body = json.dumps(
                {"images": [[[0, 1], [2, 3]]] * 8}
            ).encode()
            status, payload = server.handle_request(
                "POST", "/v1/segment", body
            )
        assert status == 503, payload
        assert "saturated" in payload["error"]


class TestOverSocket:
    """Real HTTP over a loopback socket, as CI's http-smoke job drives it."""

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_served_label_maps_are_bit_exact_vs_direct_engine(self, backend):
        config = _config(backend=backend)
        images = [_image(seed=i) for i in range(3)]
        expected = SegHDCEngine(config).segment_batch(images)
        with SegmentationHTTPServer(
            config, port=0, serving={"mode": "thread", "num_workers": 2}
        ) as server:
            server.start()
            url = f"http://{server.host}:{server.port}"
            body = json.dumps(
                {"images": [_pixels_payload(image) for image in images]}
            ).encode()
            request = urllib.request.Request(
                f"{url}/v1/segment",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                payload = json.load(response)
            for ref, entry in zip(expected, payload["results"]):
                assert np.array_equal(_labels_from(entry), ref.labels)
            with urllib.request.urlopen(f"{url}/stats", timeout=30) as response:
                stats = json.load(response)
            assert stats["serving"]["completed"] == 3
            assert stats["http"]["requests"] >= 1
            assert stats["http"]["by_route"]["/v1/segment"] == 1

    def test_http_error_statuses_over_socket(self):
        with SegmentationHTTPServer(_config(), port=0) as server:
            server.start()
            url = f"http://{server.host}:{server.port}"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{url}/does-not-exist", timeout=30)
            assert excinfo.value.code == 404
            assert "error" in json.load(excinfo.value)
            request = urllib.request.Request(
                f"{url}/v1/segment", data=b"not json"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400

    def test_malformed_content_length_gets_400_not_a_hung_thread(self):
        """A negative or garbage Content-Length must be answered without
        reading the body (read(-1) would block until the client hangs up,
        pinning a handler thread)."""
        import socket

        with SegmentationHTTPServer(_config(), port=0) as server:
            server.start()
            for value in (b"-1", b"abc"):
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as conn:
                    conn.sendall(
                        b"POST /v1/segment HTTP/1.1\r\n"
                        b"Host: test\r\n"
                        b"Content-Length: " + value + b"\r\n\r\n"
                    )
                    conn.settimeout(10)
                    response = conn.recv(4096)
                assert b"400" in response.split(b"\r\n", 1)[0], response

    def test_process_mode_parity_and_per_worker_grid_builds(self):
        """The acceptance shape of CI's http-smoke job: a multi-worker
        process-mode server serves same-shape images over HTTP bit-exactly,
        and /stats reports one position-grid build per worker engine."""
        config = _config()
        images = [_image((16, 20), seed=i) for i in range(6)]
        expected = SegHDCEngine(config).segment_batch(images)
        with SegmentationHTTPServer(
            config,
            port=0,
            serving={"mode": "process", "num_workers": 2, "max_batch_size": 1},
        ) as server:
            server.start()
            url = f"http://{server.host}:{server.port}"
            body = json.dumps(
                {"images": [_pixels_payload(image) for image in images]}
            ).encode()
            request = urllib.request.Request(f"{url}/v1/segment", data=body)
            with urllib.request.urlopen(request, timeout=300) as response:
                payload = json.load(response)
            for ref, entry in zip(expected, payload["results"]):
                assert np.array_equal(_labels_from(entry), ref.labels)
            with urllib.request.urlopen(f"{url}/stats", timeout=30) as response:
                stats = json.load(response)
        cache = stats["serving"]["cache"]
        assert 1 <= cache["engines"] <= 2, cache
        assert cache["position_grid_builds"] == cache["engines"], cache

    def test_raw_octet_stream_bodies_over_socket(self):
        """Raw ``.npy`` request and response over a real socket, bit-exact
        against a direct engine run, with /stats counting the raw wire
        form's bytes."""
        images = [_image(seed=i) for i in range(2)]
        expected = SegHDCEngine(_config()).segment_batch(images)
        with SegmentationHTTPServer(
            _config(), port=0, serving={"mode": "thread", "num_workers": 2}
        ) as server:
            server.start()
            url = f"http://{server.host}:{server.port}"
            request = urllib.request.Request(
                f"{url}/v1/segment",
                data=pack_frames(enumerate(images)),
                headers={"Content-Type": _OCTET},
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                assert response.headers["Content-Type"] == _OCTET
                assert response.headers["X-Seghdc-Count"] == "2"
                body = response.read()
            for (_, labels), reference in zip(unpack_frames(body), expected):
                assert np.array_equal(labels, reference.labels)
            with urllib.request.urlopen(f"{url}/stats", timeout=30) as response:
                stats = json.load(response)
        transport = stats["http"]["transport"]
        assert transport["http-raw"]["images"] == 2
        assert transport["http-raw"]["bytes_out"] == len(body)

    def test_segment_stream_chunked_over_socket(self):
        """The streaming endpoint over a real socket: urllib transparently
        decodes the chunked transfer coding, and the reassembled container
        carries every label map bit-exactly."""
        images = [_image(seed=i) for i in range(3)]
        expected = SegHDCEngine(_config()).segment_batch(images)
        with SegmentationHTTPServer(
            _config(), port=0, serving={"mode": "thread", "num_workers": 2}
        ) as server:
            server.start()
            request = urllib.request.Request(
                f"http://{server.host}:{server.port}/v1/segment-stream",
                data=pack_frames(enumerate(images)),
                headers={"Content-Type": _OCTET},
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                assert response.headers["Transfer-Encoding"] == "chunked"
                body = response.read()
        entries = dict(unpack_frames(body))
        assert sorted(entries) == list(range(len(images)))
        for index, reference in enumerate(expected):
            assert np.array_equal(entries[index], reference.labels)


def _threshold_server() -> SegmentationHTTPServer:
    """A started server around the ``threshold`` probe (compute ~ 0)."""
    return SegmentationHTTPServer(
        "threshold", port=0, serving={"mode": "thread", "num_workers": 1}
    ).start()


def _keepalive_median_rtt(host, port, body, *, requests=20) -> float:
    """Median seconds of sequential raw-npy POSTs on one keep-alive socket."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    rtts = []
    try:
        for _ in range(requests):
            start = time.perf_counter()
            connection.request(
                "POST",
                "/v1/segment",
                body=body,
                headers={"Content-Type": _OCTET},
            )
            response = connection.getresponse()
            response.read()
            rtts.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()
    return statistics.median(rtts)


class _WriteSpy:
    """Wraps a handler's ``wfile`` and records every write it is given."""

    def __init__(self, inner, writes: list) -> None:
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestWireDiscipline:
    """How replies leave the socket: no Nagle stall, one write per chunk.

    With Nagle on, a sub-MSS body written after the headers waits for the
    client's ACK of the header segment, and Linux delays that ACK by 40 ms
    — so every small keep-alive reply used to take >= 40 ms.  The 20 ms
    bound sits well clear of both the stall and a working reply (~1-2 ms).
    """

    def test_small_keepalive_requests_skip_the_delayed_ack_stall(self):
        body = npy_bytes(_image(shape=(16, 16)))
        with _threshold_server() as server:
            median = _keepalive_median_rtt(server.host, server.port, body)
        assert median < 0.020, f"median RTT {median * 1000:.1f} ms"

    def test_small_requests_through_a_one_replica_gateway(self):
        body = npy_bytes(_image(shape=(16, 16)))
        with _threshold_server() as replica:
            with ClusterGateway(port=0, probe_interval=0.5).start() as gateway:
                gateway.register_replica("replica-0", replica.host, replica.port)
                gateway.wait_ready(timeout=30.0)
                median = _keepalive_median_rtt(
                    gateway.host, gateway.port, body
                )
        assert median < 0.020, f"median RTT {median * 1000:.1f} ms"

    def test_each_streamed_chunk_is_one_socket_write(self, monkeypatch):
        from repro.serving.http import _Handler

        writes: list = []
        nodelay: list = []
        original_setup = _Handler.setup

        def spying_setup(handler):
            original_setup(handler)
            nodelay.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )
            handler.wfile = _WriteSpy(handler.wfile, writes)

        monkeypatch.setattr(_Handler, "setup", spying_setup)
        images = [_image(shape=(16, 16), seed=s) for s in range(4)]
        with _threshold_server() as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                connection.request(
                    "POST",
                    "/v1/segment-stream",
                    body=pack_frames(enumerate(images)),
                    headers={"Content-Type": _OCTET},
                )
                response = connection.getresponse()
                body = response.read()
            finally:
                connection.close()
        assert nodelay and all(nodelay), nodelay
        headers, *chunks, terminator = writes
        assert headers.startswith(b"HTTP/1.1 200") and headers.endswith(
            b"\r\n\r\n"
        )
        assert terminator == b"0\r\n\r\n"
        # Container header + one frame per image, each a complete chunk.
        assert len(chunks) == 1 + len(images)
        payloads = []
        for write in chunks:
            size_line, rest = write.split(b"\r\n", 1)
            assert rest.endswith(b"\r\n")
            assert int(size_line, 16) == len(rest) - 2
            payloads.append(rest[:-2])
        assert b"".join(payloads) == body
        assert sorted(index for index, _ in unpack_frames(body)) == [0, 1, 2, 3]

    def test_client_hangup_is_counted_not_traced(self, monkeypatch, capfd):
        hung_up = threading.Event()

        def chunks():
            yield b"first"
            hung_up.wait(10)
            for _ in range(256):
                yield b"x" * 1024

        with _threshold_server() as server:
            monkeypatch.setattr(
                server,
                "handle_request",
                lambda *args, **kwargs: (
                    200,
                    StreamingResponse(chunks=chunks()),
                ),
            )
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as client:
                client.sendall(
                    b"POST /v1/segment-stream HTTP/1.1\r\n"
                    b"Host: test\r\nContent-Length: 0\r\n\r\n"
                )
                received = b""
                while b"first" not in received:
                    data = client.recv(4096)
                    assert data, received
                    received += data
                # Linger 0: close() resets the connection at once, so the
                # next server write fails instead of filling a buffer.
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            hung_up.set()
            deadline = time.monotonic() + 10
            while (
                server.http_stats.snapshot()["disconnects"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert server.http_stats.snapshot()["disconnects"] == 1
        assert "Traceback" not in capfd.readouterr().err


@pytest.fixture(params=["replica", "gateway"])
def front_door(request):
    """A started replica or gateway; both speak through the shared handler."""
    if request.param == "replica":
        app = _threshold_server()
    else:
        app = ClusterGateway(port=0, probe_interval=0.5).start()
    with app:
        yield app


def _read_until_closed(conn: socket.socket) -> bytes:
    """Everything the peer sends before closing (fails on a 10 s stall)."""
    conn.settimeout(10)
    received = b""
    while True:
        data = conn.recv(65536)
        if not data:
            return received
        received += data


class TestRequestHygiene:
    """What the shared handler keeps bounded and in sync, on both apps."""

    def test_unknown_paths_share_one_by_route_key(self, front_door):
        connection = http.client.HTTPConnection(
            front_door.host, front_door.port, timeout=30
        )
        try:
            for index in range(60):
                connection.request("GET", f"/nope/{index}")
                response = connection.getresponse()
                response.read()
                assert response.status == 404
            connection.request("GET", "/healthz/?probe=1")
            connection.getresponse().read()
        finally:
            connection.close()
        by_route = front_door.http_stats.snapshot()["by_route"]
        assert by_route == {UNMATCHED_ROUTE: 60, "/healthz": 1}, sorted(by_route)

    def test_request_is_counted_before_its_body_is_written(
        self, front_door, monkeypatch
    ):
        """A client that has read its reply finds it in ``/stats``."""
        counts_at_write = []
        original_setup = _Handler.setup

        class CountingWriter:
            def __init__(self, wfile):
                self._wfile = wfile

            def write(self, data):
                snapshot = front_door.http_stats.snapshot()
                counts_at_write.append(snapshot["requests"])
                return self._wfile.write(data)

            def __getattr__(self, name):
                return getattr(self._wfile, name)

        def setup(handler):
            original_setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", setup)
        connection = http.client.HTTPConnection(
            front_door.host, front_door.port, timeout=30
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 200
        # Headers and body are separate writes; the body write is last.
        assert counts_at_write[-1] == 1, counts_at_write

    def test_transfer_encoding_body_gets_one_json_411_then_close(
        self, front_door
    ):
        with socket.create_connection(
            (front_door.host, front_door.port), timeout=10
        ) as conn:
            conn.sendall(
                b"POST /v1/segment HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"d\r\n{\"images\": []}\r\n0\r\n\r\n"
            )
            received = _read_until_closed(conn)
        assert received.count(b"HTTP/1.1 ") == 1, received
        head, body = received.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 411 "), head
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert "Transfer-Encoding" in json.loads(body)["error"]


class TestConfigEndpoint:
    """``POST /v1/config``: the HTTP face of the live control plane."""

    @staticmethod
    def _post_config(server, diff):
        return server.handle_request(
            "POST",
            "/v1/config",
            json.dumps(diff).encode(),
            content_type="application/json",
        )

    def test_disabled_by_default(self, app):
        status, payload = self._post_config(app, {"config": {}})
        assert status == 403
        assert "allow-reconfig" in payload["error"]

    def test_swap_reports_generation_everywhere(self):
        with SegmentationHTTPServer(
            _config(),
            port=0,
            serving={"mode": "thread", "num_workers": 2},
            allow_reconfig=True,
        ) as server:
            status, health = server.handle_request("GET", "/healthz", b"")
            assert status == 200
            assert health["config_generation"] == 1
            assert health["reconfig_allowed"] is True

            status, outcome = self._post_config(
                server, {"config": {"backend": "packed"}}
            )
            assert status == 200
            assert outcome["status"] == "swapped"
            assert outcome["generation"] == 2
            assert outcome["changed"] == ["config.backend"]

            status, payload = server.handle_request(
                "POST",
                "/v1/segment",
                json.dumps({"image": {"pixels": _image().tolist()}}).encode(),
                content_type="application/json",
            )
            assert status == 200
            assert (
                payload["results"][0]["workload"]["config_generation"] == 2
            )

            status, stats = server.handle_request("GET", "/stats", b"")
            assert status == 200
            assert stats["config_generation"] == 2
            control = stats["serving"]["control"]
            assert control["config_generation"] == 2
            assert control["last_swap"]["status"] == "swapped"
            assert control["generations"]["2"]["completed"] >= 1

            status, listing = server.handle_request(
                "GET", "/v1/segmenters", b""
            )
            assert status == 200
            assert listing["serving"]["config_generation"] == 2
            assert (
                listing["serving"]["segmenter"]["config"]["backend"]
                == "packed"
            )

    def test_invalid_diff_is_a_400_naming_the_field(self):
        with SegmentationHTTPServer(
            _config(),
            port=0,
            serving={"mode": "thread", "num_workers": 1},
            allow_reconfig=True,
        ) as server:
            status, payload = self._post_config(
                server, {"config": {"bogus": 1}}
            )
            assert status == 400
            assert "bogus" in payload["error"]
            status, payload = self._post_config(server, {"nonsense": 1})
            assert status == 400
            assert "nonsense" in payload["error"]
            # The server keeps serving on the untouched generation.
            assert server.control.generation == 1

    def test_retired_share_grid_cache_is_a_400_naming_it(self):
        with SegmentationHTTPServer(
            _config(),
            port=0,
            serving={"mode": "thread", "num_workers": 1},
            allow_reconfig=True,
        ) as server:
            status, payload = self._post_config(
                server, {"serving": {"share_grid_cache": False}}
            )
            assert status == 400
            assert "share_grid_cache" in payload["error"]
            assert server.control.generation == 1

    @pytest.mark.parametrize("key", ["use_shared_memory", "shm_slot_bytes"])
    def test_retired_shm_keys_are_a_400_naming_them(self, key):
        value = False if key == "use_shared_memory" else 1 << 20
        with SegmentationHTTPServer(
            _config(),
            port=0,
            serving={"mode": "thread", "num_workers": 1},
            allow_reconfig=True,
        ) as server:
            status, payload = self._post_config(
                server, {"serving": {"mode": "process", key: value}}
            )
            assert status == 400
            assert key in payload["error"]
            assert server.control.generation == 1

    def test_color_levels_above_256_is_a_400_naming_it(self):
        with SegmentationHTTPServer(
            _config(),
            port=0,
            serving={"mode": "thread", "num_workers": 1},
            allow_reconfig=True,
        ) as server:
            status, payload = self._post_config(
                server, {"config": {"color_levels": 257}}
            )
            assert status == 400
            assert "color_levels" in payload["error"]
            assert server.control.generation == 1

    def test_get_method_not_allowed(self, app):
        status, payload = app.handle_request("GET", "/v1/config", b"")
        assert status == 405


class TestReplicaIdentity:
    """``/healthz`` identity triple + the bound ephemeral ``port``."""

    def test_healthz_carries_the_identity_triple(self, app):
        import os
        import re
        import time

        status, body = app.handle_request("GET", "/healthz", b"")
        assert status == 200
        # instance_id: fresh random hex per process start, for the fleet
        # prober's silent-restart detection.
        assert re.fullmatch(r"[0-9a-f]{16}", body["instance_id"])
        assert body["pid"] == os.getpid()
        assert 0 < body["started_at"] <= time.time()

    def test_instance_ids_are_distinct_across_servers(self, app):
        with SegmentationHTTPServer(
            _config(), port=0, serving={"mode": "thread", "num_workers": 1}
        ) as other:
            _, first = app.handle_request("GET", "/healthz", b"")
            _, second = other.handle_request("GET", "/healthz", b"")
            assert first["instance_id"] != second["instance_id"]

    def test_port_reports_the_ephemeral_port(self):
        with SegmentationHTTPServer(
            _config(), port=0, serving={"mode": "thread", "num_workers": 1}
        ).start() as server:
            assert server.port == server._httpd.socket.getsockname()[1]
            assert server.port != 0
            assert not hasattr(server, "bound_port")
