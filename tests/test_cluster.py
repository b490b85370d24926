"""Tests for the multi-node serving layer (:mod:`repro.serving.cluster`).

The replica fleet here is real :class:`SegmentationHTTPServer` instances on
ephemeral ports inside this process (fast, deterministic teardown); the
gateway is driven both socket-free through ``handle_request`` — the same
dispatch contract the HTTP handler wraps — and over its replica clients'
real sockets.  Covers: the connection pool's keep-alive + failure
semantics, prober hysteresis and silent-restart detection (with stub
clients, so timing is exact), shape-affine routing with bit-exact parity
against a direct engine, the fleet stats rollup, and bounded failover on
both the batch and streaming endpoints.  The SIGKILL-mid-stream case rides
in ``tools/cluster_smoke.py`` where replicas are real subprocesses.
"""

from __future__ import annotations

import base64
import os
import re
import time

import numpy as np
import pytest

from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.serving import SegmentationHTTPServer
from repro.serving.cluster import (
    ClusterGateway,
    HealthProber,
    ReplicaClient,
    ReplicaHTTPError,
    ReplicaUnavailable,
)
from repro.serving.cluster.supervisor import PORT_LINE
from repro.serving.http import (
    RawResponse,
    StreamingResponse,
    npy_bytes,
    pack_frames,
    unpack_frames,
)

_OCTET = "application/octet-stream"


def _config(**overrides):
    base = SegHDCConfig(
        dimension=300, num_clusters=2, num_iterations=2, alpha=0.2, beta=3, seed=0
    )
    return base.with_overrides(**overrides)


def _image(shape=(20, 24), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _replica_server() -> SegmentationHTTPServer:
    return SegmentationHTTPServer(
        _config(), port=0, serving={"mode": "thread", "num_workers": 1}
    ).start()


@pytest.fixture()
def fleet():
    """A 2-replica fleet behind an (unstarted-socket) gateway.

    The gateway's own HTTP socket is not needed — ``handle_request`` is the
    dispatch surface under test — but the replicas are fully started
    servers and the gateway talks to them over real TCP.
    """
    servers = [_replica_server() for _ in range(2)]
    gateway = ClusterGateway(port=0, probe_interval=0.1, max_attempts=3)
    try:
        for index, server in enumerate(servers):
            gateway.register_replica(f"replica-{index}", server.host, server.port)
        gateway.wait_ready(timeout=30.0)
        yield gateway, servers
    finally:
        gateway.close()
        for server in servers:
            server.close()


class TestReplicaClient:
    def test_keep_alive_reuses_one_connection(self):
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                for _ in range(5):
                    body = client.get_json("/healthz")
                    assert body["status"] == "ok"
                assert client.connections_created == 1
                assert client.snapshot()["requests"] == 5

    def test_dead_port_raises_replica_unavailable(self):
        with _replica_server() as server:
            port = server.port
        # The server is closed: its port now refuses connections.
        with ReplicaClient("r0", "127.0.0.1", port, timeout=2.0) as client:
            with pytest.raises(ReplicaUnavailable):
                client.get_json("/healthz")
            assert client.snapshot()["transport_failures"] == 1

    def test_http_error_is_not_a_transport_failure(self):
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                with pytest.raises(ReplicaHTTPError) as excinfo:
                    client.post_json("/v1/segment", {"bogus": 1})
                assert excinfo.value.status == 400
                assert client.snapshot()["transport_failures"] == 0

    def test_segment_raw_matches_direct_engine(self):
        images = [_image(seed=s) for s in range(3)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                labels = client.segment_raw(images)
        for index, expected in enumerate(reference):
            assert np.array_equal(labels[index], expected.labels)

    def test_open_stream_yields_every_frame(self):
        images = [_image(seed=s) for s in range(4)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                with client.open_stream(images) as reader:
                    frames = dict(reader.frames())
                # The cleanly-finished stream recycles its connection.
                assert client.snapshot()["idle_connections"] >= 1
        assert sorted(frames) == list(range(len(images)))
        for index, expected in enumerate(reference):
            assert np.array_equal(frames[index], expected.labels)


class _StubClient:
    """Duck-typed replica client with scripted probe responses.

    ``script`` entries are either an Exception (the probe fails) or a
    ``(healthz_body, stats_body)`` pair; the prober only ever calls
    ``get_json``, so hysteresis timing is tested without sockets or sleeps.
    """

    def __init__(self, replica_id, script):
        self.replica_id = replica_id
        self.host, self.port = "stub", 0
        self.address = "stub:0"
        self._script = list(script)
        self._pending = None

    def get_json(self, path):
        if path == "/healthz":
            step = self._script.pop(0)
            if isinstance(step, Exception):
                raise step
            self._pending = step[1]
            return step[0]
        assert path == "/stats"
        return self._pending

    def snapshot(self):
        return {"address": self.address}


class TestHealthProber:
    def _prober(self, **kwargs):
        events = []
        prober = HealthProber(
            on_dead=lambda rid: events.append(("dead", rid)),
            on_alive=lambda rid: events.append(("alive", rid)),
            **kwargs,
        )
        return prober, events

    def test_hysteresis_requires_consecutive_failures(self):
        healthy = ({"status": "ok", "instance_id": "a", "pid": 1}, {"x": 1})
        prober, events = self._prober(fail_threshold=2, recover_threshold=1)
        prober.register(
            _StubClient(
                "r0",
                [
                    healthy,                     # round 1: alive
                    ReplicaUnavailable("boom"),  # round 2: 1st failure
                    healthy,                     # round 3: failure streak reset
                    ReplicaUnavailable("boom"),  # round 4: 1st failure again
                    ReplicaUnavailable("boom"),  # round 5: 2nd -> dead
                    healthy,                     # round 6: recovers
                ],
            )
        )
        for _ in range(4):
            prober.probe_all()
        # One isolated failure (with threshold 2) never ejects the replica.
        assert events == [("alive", "r0")]
        assert prober.alive_replicas() == ["r0"]
        prober.probe_all()
        assert events[-1] == ("dead", "r0")
        assert prober.alive_replicas() == []
        prober.probe_all()
        assert events[-1] == ("alive", "r0")

    def test_instance_id_change_counts_as_restart(self):
        prober, _ = self._prober(fail_threshold=1, recover_threshold=1)
        health = prober.register(
            _StubClient(
                "r0",
                [
                    ({"status": "ok", "instance_id": "aaa", "pid": 1}, {}),
                    ({"status": "ok", "instance_id": "aaa", "pid": 1}, {}),
                    ({"status": "ok", "instance_id": "bbb", "pid": 2}, {}),
                ],
            )
        )
        prober.probe_all()
        prober.probe_all()
        assert health.restarts_detected == 0
        prober.probe_all()
        # Same address, new instance id: a silent restart was detected.
        assert health.restarts_detected == 1
        assert health.instance_id == "bbb"
        assert prober.snapshot()[0]["restarts_detected"] == 1

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthProber(
                on_dead=lambda _: None, on_alive=lambda _: None,
                fail_threshold=0,
            )


class TestGatewayRouting:
    def test_raw_batch_is_bit_exact_and_shape_affine(self, fleet):
        gateway, servers = fleet
        shapes = [(20, 24), (28, 20)]
        images = [
            _image(shape=shapes[i % 2], seed=i) for i in range(6)
        ]
        reference = SegHDCEngine(_config()).segment_batch(images)
        for _ in range(2):  # repeated requests must not re-route
            status, payload = gateway.handle_request(
                "POST",
                "/v1/segment",
                pack_frames(enumerate(images)),
                content_type=_OCTET,
            )
            assert status == 200
            assert isinstance(payload, RawResponse)
            entries = dict(unpack_frames(payload.body))
            for index, expected in enumerate(reference):
                assert np.array_equal(entries[index], expected.labels)
        # Affinity: two shapes, each pinned to exactly one replica, and the
        # fleet built each shape's grid exactly once in total.
        gateway.prober.probe_all()
        status, stats = gateway.handle_request("GET", "/stats", b"")
        assert status == 200
        routing = stats["gateway"]["routing_table"]
        assert sorted(routing) == ["20x24", "28x20"]
        for shape_label, replica_id in routing.items():
            assert replica_id == gateway.ring.node_for(
                tuple(int(p) for p in shape_label.split("x"))
            )
        builds = sum(
            (entry or {}).get("position_grid_builds", 0)
            for entry in stats["fleet"]["per_replica"].values()
        )
        assert builds == len(shapes), stats["fleet"]
        assert stats["gateway"]["failovers"] == 0

    def test_json_request_reports_the_serving_replica(self, fleet):
        gateway, _ = fleet
        import json as json_module

        image = _image()
        body = json_module.dumps(
            {"image": {"pixels": image.tolist()}, "response_encoding": "list"}
        ).encode("utf-8")
        status, payload = gateway.handle_request(
            "POST", "/v1/segment", body, content_type="application/json"
        )
        assert status == 200
        entry = payload["results"][0]
        expected_owner = gateway.ring.node_for(tuple(image.shape))
        assert entry["replica"] == expected_owner
        assert entry["num_clusters"] >= 1
        reference = SegHDCEngine(_config()).segment(image)
        served = np.asarray(entry["labels"])
        assert np.array_equal(served, reference.labels)

    @pytest.mark.parametrize(
        "payload, match",
        [
            (
                {
                    "image": {
                        "data": base64.b64encode(npy_bytes(_image())).decode(),
                        "encoding": "npy",
                    }
                },
                "'data'.*retired",
            ),
            (
                {"image": [[0, 1], [2, 3]], "response_encoding": "npy"},
                "response_encoding 'npy'.*\\('list', 'raw'\\)",
            ),
        ],
        ids=["data-image", "npy-response"],
    )
    def test_retired_wire_forms_are_400_naming_the_form(
        self, fleet, payload, match
    ):
        import json as json_module

        gateway, _ = fleet
        status, body = gateway.handle_request(
            "POST",
            "/v1/segment",
            json_module.dumps(payload).encode("utf-8"),
            content_type="application/json",
        )
        assert status == 400
        assert re.search(match, body["error"]), body["error"]

    def test_stream_interleaves_every_frame_exactly_once(self, fleet):
        gateway, _ = fleet
        images = [
            _image(shape=(20, 24) if i % 2 else (28, 20), seed=i)
            for i in range(8)
        ]
        reference = SegHDCEngine(_config()).segment_batch(images)
        status, payload = gateway.handle_request(
            "POST",
            "/v1/segment-stream",
            pack_frames(enumerate(images)),
            content_type=_OCTET,
        )
        assert status == 200
        assert isinstance(payload, StreamingResponse)
        entries = unpack_frames(b"".join(payload.chunks))
        indices = sorted(index for index, _ in entries)
        assert indices == list(range(len(images)))
        for index, labels in entries:
            assert np.array_equal(labels, reference[index].labels)

    def test_sequential_streams_recycle_one_clean_connection(self):
        """Each stream is read to its chunked terminator before the replica
        connection goes back to the pool; a half-read connection recycled
        early fails the next stream on it (an error frame + a failover on
        a perfectly healthy fleet)."""
        images = [_image(seed=s) for s in range(2)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with _replica_server() as server:
            with ClusterGateway(port=0) as gateway:
                gateway.register_replica("replica-0", server.host, server.port)
                gateway.wait_ready(timeout=30.0)
                for _ in range(10):
                    status, payload = gateway.handle_request(
                        "POST",
                        "/v1/segment-stream",
                        pack_frames(enumerate(images)),
                        content_type=_OCTET,
                    )
                    assert status == 200
                    # unpack_frames raises on any non-zero frame status.
                    entries = dict(unpack_frames(b"".join(payload.chunks)))
                    for index, expected in enumerate(reference):
                        assert np.array_equal(entries[index], expected.labels)
                _, stats = gateway.handle_request("GET", "/stats", b"")
                client = gateway._client_for("replica-0")
                assert stats["gateway"]["failovers"] == 0
                assert client.connections_created == 1

    @staticmethod
    def _add_dead_replica(gateway, replica_id="replica-dead"):
        """Register a replica on a dead port and force it into routing.

        Models the window between a replica crashing and the prober
        noticing: the ring still owns arcs for it, but every connection is
        refused — the request itself must discover the death and fail over.
        Returns a shape the dead replica owns.
        """
        import socket

        with socket.socket() as probe_socket:
            probe_socket.bind(("127.0.0.1", 0))
            dead_port = probe_socket.getsockname()[1]
        gateway.register_replica(replica_id, "127.0.0.1", dead_port)
        gateway.ring.add(replica_id)
        for size in range(24, 512, 4):
            if gateway.ring.node_for((size, size)) == replica_id:
                return (size, size)
        raise AssertionError("no shape hashed to the dead replica")

    def test_batch_fails_over_to_the_next_ring_node(self, fleet):
        gateway, servers = fleet
        shape = self._add_dead_replica(gateway)
        image = _image(shape=shape)
        status, payload = gateway.handle_request(
            "POST",
            "/v1/segment",
            npy_bytes(image),
            content_type=_OCTET,
        )
        assert status == 200
        reference = SegHDCEngine(_config()).segment(image)
        from repro.serving.http import array_from_npy_bytes

        assert np.array_equal(
            array_from_npy_bytes(payload.body), reference.labels
        )
        _, stats = gateway.handle_request("GET", "/stats", b"")
        assert stats["gateway"]["failovers"] >= 1

    def test_stream_fails_over_to_the_next_ring_node(self, fleet):
        gateway, servers = fleet
        shape = self._add_dead_replica(gateway)
        images = [_image(shape=shape, seed=s) for s in range(3)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        status, payload = gateway.handle_request(
            "POST",
            "/v1/segment-stream",
            pack_frames(enumerate(images)),
            content_type=_OCTET,
        )
        assert status == 200
        entries = unpack_frames(b"".join(payload.chunks))
        assert sorted(index for index, _ in entries) == [0, 1, 2]
        for index, labels in entries:
            assert np.array_equal(labels, reference[index].labels)

    def test_no_replicas_is_a_503(self):
        with ClusterGateway(port=0) as gateway:
            status, payload = gateway.handle_request(
                "POST",
                "/v1/segment",
                npy_bytes(_image()),
                content_type=_OCTET,
            )
            assert status == 503
            assert "replica" in payload["error"]

    def test_unknown_route_and_bad_method(self, fleet):
        gateway, _ = fleet
        status, _ = gateway.handle_request("GET", "/nope", b"")
        assert status == 404
        status, _ = gateway.handle_request("GET", "/v1/segment", b"")
        assert status == 405

    def test_healthz_names_the_fleet(self, fleet):
        gateway, _ = fleet
        status, body = gateway.handle_request("GET", "/healthz", b"")
        assert status == 200
        assert body["role"] == "gateway"
        assert re.fullmatch(r"[0-9a-f]{16}", body["instance_id"])
        assert body["pid"] == os.getpid()
        assert body["replicas_registered"] == 2
        assert body["replicas_alive"] == ["replica-0", "replica-1"]


class TestSupervisorContract:
    def test_port_line_regex_matches_the_serve_output(self):
        assert PORT_LINE.match("SEGHDC_SERVE_PORT=18345").group(1) == "18345"
        assert PORT_LINE.match("SEGHDC_SERVE_PORT=0\n") is not None
        assert PORT_LINE.match("seghdc serve: on http://x:1") is None
        assert PORT_LINE.match("XSEGHDC_SERVE_PORT=1") is None

    def test_scale_to_grows_and_shrinks_the_fleet(self):
        """``scale_to`` is the cluster autoscaler's actuation seam.

        Growing spawns and registers new lowest-free-id replicas; shrinking
        retires the highest-numbered ones — unregistered from the gateway
        *before* the SIGTERM (the ring must stop routing first) and removed
        from monitor tracking so the restart loop cannot resurrect them.
        """
        from repro.serving.cluster import ClusterGateway, ReplicaSupervisor

        gateway = ClusterGateway(port=0, probe_interval=0.1)
        supervisor = ReplicaSupervisor(
            gateway,
            replicas=1,
            replica_args=[
                "--mode", "thread", "--workers", "1",
                "--segmenter", "threshold",
            ],
            monitor_interval=0.2,
        )
        try:
            supervisor.start()
            gateway.wait_ready(timeout=120.0)
            assert sorted(supervisor.snapshot()) == ["replica-0"]

            grown = supervisor.scale_to(2)
            assert grown["previous_replicas"] == 1
            assert grown["spawned"] == ["replica-1"]
            assert grown["retired"] == []
            assert sorted(supervisor.snapshot()) == ["replica-0", "replica-1"]
            assert set(gateway.prober.replica_stats()) == {
                "replica-0", "replica-1",
            }

            shrunk = supervisor.scale_to(1)
            assert shrunk["retired"] == ["replica-1"]
            assert sorted(supervisor.snapshot()) == ["replica-0"]
            # The retired replica left the gateway's membership too.
            assert set(gateway.prober.replica_stats()) == {"replica-0"}
            # And the monitor does not resurrect it.
            time.sleep(0.6)
            assert sorted(supervisor.snapshot()) == ["replica-0"]
            with pytest.raises(ValueError):
                supervisor.scale_to(0)
        finally:
            supervisor.stop()
            gateway.close()
