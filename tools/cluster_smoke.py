#!/usr/bin/env python
"""CI ``cluster-smoke`` driver: gateway + 2 replicas, end to end.

What it proves (in-process gateway, real replica subprocesses, real
sockets):

1. **Fleet parity + shape affinity** — a :class:`ClusterGateway` over 2
   supervised ``seghdc serve`` replicas serves a 3-shape workload; every
   label map must be bit-exact against a direct :class:`SegHDCEngine` run
   of the same config (raw framed wire and nested-list JSON both), and the
   ``/stats`` fleet rollup must show **exactly one** position-grid build
   per shape fleet-wide — each shape's grid was built on the one replica
   the ring routes it to, and each replica's build count equals the number
   of shapes in its routing-table slice.  Six sequential
   ``/v1/segment-stream`` requests then re-use the gateway's pooled
   replica connections: every frame must carry status 0, bit-exact, with
   **zero** failovers — a connection recycled before its stream was read
   to the end would fail the next stream on it.  Twelve timed
   single-image raw requests through the same gateway give the fleet's
   requests/s and p50/p99, written with the per-replica grid builds and
   routing table to ``cluster_bench.json`` under ``--output-dir`` for CI
   to upload and tabulate; ``affinity_holds`` must be true.
2. **Exactly-once failover** — a long ``/v1/segment-stream`` request runs
   while a replica that owns at least one shape is SIGKILLed mid-stream:
   the stream must still deliver **every frame exactly once** (zero lost,
   zero duplicated), all bit-exact vs the single-engine reference, with the
   gateway's failover counter proving the kill actually landed mid-flight.
Exit code is non-zero on any failed assertion.

Usage::

    PYTHONPATH=src python tools/cluster_smoke.py --output-dir cluster-smoke
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

_DIMENSION = 600
_ITERATIONS = 3
_SHAPES = [(32, 40), (48, 48), (40, 56)]
_REPLICA_ARGS = [
    "--mode", "thread",
    "--workers", "2",
    "--dimension", str(_DIMENSION),
    "--iterations", str(_ITERATIONS),
]


def _config():
    """The exact config every replica resolves from ``_REPLICA_ARGS``."""
    from repro.seghdc import SegHDCConfig

    return SegHDCConfig.paper_defaults("dsb2018").with_overrides(
        dimension=_DIMENSION, num_iterations=_ITERATIONS
    ).scaled_for_shape(64, 64)


def _images(count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=_SHAPES[i % len(_SHAPES)], dtype=np.uint8)
        for i in range(count)
    ]


def _get(url: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


def _post_raw(url: str, body: bytes, timeout: float = 600.0) -> bytes:
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/octet-stream"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def _boot_fleet(replicas: int = 2):
    """In-process gateway + subprocess replicas, health-gated.

    The gateway lives in this process so the smoke can reach its ring,
    prober, and the supervisor's pids directly (pass 2 SIGKILLs one); the
    replicas are real ``seghdc serve`` subprocesses on ephemeral ports.
    """
    from repro.serving.cluster import ClusterGateway, ReplicaSupervisor

    gateway = ClusterGateway(port=0, probe_interval=0.2).start()
    supervisor = ReplicaSupervisor(
        gateway, replicas=replicas, replica_args=list(_REPLICA_ARGS)
    )
    try:
        supervisor.start()
        gateway.wait_ready(timeout=120.0)
    except BaseException:
        supervisor.stop()
        gateway.close()
        raise
    return gateway, supervisor


def smoke_parity_and_affinity(output_dir: Path) -> None:
    """Pass 1: bit-exact fleet parity + one grid build per shape."""
    from repro.seghdc import SegHDCEngine
    from repro.serving.cluster import ReplicaClient
    from repro.serving.http import pack_frames, unpack_frames

    images = _images(12, seed=7)
    reference = SegHDCEngine(_config()).segment_batch(images)
    gateway, supervisor = _boot_fleet()
    try:
        url = f"http://{gateway.host}:{gateway.port}"
        # Raw framed wire through the gateway, bit-exact per image.
        entries = dict(
            unpack_frames(
                _post_raw(f"{url}/v1/segment", pack_frames(enumerate(images)))
            )
        )
        assert sorted(entries) == list(range(len(images))), sorted(entries)
        for index, expected in enumerate(reference):
            assert np.array_equal(entries[index], expected.labels), (
                f"fleet: raw label map {index} diverged from the direct "
                "engine run"
            )
        # The nested-list JSON wire form answers identically.
        body = json.dumps(
            {
                "images": [
                    {"pixels": image.tolist()}
                    for image in images[: len(_SHAPES)]
                ],
                "response_encoding": "list",
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            f"{url}/v1/segment",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=600) as response:
            payload = json.load(response)
        assert payload["count"] == len(_SHAPES), payload
        for index, entry in enumerate(payload["results"]):
            served = np.asarray(entry["labels"])
            assert np.array_equal(served, reference[index].labels), (
                f"fleet: JSON label map {index} diverged"
            )
            assert entry["replica"], entry

        # Sequential streams re-use pooled replica connections; unpack_frames
        # raises on any error frame, and the failover check below catches
        # a stream that only succeeded on its second replica.
        framed = pack_frames(enumerate(images[: len(_SHAPES)]))
        for _ in range(6):
            streamed = dict(
                unpack_frames(_post_raw(f"{url}/v1/segment-stream", framed))
            )
            for index in range(len(_SHAPES)):
                assert np.array_equal(
                    streamed[index], reference[index].labels
                ), f"fleet: streamed label map {index} diverged"

        # Timed single-image raw requests: the fleet's request rate and
        # latency percentiles for the CI summary.
        latencies = []
        with ReplicaClient("gateway", gateway.host, gateway.port) as client:
            start = time.perf_counter()
            for index, image in enumerate(images):
                request_start = time.perf_counter()
                (labels,) = client.segment_raw([image])
                latencies.append(time.perf_counter() - request_start)
                assert np.array_equal(labels, reference[index].labels), (
                    f"fleet: timed request {index} diverged"
                )
            total_seconds = time.perf_counter() - start

        # Affinity proof: refresh the prober cache, then read the rollup.
        gateway.prober.probe_all()
        stats = _get(f"{url}/stats")
        routing = stats["gateway"]["routing_table"]
        assert len(routing) == len(_SHAPES), routing
        per_replica = stats["fleet"]["per_replica"]
        builds = {
            replica_id: (entry or {}).get("position_grid_builds", 0)
            for replica_id, entry in per_replica.items()
        }
        total_builds = sum(builds.values())
        # Each replica must build exactly the shapes the ring routed to it.
        owned = {replica_id: 0 for replica_id in builds}
        for replica_id in routing.values():
            owned[replica_id] += 1
        p50, p99 = np.percentile(np.asarray(latencies), [50.0, 99.0])
        bench = {
            "replicas": len(per_replica),
            "images": len(images),
            "shapes": ["x".join(map(str, shape)) for shape in _SHAPES],
            "requests_per_second": len(images) / total_seconds,
            "latency": {"p50": float(p50), "p99": float(p99)},
            "grid_builds_per_replica": builds,
            "grid_builds_total": total_builds,
            "affinity_holds": (
                total_builds == len(_SHAPES) and builds == owned
            ),
            "routing_table": routing,
            "failovers": stats["gateway"]["failovers"],
        }
        # Written before the asserts so a failing run still leaves the
        # numbers for CI to publish.
        (output_dir / "cluster_bench.json").write_text(
            json.dumps(bench, indent=2) + "\n"
        )
        assert total_builds == len(_SHAPES), (
            f"shape affinity broken: {total_builds} grid builds fleet-wide "
            f"for {len(_SHAPES)} shapes (per replica: {builds}, "
            f"routing: {routing})"
        )
        assert builds == owned, (builds, owned)
        assert bench["affinity_holds"] is True, bench
        assert bench["requests_per_second"] > 0, bench
        assert stats["gateway"]["failovers"] == 0, (
            "failovers on a healthy fleet (sequential streams recycled a "
            f"dirty replica connection?): {stats['gateway']}"
        )
        (output_dir / "stats_parity_affinity.json").write_text(
            json.dumps(stats, indent=2) + "\n"
        )
    finally:
        supervisor.stop()
        gateway.close()
    print(
        "[cluster-smoke] parity + affinity: 12 images + 6 sequential "
        "streams bit-exact, 0 failovers, "
        f"{total_builds} grid builds for {len(_SHAPES)} shapes "
        f"({builds}) OK"
    )
    print(
        f"[cluster-smoke] bench: {bench['requests_per_second']:.1f} req/s, "
        f"p99={bench['latency']['p99'] * 1000:.0f}ms OK"
    )


def smoke_exactly_once_failover(output_dir: Path) -> None:
    """Pass 2: SIGKILL a shape-owning replica mid-stream; no frame lost."""
    from repro.seghdc import SegHDCEngine
    from repro.serving.cluster import ReplicaClient
    from repro.serving.http import pack_frames

    images = _images(30, seed=13)
    reference = SegHDCEngine(_config()).segment_batch(images)
    gateway, supervisor = _boot_fleet()
    try:
        url = f"http://{gateway.host}:{gateway.port}"
        # Route one small request per shape first so the routing table says
        # which replica owns what before anything is killed.
        _post_raw(
            f"{url}/v1/segment",
            pack_frames(enumerate(images[: len(_SHAPES)])),
        )
        routing = _get(f"{url}/stats")["gateway"]["routing_table"]
        victims = sorted(set(routing.values()))
        assert victims, routing
        victim_id = victims[0]
        victim = supervisor.replica(victim_id)
        assert victim is not None, supervisor.snapshot()

        # Read the stream incrementally (the replica client's frame reader
        # works against any server speaking the framed wire, the gateway
        # included) and SIGKILL the victim the moment the first frame
        # lands: the kill is then guaranteed to be mid-stream, with most of
        # the victim's queue undelivered.
        entries = []
        with ReplicaClient(
            "gateway", gateway.host, gateway.port, timeout=600.0
        ) as stream_client:
            with stream_client.open_stream(images) as reader:
                frame_iter = reader.frames()
                entries.append(next(frame_iter))
                os.kill(victim.pid, signal.SIGKILL)
                entries.extend(frame_iter)

        # Exactly once: every index present, none duplicated...
        indices = sorted(index for index, _ in entries)
        assert indices == list(range(len(images))), (
            f"lost/duplicated frames across the SIGKILL: got {len(indices)} "
            f"frames, duplicates="
            f"{sorted({i for i in indices if indices.count(i) > 1})}, "
            f"missing={sorted(set(range(len(images))) - set(indices))}"
        )
        # ... and bit-exact, whichever replica ended up serving it.
        for index, labels in entries:
            assert np.array_equal(labels, reference[index].labels), (
                f"failover: label map {index} diverged from the "
                "single-engine reference"
            )
        stats = _get(f"{url}/stats")
        assert stats["gateway"]["failovers"] >= 1, (
            "the SIGKILL never landed mid-stream (failovers == 0); "
            "the exactly-once path was not exercised — grow the workload"
        )
        (output_dir / "stats_failover.json").write_text(
            json.dumps(stats, indent=2) + "\n"
        )
    finally:
        supervisor.stop()
        gateway.close()
    print(
        f"[cluster-smoke] failover: SIGKILL {victim_id} mid-stream, "
        f"{len(images)} frames exactly-once bit-exact "
        f"({stats['gateway']['failovers']} failovers) OK"
    )


def main(argv: "list[str] | None" = None) -> int:
    """Run the full cluster smoke; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output-dir",
        default="cluster-smoke",
        help="directory for the stats + cluster_bench.json artifacts",
    )
    args = parser.parse_args(argv)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    smoke_parity_and_affinity(output_dir)
    smoke_exactly_once_failover(output_dir)
    print("[cluster-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
