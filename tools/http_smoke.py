#!/usr/bin/env python
"""CI ``http-smoke`` driver: boot ``seghdc serve`` and hit it over the wire.

What it proves, end to end (real subprocess, real sockets, stdlib clients only):

1. **Parity on both backends** — for ``dense`` and ``packed``, a thread-mode
   ``seghdc serve`` is booted, a 2-image batch is POSTed to
   ``/v1/segment`` as a raw framed ``.npy`` body, and the returned label
   maps must be bit-exact against a direct :class:`SegHDCEngine` run of
   the same config; the same batch sent as nested-list JSON must return
   the same labels as the raw reply.  ``/healthz`` / ``/stats`` sanity
   checks ride along.
2. **Process pool** — a 4-worker *process-mode* server serves a raw
   framed batch of same-shape images bit-exact against the dense engine,
   and ``/stats`` must report between one and one-per-worker position-grid
   builds (each worker builds the shape once) and no ``shared_*`` keys.
3. **Raw wire** — a 4-worker process-mode server around the ``threshold``
   probe serves a 512x512 batch; raw octet-stream responses must be
   bit-exact against the ``"list"`` envelope of the same raw request
   (``Accept: application/json``), the streaming endpoint must agree, and
   ``/stats`` must show every image pickled to its worker at exactly its
   pixel bytes (512 x 512 per image).
4. **Hot reconfiguration** — a ``--allow-reconfig`` server streams a long
   batch while ``POST /v1/config`` switches dense→packed mid-stream: the
   stream must deliver every frame exactly once (zero dropped, zero
   duplicated), every label map must stay bit-exact against the dense
   reference (dense and packed are bit-identical by contract, so the swap
   must be invisible), the old generation must drain clean
   (``submitted == completed``), post-swap requests must report
   ``config_generation`` 2 on the packed backend, and an invalid diff must
   come back 400 naming the offending field.  Pass 1 additionally asserts
   that a server booted *without* ``--allow-reconfig`` answers 403.
5. **Wire latency** — a thread-mode ``threshold`` server answers 20
   sequential keep-alive raw-npy POSTs of a 16x16 image with a median
   round trip under 20 ms.  A reply that waits out Nagle x delayed ACK
   takes >= 40 ms, so this gates the write discipline of the front end.

Stats payloads are written under ``--output-dir`` so CI can upload them as
artifacts.  Exit code is non-zero on any failed assertion, so the CI job
goes red on a real regression rather than a silent pass.

Usage::

    PYTHONPATH=src python tools/http_smoke.py --output-dir http-smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

_HOST = "127.0.0.1"
_DIMENSION = 600
_ITERATIONS = 3
_SHAPE = (32, 40)


def _config(backend: str):
    """The exact config the booted server resolves from the CLI flags."""
    from repro.seghdc import SegHDCConfig

    config = SegHDCConfig.paper_defaults("dsb2018").with_overrides(
        dimension=_DIMENSION, num_iterations=_ITERATIONS
    ).scaled_for_shape(64, 64)
    return config.with_overrides(backend=backend)


def _images(count: int, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=_SHAPE, dtype=np.uint8) for _ in range(count)
    ]


def _pixels_payload(array: np.ndarray) -> dict:
    return {"pixels": array.tolist()}


def _labels(entry: dict) -> np.ndarray:
    return np.asarray(entry["labels"])


def _post(url: str, payload: dict, timeout: float = 300.0) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get(url: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


class _Server:
    """One booted ``seghdc serve`` subprocess with health-checked startup.

    ``seghdc_flags=False`` drops the SegHDC-specific ``--dimension`` /
    ``--iterations`` flags (they are rejected for other ``--segmenter``
    choices, e.g. the threshold probe of the raw-wire pass).
    """

    def __init__(
        self, port: int, *extra_args: str, seghdc_flags: bool = True
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.port = port
        config_args = (
            ["--dimension", str(_DIMENSION), "--iterations", str(_ITERATIONS)]
            if seghdc_flags
            else []
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", _HOST,
                "--port", str(port),
                *config_args,
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.url = f"http://{_HOST}:{port}"

    def wait_healthy(self, timeout: float = 60.0) -> dict:
        """Poll /healthz until the server answers (or die with its log)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                output, _ = self.process.communicate()
                raise SystemExit(
                    f"server on port {self.port} exited early:\n{output}"
                )
            try:
                return _get(f"{self.url}/healthz", timeout=2)
            except Exception:
                time.sleep(0.25)
        # __exit__ never runs when __enter__ raises: kill the subprocess
        # here or a retry on the same runner finds the port still taken.
        self.process.kill()
        self.process.communicate()
        raise SystemExit(f"server on port {self.port} never became healthy")

    def __enter__(self) -> "_Server":
        self.wait_healthy()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.process.terminate()
        try:
            self.process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def smoke_backend_parity(backend: str, port: int, output_dir: Path) -> None:
    """Thread-mode server: HTTP label maps bit-exact vs a direct engine."""
    from repro.seghdc import SegHDCEngine
    from repro.serving.http import pack_frames, unpack_frames

    images = _images(2)
    reference = SegHDCEngine(_config(backend)).segment_batch(images)
    with _Server(
        port, "--mode", "thread", "--workers", "2", "--backend", backend
    ) as server:
        segment_url = f"{server.url}/v1/segment"
        raw = dict(
            unpack_frames(_post_raw(segment_url, pack_frames(enumerate(images))))
        )
        assert sorted(raw) == list(range(len(images))), sorted(raw)
        payload = _post(
            segment_url,
            {"images": [_pixels_payload(image) for image in images]},
        )
        assert payload["count"] == len(images), payload
        for index, (expected, entry) in enumerate(
            zip(reference, payload["results"])
        ):
            assert np.array_equal(raw[index], expected.labels), (
                f"{backend}: HTTP label map {index} diverged from the direct "
                "engine run"
            )
            assert np.array_equal(_labels(entry), raw[index]), (
                f"{backend}: list label map {index} diverged from the raw "
                "reply"
            )
            assert entry["workload"]["backend"] == backend, entry["workload"]

        health = _get(f"{server.url}/healthz")
        assert health["status"] == "ok", health
        assert health["reconfig_allowed"] is False, health
        # Without --allow-reconfig the control endpoint must refuse.
        status, error = _post_expecting_error(
            f"{server.url}/v1/config", {"config": {"backend": backend}}
        )
        assert status == 403, (status, error)
        stats = _get(f"{server.url}/stats")
        assert stats["serving"]["completed"] >= len(images), stats
        assert stats["serving"]["failed"] == 0, stats
        assert stats["http"]["requests"] >= 2, stats
        (output_dir / f"stats_thread_{backend}.json").write_text(
            json.dumps(stats, indent=2) + "\n"
        )
    print(f"[http-smoke] {backend}: raw + list parity + stats OK")


def _keys(node) -> "set[str]":
    """Every dict key anywhere in a JSON payload."""
    if isinstance(node, dict):
        return set(node).union(*(_keys(value) for value in node.values()))
    if isinstance(node, list):
        return set().union(*(_keys(value) for value in node))
    return set()


def smoke_process_pool(port: int, output_dir: Path) -> None:
    """4-worker process mode: bit-exact, one grid build per worker engine."""
    from repro.seghdc import SegHDCEngine
    from repro.serving.http import pack_frames, unpack_frames

    images = _images(8, seed=11)
    reference = SegHDCEngine(_config("dense")).segment_batch(images)
    with _Server(
        port, "--mode", "process", "--workers", "4", "--batch-size", "1"
    ) as server:
        entries = dict(
            unpack_frames(
                _post_raw(
                    f"{server.url}/v1/segment", pack_frames(enumerate(images))
                )
            )
        )
        for index, expected in enumerate(reference):
            assert np.array_equal(entries[index], expected.labels), (
                f"process mode: HTTP label map {index} diverged"
            )
        stats = _get(f"{server.url}/stats")
        cache = stats["serving"]["cache"]
        assert 1 <= cache["position_grid_builds"] <= cache["engines"] <= 4, (
            "process pool: expected one position-grid build per worker "
            f"engine at most, got {cache}"
        )
        shared = sorted(key for key in _keys(stats) if key.startswith("shared_"))
        assert not shared, f"/stats still reports {shared}"
        (output_dir / "stats_process_pool.json").write_text(
            json.dumps(stats, indent=2) + "\n"
        )
    print(
        f"[http-smoke] process x4: {cache['position_grid_builds']} grid "
        f"build(s) across {cache['engines']} worker engine(s) OK"
    )


def _post_expecting_error(url: str, payload: dict) -> tuple:
    """POST JSON expecting a 4xx; returns ``(status, error message)``."""
    try:
        _post(url, payload)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc).get("error", "")
    raise SystemExit(f"POST {url} unexpectedly succeeded")


def _post_raw(
    url: str,
    body: bytes,
    timeout: float = 300.0,
    accept: str = "application/octet-stream",
) -> bytes:
    """POST an octet-stream body; returns the raw response body."""
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/octet-stream", "Accept": accept},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def smoke_raw_wire(port: int, output_dir: Path) -> None:
    """Raw-wire acceptance: parity and transport accounting, end to end.

    A 4-worker process-mode server wrapped around the Otsu ``threshold``
    probe (compute ~ 0, so transport dominates) serves a 512x512 batch, and
    two things must hold:

    1. raw octet-stream responses (plain and streamed) are bit-exact
       against the ``"list"`` JSON envelope of the same raw request;
    2. the serving stats account every image on the ``pickle`` path at
       exactly its pixel bytes to the workers (512 x 512 uint8).
    """
    from repro.serving.http import npy_bytes, pack_frames, unpack_frames

    images = [
        np.random.default_rng(31).integers(
            0, 256, size=(512, 512), dtype=np.uint8
        )
        for _ in range(8)
    ]
    framed = pack_frames(enumerate(images))
    with _Server(
        port,
        "--mode", "process",
        "--workers", "4",
        "--batch-size", "2",
        "--segmenter", "threshold",
        seghdc_flags=False,
    ) as server:
        segment_url = f"{server.url}/v1/segment"
        # Parity: raw framed vs the list envelope, bit-exact per image.
        raw_entries = dict(unpack_frames(_post_raw(segment_url, framed)))
        assert len(raw_entries) == len(images), sorted(raw_entries)
        listed = json.loads(
            _post_raw(segment_url, framed, accept="application/json")
        )
        assert listed["response_encoding"] == "list", listed.keys()
        for index, entry in enumerate(listed["results"]):
            assert np.array_equal(raw_entries[index], _labels(entry)), (
                f"raw-wire: raw label map {index} diverged from the list "
                "envelope"
            )

        # Streaming endpoint sanity: same framed body, chunked response.
        stream_entries = dict(
            unpack_frames(
                _post_raw(f"{server.url}/v1/segment-stream", framed)
            )
        )
        for index in range(len(images)):
            assert np.array_equal(
                stream_entries[index], raw_entries[index]
            ), f"raw-wire: streamed label map {index} diverged"

        stats = _get(f"{server.url}/stats")
        serving_transport = stats["serving"]["transport"]
        assert set(serving_transport) == {"pickle"}, serving_transport
        pickled = serving_transport["pickle"]
        assert pickled["images"] > 0, serving_transport
        assert pickled["bytes_in"] == pickled["images"] * 512 * 512, (
            f"raw-wire: pickled pixel bytes are not 512*512 per image: "
            f"{serving_transport}"
        )
        http_transport = stats["http"]["transport"]
        assert http_transport["http-raw"]["images"] >= len(images)
        expected_raw = len(framed) + sum(
            len(npy_bytes(labels)) for labels in raw_entries.values()
        )
        (output_dir / "stats_raw_wire.json").write_text(
            json.dumps(stats, indent=2) + "\n"
        )
    print(
        f"[http-smoke] raw-wire: {pickled['images']} images pickled at "
        f"{pickled['bytes_in'] // pickled['images']} B each, raw parity OK, "
        f"~{expected_raw // len(images)} raw B/img"
    )


def smoke_hot_reconfig(port: int, output_dir: Path) -> None:
    """Pass 4: a dense→packed hot swap under sustained streaming traffic.

    The streaming request runs on a background thread while the main thread
    POSTs the config diff, so the swap genuinely lands mid-stream: early
    frames are segmented by generation 1 (dense), late frames by
    generation 2 (packed).  Because the two backends are bit-identical, one
    dense reference validates every frame regardless of which generation
    produced it — the swap must be invisible except in the stats.
    """
    from repro.seghdc import SegHDCEngine
    from repro.serving.http import pack_frames, unpack_frames

    rng = np.random.default_rng(23)
    images = [
        rng.integers(0, 256, size=(48, 64), dtype=np.uint8) for _ in range(48)
    ]
    reference = SegHDCEngine(_config("dense")).segment_batch(images)
    framed = pack_frames(enumerate(images))
    with _Server(
        port,
        "--mode", "thread",
        "--workers", "2",
        "--backend", "dense",
        "--max-queue-depth", "4",
        "--allow-reconfig",
    ) as server:
        health = _get(f"{server.url}/healthz")
        assert health["config_generation"] == 1, health
        assert health["reconfig_allowed"] is True, health

        stream_box: dict = {}

        def run_stream() -> None:
            try:
                stream_box["body"] = _post_raw(
                    f"{server.url}/v1/segment-stream", framed
                )
            except Exception as exc:  # noqa: BLE001 - re-raised below
                stream_box["error"] = exc

        stream = threading.Thread(target=run_stream)
        stream.start()
        time.sleep(0.4)  # let generation 1 admit and serve early frames
        outcome = _post(
            f"{server.url}/v1/config", {"config": {"backend": "packed"}}
        )
        assert outcome["status"] == "swapped", outcome
        assert outcome["generation"] == 2, outcome
        assert outcome["changed"] == ["config.backend"], outcome
        stream.join(timeout=300)
        assert "error" not in stream_box, stream_box
        entries = unpack_frames(stream_box["body"])

        # Zero dropped, zero duplicated: every index exactly once.
        indices = sorted(index for index, _ in entries)
        assert indices == list(range(len(images))), (
            f"dropped/duplicated frames across the swap: {indices}"
        )
        for index, labels in entries:
            assert np.array_equal(labels, reference[index].labels), (
                f"hot-reconfig: label map {index} diverged across the swap"
            )

        # Post-swap traffic runs generation 2 on the packed backend.
        payload = _post(
            f"{server.url}/v1/segment", {"image": _pixels_payload(images[0])}
        )
        workload = payload["results"][0]["workload"]
        assert workload["config_generation"] == 2, workload
        assert workload["backend"] == "packed", workload

        # An invalid diff is a 400 naming the field; generation unchanged.
        status, error = _post_expecting_error(
            f"{server.url}/v1/config", {"config": {"bogus": 1}}
        )
        assert status == 400 and "bogus" in error, (status, error)

        stats = _get(f"{server.url}/stats")
        assert stats["config_generation"] == 2, stats
        control = stats["serving"]["control"]
        assert control["config_generation"] == 2, control
        assert control["last_swap"]["status"] == "swapped", control
        gen1 = control["generations"]["1"]
        # The old generation drained clean: everything it admitted finished
        # on its own pool before retirement.
        assert gen1["submitted"] == gen1["completed"], control
        assert gen1["failed"] == 0, control
        gen2 = control["generations"]["2"]
        assert gen2["completed"] >= 1, control
        (output_dir / "stats_hot_reconfig.json").write_text(
            json.dumps(stats, indent=2) + "\n"
        )
    print(
        f"[http-smoke] hot-reconfig: {len(images)} frames exactly-once "
        f"across dense→packed swap (gen1 served {gen1['completed']}, "
        f"gen2 {gen2['completed']}), rollback-free OK"
    )


def smoke_wire_latency(port: int, output_dir: Path) -> None:
    """Pass 5: small keep-alive requests must not pay a 40 ms TCP stall.

    The ``threshold`` probe computes in well under a millisecond, so the
    round trip is almost all front end.  A reply whose body segment waits
    for the delayed ACK of its header segment takes >= 40 ms; a working
    front end answers in a few.
    """
    from repro.serving.http import npy_bytes

    body = npy_bytes(
        np.random.default_rng(5).integers(0, 256, size=(16, 16), dtype=np.uint8)
    )
    with _Server(
        port,
        "--mode", "thread",
        "--workers", "1",
        "--segmenter", "threshold",
        seghdc_flags=False,
    ):
        connection = http.client.HTTPConnection(_HOST, port, timeout=30)
        rtts = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request(
                    "POST",
                    "/v1/segment",
                    body=body,
                    headers={"Content-Type": "application/octet-stream"},
                )
                response = connection.getresponse()
                response.read()
                rtts.append(time.perf_counter() - start)
                assert response.status == 200, response.status
        finally:
            connection.close()
    median_ms = statistics.median(rtts) * 1000
    (output_dir / "wire_latency.json").write_text(
        json.dumps({"requests": len(rtts), "median_ms": median_ms}) + "\n"
    )
    print(
        f"[http-smoke] wire latency: 16x16 keep-alive median "
        f"{median_ms:.1f} ms over {len(rtts)} requests"
    )
    assert median_ms < 20.0, (
        f"wire latency: keep-alive median {median_ms:.1f} ms "
        "(gate: < 20 ms; >= 40 ms means replies wait out delayed ACKs)"
    )


def main(argv: "list[str] | None" = None) -> int:
    """Run the full smoke; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output-dir",
        default="http-smoke",
        help="directory for the /stats JSON artifacts",
    )
    parser.add_argument(
        "--base-port",
        type=int,
        default=18080,
        help="first TCP port to use (six consecutive ports are taken)",
    )
    args = parser.parse_args(argv)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    smoke_backend_parity("dense", args.base_port, output_dir)
    smoke_backend_parity("packed", args.base_port + 1, output_dir)
    smoke_process_pool(args.base_port + 2, output_dir)
    smoke_raw_wire(args.base_port + 3, output_dir)
    smoke_hot_reconfig(args.base_port + 4, output_dir)
    smoke_wire_latency(args.base_port + 5, output_dir)
    print("[http-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
