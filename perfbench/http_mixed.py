"""http-mixed: closed loop over HTTP against a ``seghdc serve`` subprocess.

The server runs ``--mode process --workers 2 --backend packed --dimension
2000 --iterations 3`` (the paper's Table II latency setting).  Exactly two
keep-alive connections send raw ``.npy`` bodies to ``POST /v1/segment``,
drawn from a seeded 3:1 sequence of 64x64 and 192x192 dsb2018-synthetic
images generated from ``--seed``.  Compute is light, so the front door
(wire, handler, process-pool transport) dominates.  Every reply must be
bit-exact to a direct ``SegHDCEngine.segment`` of the same image computed
in set-up; that replay, in this process, is also where the traced run
measures the ``hdc`` and ``seghdc`` layers for this workload.
"""

from __future__ import annotations

import io
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from httpload import ClosedLoop, get_json
from measure import (
    RECONCILE_LIMIT, ROOT, delta_mean, empty_layers, foreground_iou, median,
    percentile, process_tree, reconcile_error, serving_layers, session_members,
    vm_hwm_mb,
)
from probes import EngineProbe, device_mem_ratio

PARAMS = {
    "full": {"small": 64, "large": 192, "pool_small": 12, "pool_large": 4,
             "dimension": 2000},
    "quick": {"small": 16, "large": 32, "pool_small": 3, "pool_large": 1,
              "dimension": 500},
}
WORKERS = 2
CONNECTIONS = 2
ITERATIONS = 3
SEQUENCE_BLOCKS = 256  # 4 requests per block: 3 small, 1 large
BOOT_TIMEOUT_S = 90.0

#: Set-ups per run (each boots a server); ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class State:
    server: "ServerProcess"
    load: ClosedLoop
    samples: list
    references: list
    engine: object
    probe: "EngineProbe | None"


class ServerProcess:
    """``seghdc serve`` in its own session; its port is read from the
    ``SEGHDC_SERVE_PORT=`` line it prints on boot."""

    def __init__(self, dimension: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--mode", "process", "--workers", str(WORKERS),
            "--backend", "packed", "--dimension", str(dimension),
            "--iterations", str(ITERATIONS),
        ]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self.lines: "queue.Queue[str | None]" = queue.Queue()
        self.output: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._wait_for_port()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            self.output.append(line)
            if line.startswith("SEGHDC_SERVE_PORT="):
                return int(line.strip().split("=", 1)[1])
        self.stop()
        raise RuntimeError("seghdc serve did not report its port:\n" + "".join(self.output))

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its live descendants."""
        return sum(vm_hwm_mb(pid) for pid in process_tree(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM (graceful pool shutdown), then SIGKILL the whole session
        if anything is left, and wait until every member is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while session_members(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        self._reader.join(timeout=5)


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _sequence(seed: int, pool_small: int, pool_large: int) -> list:
    """Seeded 3:1 body-id sequence; ids ``>= pool_small`` are large images."""
    rng = np.random.default_rng([seed, 3])
    sequence = []
    for _ in range(SEQUENCE_BLOCKS):
        block = [int(rng.integers(pool_small)) for _ in range(3)]
        block.insert(int(rng.integers(4)), pool_small + int(rng.integers(pool_large)))
        sequence.extend(block)
    return sequence


def setup(opts, recorder) -> State:
    from repro.datasets.dsb2018 import DSB2018Synthetic
    from repro.seghdc.config import SegHDCConfig
    from repro.seghdc.engine import SegHDCEngine

    params = PARAMS[opts.scale]
    server = ServerProcess(params["dimension"])
    try:
        spec = get_json(server.port, "/v1/segmenters")["serving"]["segmenter"]
        config = SegHDCConfig.from_dict(spec["config"])
        samples = []
        for side, count in ((params["small"], params["pool_small"]),
                            (params["large"], params["pool_large"])):
            dataset = DSB2018Synthetic(
                num_images=count, image_shape=(side, side), seed=opts.seed
            )
            samples.extend(dataset[index] for index in range(count))
        engine = SegHDCEngine(config)
        probe = None
        if opts.trace:
            probe = EngineProbe(recorder)
            probe.attach(engine)
        for sample in (samples[0], samples[-1]):
            engine.warm(*sample.image.shape)
        references = [engine.segment(s.image.pixels).labels for s in samples]
        if opts.trace:
            # Timed on a second, warm pass: the server's long-lived workers
            # do not pay this process's first-allocation costs either.
            for body_id, sample in enumerate(samples):
                recorder.enabled, recorder.request_id = True, f"ref-{body_id}"
                labels = engine.segment(sample.image.pixels).labels
                recorder.enabled = False
                if not np.array_equal(labels, references[body_id]):
                    raise RuntimeError(f"replay of image {body_id} is not deterministic")
        bodies = [_npy(sample.image.pixels) for sample in samples]
        load = ClosedLoop(
            server.port, bodies,
            _sequence(opts.seed, params["pool_small"], params["pool_large"]),
            connections=CONNECTIONS,
        )
        load.warm([0, params["pool_small"]])
    except BaseException:
        server.stop()
        raise
    return State(server, load, samples, references, engine, probe)


def teardown(state: State) -> None:
    state.server.stop()


def _check(reply, reference: np.ndarray) -> bool:
    if reply.status != 200:
        return False
    try:
        labels = np.load(io.BytesIO(reply.data), allow_pickle=False)
    except ValueError:
        return False
    return labels.dtype == reference.dtype and np.array_equal(labels, reference)


def measure(state: State, opts, recorder) -> dict:
    before = get_json(state.server.port, "/stats") if opts.trace else None
    replies, wall = state.load.run(opts.seconds, recorder=recorder, trace=bool(opts.trace))
    after = get_json(state.server.port, "/stats") if opts.trace else None
    peak_rss = state.server.peak_rss_mb()
    oks = [_check(reply, state.references[reply.body_id]) for reply in replies]
    for reply, ok in zip(replies, oks):
        if not ok:
            print(f"http-mixed: request {reply.index} failed: status={reply.status} "
                  f"error={reply.error}", flush=True)
    rtts = [reply.rtt for reply in replies]
    p90 = percentile(rtts, 90)
    ious = {}
    for reply, ok in zip(replies, oks):
        if ok and reply.body_id not in ious:
            ious[reply.body_id] = foreground_iou(
                state.references[reply.body_id], state.samples[reply.body_id].mask
            )
    good_pixels = sum(
        state.references[reply.body_id].size for reply, ok in zip(replies, oks) if ok
    )
    outcome = {
        "attempted": len(replies),
        "failed": len(replies) - sum(oks),
        "e2e": {
            "throughput_mpx_s": good_pixels / 1e6 / wall,
            "latency_p50_s": percentile(rtts, 50),
            "latency_p90_s": p90,
            "correct_frac": sum(oks) / len(replies),
            "iou_mean": float(np.mean(list(ious.values()))) if ious else 0.0,
            "peak_rss_mb": peak_rss,
        },
        "detail": {
            "requests": len(replies),
            "samples_beyond_p90": sum(1 for rtt in rtts if rtt > p90),
            "large_share": sum(
                1 for r in replies if r.body_id >= PARAMS[opts.scale]["pool_small"]
            ) / len(replies),
        },
    }
    if opts.trace:
        outcome["layers"], outcome["reconciled"] = trace_layers(
            state, replies, wall, before, after, recorder
        )
    return outcome


def _codec_seconds(function, payloads: list, repeats: int = 20) -> list:
    """Mean seconds of ``function(payload)`` for each payload."""
    seconds = []
    for payload in payloads:
        start = time.perf_counter()
        for _ in range(repeats):
            function(payload)
        seconds.append((time.perf_counter() - start) / repeats)
    return seconds


def trace_layers(state: State, replies, wall, before, after, recorder) -> tuple:
    from repro.serving.http import array_from_npy_bytes, npy_bytes

    traced = [r for r in replies if r.traced]
    untraced = [r for r in replies if not r.traced]
    spans = recorder.by_name("http.request")
    rtt = float(np.mean([span.duration for span in spans]))
    handler = delta_mean(before["http"]["latency"], after["http"]["latency"])
    ref_ids = [f"ref-{body_id}" for body_id in range(len(state.samples))]
    layers = empty_layers()
    layers.update(state.probe.layers(ref_ids, len(state.samples)))
    layers.update(serving_layers(
        before["serving"], after["serving"], layers["seghdc.segment_s"]
    ))
    decode = _codec_seconds(array_from_npy_bytes, state.load.bodies)
    encode = _codec_seconds(npy_bytes, state.references)
    raw_before = before["http"]["transport"].get("http-raw", {})
    raw_after = after["http"]["transport"]["http-raw"]
    images = raw_after["images"] - raw_before.get("images", 0)
    cache = after["serving"]["cache"]
    # Closed loop: each connection is always inside a request, so the
    # summed client round trips must cover connections x wall.
    err = reconcile_error(sum(r.rtt for r in replies) / CONNECTIONS, wall)
    layers.update({
        "http.rtt_s": rtt,
        "http.handler_s": handler,
        "http.wire_s": rtt - handler,
        "http.decode_s": float(np.mean([decode[r.body_id] for r in replies])),
        "http.encode_s": float(np.mean([encode[r.body_id] for r in replies])),
        "http.bytes_in_per_image": (
            (raw_after["bytes_in"] - raw_before.get("bytes_in", 0)) / images
        ),
        "http.bytes_out_per_image": (
            (raw_after["bytes_out"] - raw_before.get("bytes_out", 0)) / images
        ),
        "seghdc.grid_builds": cache["position_grid_builds"],
        "seghdc.cache_hit_ratio": cache["hit_rate"],
        "device.time_ratio": state.probe.device_time_ratio(state.engine.config, ref_ids),
        "device.mem_ratio": device_mem_ratio(
            state.engine, state.samples[-1].image.pixels
        ),
        "trace.reconcile_err": err,
        "trace.overhead_s": (
            median([r.rtt for r in traced]) - median([r.rtt for r in untraced])
        ),
        "trace.spans": len(spans) + len(recorder.select(ref_ids)),
    })
    return layers, err <= RECONCILE_LIMIT
