"""Serving-layer throughput: images/sec vs worker count, both backends.

Acceptance gate of the serving PR: a 4-worker thread-mode
:class:`SegmentationServer` must reach at least 2x the images/sec of serial
``engine.segment`` on a same-shape 64x64 batch, with bit-identical label
maps.  The speedup gate needs real cores to scale onto (the numpy kernels
release the GIL, but they cannot out-run a single CPU), so it is skipped on
hosts with fewer than four cores; the scaling profile and the bit-exactness
checks run everywhere.

The **network-term consistency check** adds one more measurement: the
HTTP wire bytes the serving codecs actually produce must match
:func:`repro.device.http_wire_bytes`, and feeding either number into
:func:`serving_estimate` must predict the same network-bound throughput.
Pure accounting, runs everywhere.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.datasets import DSB2018Synthetic
from repro.device import http_wire_bytes, seghdc_cost, serving_estimate
from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.serving import SegmentationServer
from repro.serving.http import npy_bytes

BATCH = 10
SHAPE = (64, 64)
WORKER_COUNTS = (1, 2, 4)
_CPUS = os.cpu_count() or 1


def _config(backend: str) -> SegHDCConfig:
    return SegHDCConfig(
        dimension=2000,
        num_clusters=2,
        num_iterations=4,
        alpha=0.2,
        beta=2,
        seed=0,
        backend=backend,
    )


def _images() -> list:
    dataset = DSB2018Synthetic(num_images=BATCH, image_shape=SHAPE, seed=9)
    return [np.asarray(sample.image.pixels) for sample in dataset]


def _serial_run(config: SegHDCConfig, images: list) -> tuple[float, list]:
    engine = SegHDCEngine(config)
    start = time.perf_counter()
    results = [engine.segment(image) for image in images]
    elapsed = time.perf_counter() - start
    return len(images) / elapsed, [result.labels for result in results]


def _server_run(
    config: SegHDCConfig, images: list, workers: int
) -> tuple[float, list]:
    # max_batch_size=1: a same-shape batch otherwise collapses into one
    # micro-batch on one worker (submission is much faster than a segment),
    # and in thread mode the shared engine cache needs no batching anyway.
    with SegmentationServer(
        config, mode="thread", num_workers=workers, max_batch_size=1
    ) as server:
        start = time.perf_counter()
        results = server.segment_batch(images, timeout=600)
        elapsed = time.perf_counter() - start
    return len(images) / elapsed, [result.labels for result in results]


@pytest.mark.parametrize("backend", ["dense", "packed"])
def test_scaling_profile_and_bit_exactness(benchmark, backend):
    """Images/sec vs worker count; every configuration must reproduce the
    serial label maps bit-for-bit regardless of how well it scales."""
    config = _config(backend)
    images = _images()

    def profile():
        serial_ips, serial_labels = _serial_run(config, images)
        rows = {}
        for workers in WORKER_COUNTS:
            server_ips, server_labels = _server_run(config, images, workers)
            for index, (expected, observed) in enumerate(
                zip(serial_labels, server_labels)
            ):
                assert np.array_equal(expected, observed), (
                    f"{backend}/{workers}w: label map {index} diverged "
                    "from serial"
                )
            rows[workers] = server_ips
        return serial_ips, rows

    serial_ips, rows = benchmark.pedantic(
        profile, rounds=1, iterations=1
    )
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["cpus"] = _CPUS
    benchmark.extra_info["serial_images_per_second"] = round(serial_ips, 2)
    print(f"\n  [{backend}] serial: {serial_ips:7.2f} images/s ({_CPUS} cpus)")
    for workers, ips in rows.items():
        benchmark.extra_info[f"server_{workers}w_images_per_second"] = round(
            ips, 2
        )
        print(
            f"  [{backend}] {workers} workers: {ips:7.2f} images/s "
            f"({ips / serial_ips:.2f}x)"
        )


@pytest.mark.parametrize("backend", ["dense", "packed"])
@pytest.mark.skipif(
    _CPUS < 4,
    reason=f"thread-pool speedup gate needs >= 4 cores, host has {_CPUS}",
)
def test_4_worker_thread_pool_at_least_2x_serial(backend):
    """Acceptance: 4 thread workers >= 2x serial images/sec, bit-identical.

    Best-of-three to shield the gate from scheduler noise on shared CI
    runners; the parity assertion applies to every attempt.
    """
    config = _config(backend)
    images = _images()
    best = 0.0
    for _ in range(3):
        serial_ips, serial_labels = _serial_run(config, images)
        server_ips, server_labels = _server_run(config, images, 4)
        for expected, observed in zip(serial_labels, server_labels):
            assert np.array_equal(expected, observed)
        best = max(best, server_ips / serial_ips)
        if best >= 2.0:
            break
    assert best >= 2.0, (
        f"{backend}: 4-worker thread pool reached only {best:.2f}x serial "
        f"images/sec on {_CPUS} cpus"
    )


_WIRE_SHAPE = (512, 512)


def test_network_term_consistent_with_measured_wire_bytes():
    """The cost model's ``http_wire_bytes`` must agree with the bytes the
    serving codecs actually put on the wire, and a network-bound
    ``serving_estimate`` fed either number must predict the same
    throughput — otherwise the /stats ``bytes_per_image`` counters and the
    analytical network term would silently drift apart."""
    height, width = _WIRE_SHAPE
    rng = np.random.default_rng(23)
    image = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    labels = rng.integers(0, 2, size=(height, width)).astype(np.int32)

    measured = len(npy_bytes(image)) + len(npy_bytes(labels))
    modeled = http_wire_bytes(height, width, wire="raw")
    assert measured == pytest.approx(modeled, rel=0.01), (
        f"raw: measured {measured} B/image vs modeled {modeled} B/image"
    )

    # Feed the measured raw bytes into the estimator with a NIC slow enough
    # to dominate: the pool must be network-bound at bandwidth / bytes.
    cost = seghdc_cost(
        height, width, dimension=1000, num_clusters=2, num_iterations=3,
        channels=1,
    )
    bandwidth = 1e7  # 10 MB/s: slower than any compute term at this size
    estimate = serving_estimate(
        cost,
        num_workers=4,
        compute_throughput_flops=1e14,
        memory_bandwidth_bytes=1e14,
        num_cores=4,
        network_bandwidth_bytes=bandwidth,
        network_bytes_per_image=float(measured),
    )
    assert estimate.bottleneck == "network"
    assert estimate.images_per_second == pytest.approx(
        bandwidth / measured
    )
    # The modeled wire bytes predict the same rate within 1%.
    modeled_estimate = serving_estimate(
        cost,
        num_workers=4,
        compute_throughput_flops=1e14,
        memory_bandwidth_bytes=1e14,
        num_cores=4,
        network_bandwidth_bytes=bandwidth,
        network_bytes_per_image=http_wire_bytes(height, width, wire="raw"),
    )
    assert modeled_estimate.images_per_second == pytest.approx(
        estimate.images_per_second, rel=0.01
    )
