"""Tests for the edge-device cost model and simulator."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.device import (
    DeviceOutOfMemoryError,
    DeviceProfile,
    EdgeDeviceSimulator,
    HOST_PROFILE,
    RASPBERRY_PI_4,
    cnn_baseline_cost,
    seghdc_cost,
)


class TestDeviceProfile:
    def test_usable_memory(self):
        profile = DeviceProfile(
            name="x",
            tensor_throughput_flops=1e9,
            hdc_throughput_flops=1e7,
            memory_bandwidth_bytes=1e9,
            total_memory_bytes=1000,
            usable_memory_fraction=0.5,
        )
        assert profile.usable_memory_bytes == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("x", 0, 1, 1, 1)
        with pytest.raises(ValueError):
            DeviceProfile("x", 1, 1, 1, 1, usable_memory_fraction=0.0)
        with pytest.raises(ValueError):
            DeviceProfile("x", 1, 1, 1, 1, startup_overhead_seconds=-1.0)

    def test_shipped_profiles(self):
        assert RASPBERRY_PI_4.total_memory_bytes == 4 * 1024**3
        assert HOST_PROFILE.tensor_throughput_flops > RASPBERRY_PI_4.tensor_throughput_flops


class TestCostModels:
    def test_seghdc_cost_scales_linearly_with_dimension(self):
        small = seghdc_cost(100, 100, dimension=500, num_clusters=2, num_iterations=3)
        large = seghdc_cost(100, 100, dimension=1000, num_clusters=2, num_iterations=3)
        assert large.operations == pytest.approx(2 * small.operations)

    def test_seghdc_cost_scales_with_iterations(self):
        one = seghdc_cost(64, 64, dimension=800, num_clusters=2, num_iterations=1)
        ten = seghdc_cost(64, 64, dimension=800, num_clusters=2, num_iterations=10)
        assert ten.operations > 5 * one.operations
        assert ten.peak_memory_bytes == one.peak_memory_bytes  # iterations reuse memory

    def test_cnn_cost_scales_with_iterations_and_pixels(self):
        base = cnn_baseline_cost(64, 64, iterations=100)
        more_iters = cnn_baseline_cost(64, 64, iterations=200)
        more_pixels = cnn_baseline_cost(128, 64, iterations=100)
        assert more_iters.operations == pytest.approx(2 * base.operations)
        assert more_pixels.operations == pytest.approx(2 * base.operations, rel=0.01)
        assert more_pixels.peak_memory_bytes > base.peak_memory_bytes

    def test_cnn_peak_memory_independent_of_iterations(self):
        a = cnn_baseline_cost(64, 64, iterations=10)
        b = cnn_baseline_cost(64, 64, iterations=1000)
        assert a.peak_memory_bytes == b.peak_memory_bytes

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            seghdc_cost(0, 10, dimension=100, num_clusters=2, num_iterations=1)
        with pytest.raises(ValueError):
            cnn_baseline_cost(10, 0)

    def test_packed_backend_shrinks_memory_and_ops(self):
        dense = seghdc_cost(
            256, 320, dimension=2048, num_clusters=2, num_iterations=3
        )
        packed = seghdc_cost(
            256, 320, dimension=2048, num_clusters=2, num_iterations=3, backend="packed"
        )
        # The resident HV matrices shrink ~8x; the transients differ too
        # (dense gathers one bundle's member rows), so the ratio is near 8.
        assert packed.peak_memory_bytes < dense.peak_memory_bytes / 2
        assert packed.operations < dense.operations
        assert packed.bytes_moved < dense.bytes_moved
        assert packed.kind == "hdc"

    @pytest.mark.parametrize("backend", ["packed", "dense"])
    def test_packed_peak_memory_covers_a_measured_segment(self, backend):
        """The modelled peak is an upper bound on what one 64x64
        ``segment`` allocates: its tracemalloc peak plus the position grid,
        which is cached before."""
        from repro.datasets.dsb2018 import DSB2018Synthetic
        from repro.seghdc import SegHDCConfig, SegHDCEngine

        config = SegHDCConfig.paper_defaults("dsb2018").scaled_for_shape(
            64, 64
        ).with_overrides(backend=backend)
        image = DSB2018Synthetic(num_images=1, image_shape=(64, 64), seed=0)[0].image
        engine = SegHDCEngine(config)
        engine.warm(image.height, image.width, image.channels)
        tracemalloc.start()
        try:
            engine.segment(image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        measured = peak + engine.estimated_grid_nbytes(64, 64)
        modelled = seghdc_cost(
            64, 64,
            dimension=config.dimension,
            num_clusters=config.num_clusters,
            num_iterations=config.num_iterations,
            channels=image.channels,
            backend=backend,
        ).peak_memory_bytes
        assert measured <= modelled, (measured, modelled)

    def test_packed_peak_memory_covers_a_flat_segment(self):
        """A flat image stores one distinct HV, but its per-pixel key,
        sort and inverse transients are still charged: the model stays
        an upper bound."""
        from repro.seghdc import SegHDCConfig, SegHDCEngine

        config = SegHDCConfig.paper_defaults("dsb2018").scaled_for_shape(
            64, 64
        ).with_overrides(backend="packed")
        image = np.full((64, 64), 120, dtype=np.uint8)
        engine = SegHDCEngine(config)
        engine.warm(64, 64, 1)
        tracemalloc.start()
        try:
            result = engine.segment(image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.workload["hv_storage_bytes"] < engine.estimated_grid_nbytes(
            64, 64
        )
        measured = peak + engine.estimated_grid_nbytes(64, 64)
        modelled = seghdc_cost(
            64, 64,
            dimension=config.dimension,
            num_clusters=config.num_clusters,
            num_iterations=config.num_iterations,
            channels=1,
            backend="packed",
        ).peak_memory_bytes
        assert measured <= modelled, (measured, modelled)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            seghdc_cost(8, 8, dimension=64, num_clusters=2, num_iterations=1, backend="gpu")

    def test_kinds(self):
        assert seghdc_cost(8, 8, dimension=10, num_clusters=2, num_iterations=1).kind == "hdc"
        assert cnn_baseline_cost(8, 8).kind == "tensor"


class TestEdgeDeviceSimulator:
    def test_table2_row1_shape(self):
        """256x320 DSB2018 image: SegHDC tens of seconds, baseline hours,
        speed-up in the hundreds (paper: 35.8 s vs 11453 s, 319.9x)."""
        simulator = EdgeDeviceSimulator(RASPBERRY_PI_4)
        seghdc = simulator.estimate_seghdc(
            256, 320, dimension=800, num_clusters=2, num_iterations=3
        )
        baseline = simulator.estimate_cnn_baseline(256, 320, channels=3, iterations=1000)
        assert 10 < seghdc.latency_seconds < 120
        assert baseline.latency_seconds > 3600
        speedup = baseline.latency_seconds / seghdc.latency_seconds
        assert 100 < speedup < 1000

    def test_table2_row2_baseline_oom(self):
        """520x696 BBBC005 image: the baseline exceeds 4 GB, SegHDC fits."""
        simulator = EdgeDeviceSimulator(RASPBERRY_PI_4)
        seghdc = simulator.estimate_seghdc(
            520, 696, dimension=2000, num_clusters=2, num_iterations=3, channels=1
        )
        assert seghdc.fits_in_memory
        with pytest.raises(DeviceOutOfMemoryError):
            simulator.estimate_cnn_baseline(520, 696, channels=1, iterations=1000)

    def test_non_strict_returns_oom_flag(self):
        simulator = EdgeDeviceSimulator(RASPBERRY_PI_4)
        estimate = simulator.estimate_cnn_baseline(
            520, 696, channels=1, iterations=1000, strict=False
        )
        assert not estimate.fits_in_memory
        assert estimate.peak_memory_gb > 3.0

    def test_host_is_much_faster_than_pi(self):
        cost = seghdc_cost(256, 320, dimension=800, num_clusters=2, num_iterations=3)
        pi = EdgeDeviceSimulator(RASPBERRY_PI_4).estimate(cost)
        host = EdgeDeviceSimulator(HOST_PROFILE).estimate(cost)
        assert host.latency_seconds < pi.latency_seconds / 5

    def test_latency_includes_startup_overhead(self):
        cost = seghdc_cost(8, 8, dimension=10, num_clusters=2, num_iterations=1)
        estimate = EdgeDeviceSimulator(RASPBERRY_PI_4).estimate(cost)
        assert estimate.latency_seconds >= RASPBERRY_PI_4.startup_overhead_seconds

    def test_unknown_workload_kind(self):
        from repro.device.cost_model import WorkloadCost

        simulator = EdgeDeviceSimulator(RASPBERRY_PI_4)
        with pytest.raises(ValueError):
            simulator.estimate(WorkloadCost(1.0, 1.0, 1.0, kind="gpu"))

    def test_oom_error_message(self):
        error = DeviceOutOfMemoryError(5 * 10**9, 3 * 10**9, "pi")
        assert "5.00 GB" in str(error)
        assert error.device == "pi"


class TestSingleRunModelPins:
    """The single-run model's figures, pinned to the values Table II and
    Fig. 7 are built from, so a change to the device package that is not
    meant to move the model cannot move it unnoticed."""

    @pytest.mark.parametrize(
        "shape, kwargs, operations, bytes_moved, peak_bytes, pi_seconds",
        [
            (
                (256, 320),
                dict(dimension=800, num_clusters=2, num_iterations=3),
                1507328000.0, 458752000, 207278080.0, 35.79659192825112,
            ),
            (
                (520, 696),
                dict(dimension=2000, num_clusters=2, num_iterations=3,
                     channels=1),
                16648320000.0, 5066880000, 2220573440.0, 375.28071748878926,
            ),
            (
                (256, 320),
                dict(dimension=2048, num_clusters=2, num_iterations=3,
                     backend="packed"),
                580321280.0, 272629760.0, 62789632.0, 15.011687892376681,
            ),
            (
                (1000, 1000),
                dict(dimension=10000, num_clusters=3, num_iterations=10,
                     backend="packed", counter_depth=8,
                     bundle_chunk_rows=4096),
                202839200000.0, 51496000000.0, 3128807680.0,
                4549.964125560538,
            ),
        ],
        ids=["dsb2018-dense", "bbbc005-dense", "dsb2018-packed",
             "packed-depth8-chunk4096"],
    )
    def test_seghdc(
        self, shape, kwargs, operations, bytes_moved, peak_bytes, pi_seconds
    ):
        cost = seghdc_cost(*shape, **kwargs)
        assert cost.kind == "hdc"
        assert cost.operations == operations
        assert cost.bytes_moved == bytes_moved
        assert cost.peak_memory_bytes == peak_bytes
        estimate = EdgeDeviceSimulator(RASPBERRY_PI_4).estimate_seghdc(
            *shape, **kwargs
        )
        assert estimate.latency_seconds == pytest.approx(pi_seconds, rel=1e-12)
        assert estimate.peak_memory_bytes == peak_bytes
        assert estimate.fits_in_memory

    @pytest.mark.parametrize(
        "shape, channels, operations, peak_bytes, pi_seconds, fits",
        [
            ((256, 320), 3, 50724864000000.0, 1015808000.0, 11274.192, True),
            ((520, 696), 1, 220192128000000.0, 4487808000.0, 48933.584, False),
        ],
        ids=["dsb2018", "bbbc005-oom"],
    )
    def test_cnn_baseline(
        self, shape, channels, operations, peak_bytes, pi_seconds, fits
    ):
        cost = cnn_baseline_cost(*shape, channels=channels, iterations=1000)
        assert cost.kind == "tensor"
        assert cost.operations == operations
        assert cost.peak_memory_bytes == peak_bytes
        estimate = EdgeDeviceSimulator(RASPBERRY_PI_4).estimate_cnn_baseline(
            *shape, channels=channels, iterations=1000, strict=False
        )
        assert estimate.latency_seconds == pytest.approx(pi_seconds, rel=1e-12)
        assert estimate.fits_in_memory is fits


class TestNoServingPoolModel:
    """The device package prices one run; it has no worker-pool model."""

    @pytest.mark.parametrize(
        "name",
        [
            "ServingEstimate",
            "serving_estimate",
            "WorkerRecommendation",
            "recommend_workers",
            "http_wire_bytes",
        ],
    )
    def test_package_exports_no_serving_symbol(self, name):
        import repro.device
        from repro.device import cost_model

        assert name not in repro.device.__all__
        assert not hasattr(repro.device, name)
        assert not hasattr(cost_model, name)

    @pytest.mark.parametrize("field", ["num_cores", "network_bandwidth_bytes"])
    def test_profile_has_no_pool_field(self, field):
        assert not hasattr(RASPBERRY_PI_4, field)
        assert not hasattr(HOST_PROFILE, field)
        with pytest.raises(TypeError, match=field):
            DeviceProfile("x", 1e9, 1e8, 1e9, 2**30, **{field: 4})

    @pytest.mark.parametrize(
        "method", ["estimate_serving", "recommend_serving_workers"]
    )
    def test_simulator_has_no_serving_method(self, method):
        assert not hasattr(EdgeDeviceSimulator(RASPBERRY_PI_4), method)
