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
    recommend_workers,
    seghdc_cost,
    serving_estimate,
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


class TestServingEstimate:
    """Concurrency-aware throughput model for the serving worker pool."""

    def _cost(self):
        return seghdc_cost(64, 64, dimension=1000, num_clusters=2, num_iterations=3)

    def test_compute_bound_workload_scales_to_core_count_and_no_further(self):
        cost = self._cost()
        kwargs = dict(
            compute_throughput_flops=1e8,
            memory_bandwidth_bytes=1e12,  # bandwidth effectively unlimited
            num_cores=4,
        )
        one = serving_estimate(cost, num_workers=1, **kwargs)
        four = serving_estimate(cost, num_workers=4, **kwargs)
        eight = serving_estimate(cost, num_workers=8, **kwargs)
        assert one.speedup == pytest.approx(1.0)
        assert four.speedup == pytest.approx(4.0)
        # Workers beyond the core count add queue depth, not rate.
        assert eight.images_per_second == pytest.approx(four.images_per_second)
        assert eight.parallel_workers == 4
        assert four.bottleneck == "compute"

    def test_memory_bound_workload_does_not_scale(self):
        cost = self._cost()
        estimate = serving_estimate(
            cost,
            num_workers=4,
            compute_throughput_flops=1e14,  # compute effectively free
            memory_bandwidth_bytes=1e8,
            num_cores=4,
        )
        assert estimate.bottleneck == "memory"
        # The shared memory bus caps the pool at the single-worker rate.
        assert estimate.speedup == pytest.approx(1.0)

    def test_latency_follows_littles_law(self):
        cost = self._cost()
        estimate = serving_estimate(
            cost,
            num_workers=4,
            compute_throughput_flops=1e8,
            memory_bandwidth_bytes=1e12,
            num_cores=4,
        )
        assert estimate.latency_seconds == pytest.approx(
            estimate.num_workers / estimate.images_per_second
        )

    def test_network_term_caps_the_pool_like_a_shared_bus(self):
        """A slow NIC bounds images/s at bandwidth / bytes-per-image no
        matter how many workers the pool has."""
        cost = self._cost()
        kwargs = dict(
            compute_throughput_flops=1e14,  # compute effectively free
            memory_bandwidth_bytes=1e14,  # memory effectively free
            num_cores=8,
            network_bandwidth_bytes=1e6,
            network_bytes_per_image=250_000.0,  # request + response bytes
        )
        four = serving_estimate(cost, num_workers=4, **kwargs)
        eight = serving_estimate(cost, num_workers=8, **kwargs)
        assert four.bottleneck == "network"
        assert four.images_per_second == pytest.approx(1e6 / 250_000.0)
        # The NIC is shared: more workers add no rate.
        assert eight.images_per_second == pytest.approx(four.images_per_second)
        # Serial rate pays the network too, so the speedup stays 1x.
        assert four.speedup == pytest.approx(1.0)

    def test_network_term_is_inert_when_traffic_is_zero(self):
        cost = self._cost()
        base = serving_estimate(
            cost,
            num_workers=4,
            compute_throughput_flops=1e8,
            memory_bandwidth_bytes=1e12,
            num_cores=4,
        )
        with_nic = serving_estimate(
            cost,
            num_workers=4,
            compute_throughput_flops=1e8,
            memory_bandwidth_bytes=1e12,
            num_cores=4,
            network_bandwidth_bytes=1e6,  # slow NIC, but nothing on the wire
            network_bytes_per_image=0.0,
        )
        assert with_nic.images_per_second == pytest.approx(
            base.images_per_second
        )
        assert with_nic.bottleneck == base.bottleneck == "compute"

    def test_network_workload_without_a_nic_fails_loudly(self):
        cost = self._cost()
        with pytest.raises(ValueError, match="network_bandwidth_bytes"):
            serving_estimate(
                cost,
                num_workers=2,
                compute_throughput_flops=1e8,
                memory_bandwidth_bytes=1e9,
                num_cores=4,
                network_bandwidth_bytes=None,
                network_bytes_per_image=1024.0,
            )
        profile = DeviceProfile("no-nic", 1e9, 1e8, 1e9, 2**30)
        with pytest.raises(ValueError, match="network_bandwidth_bytes"):
            EdgeDeviceSimulator(profile).estimate_serving(
                cost, num_workers=2, network_bytes_per_image=1024.0
            )
        with pytest.raises(ValueError, match="network_bandwidth_bytes"):
            DeviceProfile("bad-nic", 1e9, 1e8, 1e9, 2**30,
                          network_bandwidth_bytes=0.0)

    def test_simulator_passes_the_profile_nic_through(self):
        """The Pi profile models gigabit Ethernet; a megapixel-per-image
        HTTP workload lands on the NIC ceiling."""
        simulator = EdgeDeviceSimulator(RASPBERRY_PI_4)
        cost = self._cost()
        # Enormous per-image traffic so the NIC dominates compute/memory.
        estimate = simulator.estimate_serving(
            cost, num_workers=4, network_bytes_per_image=1e9
        )
        assert estimate.bottleneck == "network"
        assert estimate.images_per_second == pytest.approx(
            RASPBERRY_PI_4.network_bandwidth_bytes / 1e9
        )
        # Modest traffic leaves the old compute/memory answer untouched.
        light = simulator.estimate_serving(
            cost, num_workers=4, network_bytes_per_image=64 * 64.0
        )
        plain = simulator.estimate_serving(cost, num_workers=4)
        assert light.bottleneck == plain.bottleneck
        assert light.images_per_second == pytest.approx(
            plain.images_per_second
        )

    def test_simulator_wrapper_uses_profile_cores_and_checks_memory(self):
        simulator = EdgeDeviceSimulator(RASPBERRY_PI_4)
        cost = self._cost()
        estimate = simulator.estimate_serving(cost, num_workers=8)
        assert estimate.parallel_workers == RASPBERRY_PI_4.num_cores
        assert estimate.images_per_second > estimate.serial_images_per_second
        # A pool whose aggregate working set exceeds usable memory is a
        # deployment error under strict mode.
        big = seghdc_cost(
            520, 696, dimension=10_000, num_clusters=2, num_iterations=10
        )
        with pytest.raises(DeviceOutOfMemoryError):
            simulator.estimate_serving(big, num_workers=4)
        relaxed = simulator.estimate_serving(big, num_workers=4, strict=False)
        assert relaxed.peak_memory_bytes > RASPBERRY_PI_4.usable_memory_bytes

    def test_validation(self):
        cost = self._cost()
        with pytest.raises(ValueError):
            serving_estimate(
                cost,
                num_workers=0,
                compute_throughput_flops=1e8,
                memory_bandwidth_bytes=1e9,
                num_cores=4,
            )
        with pytest.raises(ValueError):
            serving_estimate(
                cost,
                num_workers=2,
                compute_throughput_flops=0,
                memory_bandwidth_bytes=1e9,
                num_cores=4,
            )
        with pytest.raises(ValueError):
            DeviceProfile("x", 1, 1, 1, 1, num_cores=0)


class TestWireBytesModel:
    """``http_wire_bytes`` against the serving codecs' actual output."""

    @pytest.mark.parametrize(
        "spec, shape",
        [
            ({"segmenter": "threshold"}, (128, 128)),
            (
                {
                    "segmenter": "seghdc",
                    "config": {
                        "dimension": 256,
                        "num_iterations": 2,
                        "backend": "packed",
                    },
                },
                (64, 64),
            ),
        ],
        ids=["threshold-128", "seghdc-packed-64"],
    )
    def test_model_equals_encoded_pixels_plus_labels(self, spec, shape):
        """Exact, not approximate: the model counts the same ``.npy``
        headers the codec emits, for the label map a real segmenter
        returns."""
        import numpy as np

        from repro.api import make_segmenter
        from repro.device import http_wire_bytes
        from repro.serving.http import npy_bytes

        image = np.random.default_rng(5).integers(
            0, 256, size=shape, dtype=np.uint8
        )
        labels = make_segmenter(spec).segment(image).labels
        measured = len(npy_bytes(image)) + len(npy_bytes(labels))
        assert http_wire_bytes(*shape, wire="raw") == measured


class TestRecommendWorkers:
    """The serving-estimate inversion that sizes worker pools."""

    def _kwargs(self):
        return dict(
            compute_throughput_flops=1e8,
            memory_bandwidth_bytes=1e12,  # compute-bound: rate scales with W
            num_cores=8,
        )

    def _cost(self):
        return seghdc_cost(
            64, 64, dimension=800, num_clusters=2, num_iterations=3
        )

    def test_minimal_feasible_pool(self):
        cost = self._cost()
        kwargs = self._kwargs()
        serial = serving_estimate(cost, num_workers=1, **kwargs)
        target = 2.5 * serial.images_per_second
        rec = recommend_workers(
            cost, target_images_per_second=target, **kwargs
        )
        assert rec.feasible
        assert rec.num_workers == 3  # smallest W with W x serial >= 2.5x
        assert rec.estimate.images_per_second >= target
        # Minimality: one fewer worker would miss the target.
        smaller = serving_estimate(
            cost, num_workers=rec.num_workers - 1, **kwargs
        )
        assert smaller.images_per_second < target

    def test_trivial_target_needs_one_worker(self):
        cost = self._cost()
        kwargs = self._kwargs()
        rec = recommend_workers(
            cost, target_images_per_second=1e-6, **kwargs
        )
        assert rec.feasible and rec.num_workers == 1

    def test_unreachable_target_reports_infeasible_at_ceiling(self):
        cost = self._cost()
        kwargs = self._kwargs()
        rec = recommend_workers(
            cost, target_images_per_second=1e12, **kwargs
        )
        assert not rec.feasible
        assert rec.num_workers == kwargs["num_cores"]
        assert rec.as_dict()["feasible"] is False

    def test_shared_memory_ceiling_caps_the_scan(self):
        cost = self._cost()
        # Memory-bound: the bus is shared, so no worker count reaches a
        # target above the single-bus rate.
        kwargs = dict(
            compute_throughput_flops=1e14,
            memory_bandwidth_bytes=cost.bytes_moved * 10.0,  # 10 img/s bus
            num_cores=8,
        )
        rec = recommend_workers(
            cost, target_images_per_second=20.0, **kwargs
        )
        assert not rec.feasible
        assert rec.estimate.bottleneck == "memory"

    def test_max_workers_bounds_the_recommendation(self):
        cost = self._cost()
        kwargs = self._kwargs()
        serial = serving_estimate(cost, num_workers=1, **kwargs)
        rec = recommend_workers(
            cost,
            target_images_per_second=6 * serial.images_per_second,
            max_workers=2,
            **kwargs,
        )
        assert not rec.feasible
        assert rec.num_workers == 2

    def test_validation(self):
        cost = self._cost()
        with pytest.raises(ValueError):
            recommend_workers(
                cost, target_images_per_second=0.0, **self._kwargs()
            )
        with pytest.raises(ValueError):
            recommend_workers(
                cost,
                target_images_per_second=1.0,
                max_workers=0,
                **self._kwargs(),
            )

    def test_simulator_recommend_serving_workers(self):
        simulator = EdgeDeviceSimulator(RASPBERRY_PI_4)
        cost = self._cost()
        serial = simulator.estimate_serving(cost, num_workers=1)
        rec = simulator.recommend_serving_workers(
            cost, target_images_per_second=1.5 * serial.images_per_second
        )
        assert rec.num_workers >= 2
        assert rec.estimate.images_per_second >= rec.target_images_per_second


class TestPredictionAccuracy:
    """recommend_workers vs the autoscaler's converged pool size.

    The serving loop is simulated *from the cost model itself*: an
    observation reports a breaching p99 whenever the offered rate exceeds
    the modelled throughput of the current pool, calm otherwise.  Driving
    the real Autoscaler over that feedback must converge onto a worker
    count within +/-1 of the model inversion's recommendation (the
    documented tolerance: the loop steps conservatively and never
    overshoots the bound, the model knows nothing about hysteresis).
    This is the gate on the prediction; the chaos sweep
    (``tests/test_loadgen_chaos.py``) gates a real autoscaled pool's
    exactly-once behaviour under a worker SIGKILL.
    """

    def test_autoscaler_converges_onto_recommended_workers(self):
        from repro.serving.autoscale import AutoscalePolicy, Autoscaler

        cost = seghdc_cost(
            64, 64, dimension=800, num_clusters=2, num_iterations=3
        )
        kwargs = dict(
            compute_throughput_flops=1e8,
            memory_bandwidth_bytes=1e12,
            num_cores=8,
        )
        serial = serving_estimate(cost, num_workers=1, **kwargs)
        offered = 3.4 * serial.images_per_second
        recommendation = recommend_workers(
            cost, target_images_per_second=offered, **kwargs
        )
        assert recommendation.feasible

        slo = 1.0

        class ModelActuator:
            """Tracks the pool size the loop actuates."""

            def __init__(self):
                self.workers = 1

            def current_workers(self):
                return self.workers

            def scale_to(self, workers):
                self.workers = workers
                return {"status": "swapped"}

        actuator = ModelActuator()
        clock = {"now": 0.0}
        completed = {"count": 0}

        def observe():
            estimate = serving_estimate(
                cost, num_workers=actuator.workers, **kwargs
            )
            utilization = offered / estimate.images_per_second
            # Overloaded pools breach; comfortably sized ones sit in the
            # hysteresis dead band; only genuinely idle ones look calm
            # (the shape real queueing latency has, coarsely).
            if utilization > 1.0:
                p99 = 4 * slo
            elif utilization > 0.6:
                p99 = 0.7 * slo
            else:
                p99 = 0.2 * slo
            completed["count"] += 50
            return {
                "latency": {"p99": p99, "count": 50},
                "queue_depth": (
                    10 * actuator.workers if utilization > 1.0 else 0
                ),
                "completed": completed["count"],
                "failed": 0,
                "num_workers": actuator.workers,
            }

        scaler = Autoscaler(
            observe,
            actuator,
            AutoscalePolicy(
                slo_p99_seconds=slo,
                max_workers=8,
                breach_rounds=2,
                calm_rounds=5,
                cooldown_seconds=0.0,
            ),
            clock=lambda: clock["now"],
        )
        for _ in range(40):
            scaler.step()
            clock["now"] += 1.0

        converged = actuator.workers
        assert abs(converged - recommendation.num_workers) <= 1, (
            f"autoscaler converged on {converged} workers, model "
            f"recommended {recommendation.num_workers}"
        )
        # And it is genuinely converged: enough capacity, no overshoot
        # beyond one step past the recommendation.
        final = serving_estimate(cost, num_workers=converged, **kwargs)
        assert final.images_per_second >= offered

    def test_predictor_seam_jumps_straight_to_recommendation(self):
        from repro.serving.autoscale import AutoscalePolicy, Autoscaler

        cost = seghdc_cost(
            64, 64, dimension=800, num_clusters=2, num_iterations=3
        )
        kwargs = dict(
            compute_throughput_flops=1e8,
            memory_bandwidth_bytes=1e12,
            num_cores=8,
        )
        serial = serving_estimate(cost, num_workers=1, **kwargs)
        offered = 3.4 * serial.images_per_second
        recommendation = recommend_workers(
            cost, target_images_per_second=offered, **kwargs
        )

        class ModelActuator:
            """Tracks the pool size the loop actuates."""

            def __init__(self):
                self.workers = 1

            def current_workers(self):
                return self.workers

            def scale_to(self, workers):
                self.workers = workers
                return {"status": "swapped"}

        actuator = ModelActuator()
        clock = {"now": 0.0}

        def observe():
            estimate = serving_estimate(
                cost, num_workers=actuator.workers, **kwargs
            )
            overloaded = offered > estimate.images_per_second
            return {
                "latency": {
                    "p99": 4.0 if overloaded else 0.2,
                    "count": 50,
                },
                "queue_depth": 0,
                "completed": 0,
                "failed": 0,
                "num_workers": actuator.workers,
            }

        scaler = Autoscaler(
            observe,
            actuator,
            AutoscalePolicy(
                slo_p99_seconds=1.0,
                max_workers=8,
                breach_rounds=1,
                cooldown_seconds=0.0,
            ),
            clock=lambda: clock["now"],
            predictor=lambda obs: recommendation.num_workers,
        )
        scaler.step()
        # One actuation lands exactly on the model's recommendation
        # instead of stepping one worker at a time.
        assert actuator.workers == recommendation.num_workers
