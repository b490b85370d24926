"""Edge-device run estimation.

:class:`EdgeDeviceSimulator` combines a :class:`DeviceProfile` with a
:class:`WorkloadCost` to produce an :class:`EdgeRunEstimate`: the modelled
latency (roofline rule: the larger of compute time and memory-traffic time,
plus the fixed start-up overhead) and the memory verdict.  Workloads whose
peak working set exceeds the device's usable memory raise
:class:`DeviceOutOfMemoryError`, reproducing the ``x`` entries of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.cost_model import WorkloadCost, cnn_baseline_cost, seghdc_cost
from repro.device.errors import DeviceOutOfMemoryError
from repro.device.profile import DeviceProfile

__all__ = ["EdgeDeviceSimulator", "EdgeRunEstimate"]


@dataclass(frozen=True)
class EdgeRunEstimate:
    """Latency and memory estimate of one run on a device."""

    device: str
    latency_seconds: float
    compute_seconds: float
    memory_seconds: float
    peak_memory_bytes: float
    usable_memory_bytes: float
    fits_in_memory: bool

    @property
    def peak_memory_gb(self) -> float:
        """Peak working set in gibibytes."""
        return self.peak_memory_bytes / 1024**3


class EdgeDeviceSimulator:
    """Estimate latency/memory of SegHDC and CNN-baseline runs on a device."""

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile

    def estimate(self, cost: WorkloadCost, *, strict: bool = True) -> EdgeRunEstimate:
        """Turn a workload cost into a latency estimate.

        With ``strict=True`` (default) a workload that does not fit in the
        device's usable memory raises :class:`DeviceOutOfMemoryError`; with
        ``strict=False`` the estimate is returned with ``fits_in_memory`` set
        to ``False`` so callers can tabulate the OOM case.
        """
        profile = self.profile
        if cost.kind == "tensor":
            throughput = profile.tensor_throughput_flops
        elif cost.kind == "hdc":
            throughput = profile.hdc_throughput_flops
        else:
            raise ValueError(f"unknown workload kind {cost.kind!r}")
        compute_seconds = cost.operations / throughput
        memory_seconds = cost.bytes_moved / profile.memory_bandwidth_bytes
        latency = max(compute_seconds, memory_seconds) + profile.startup_overhead_seconds
        fits = cost.peak_memory_bytes <= profile.usable_memory_bytes
        if strict and not fits:
            raise DeviceOutOfMemoryError(
                int(cost.peak_memory_bytes), profile.usable_memory_bytes, profile.name
            )
        return EdgeRunEstimate(
            device=profile.name,
            latency_seconds=latency,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            peak_memory_bytes=cost.peak_memory_bytes,
            usable_memory_bytes=profile.usable_memory_bytes,
            fits_in_memory=fits,
        )

    def estimate_seghdc(
        self,
        height: int,
        width: int,
        *,
        dimension: int,
        num_clusters: int,
        num_iterations: int,
        channels: int = 3,
        backend: str = "dense",
        counter_depth: int = 16,
        bundle_chunk_rows: int = 16384,
        strict: bool = True,
    ) -> EdgeRunEstimate:
        """Convenience wrapper: cost-model + estimate for a SegHDC run.

        ``backend`` selects the compute-backend cost model: the packed
        backend trades the dense assignment matmul for word-wide
        AND/popcount operations and shrinks the resident HV matrices ~8x.
        ``counter_depth`` / ``bundle_chunk_rows`` mirror the packed
        backend's bundling tunables (ignored under ``backend="dense"``).
        """
        cost = seghdc_cost(
            height,
            width,
            dimension=dimension,
            num_clusters=num_clusters,
            num_iterations=num_iterations,
            channels=channels,
            backend=backend,
            counter_depth=counter_depth,
            bundle_chunk_rows=bundle_chunk_rows,
        )
        return self.estimate(cost, strict=strict)

    def estimate_cnn_baseline(
        self,
        height: int,
        width: int,
        *,
        channels: int = 3,
        num_features: int = 100,
        num_layers: int = 2,
        iterations: int = 1000,
        strict: bool = True,
    ) -> EdgeRunEstimate:
        """Convenience wrapper: cost-model + estimate for a CNN-baseline run."""
        cost = cnn_baseline_cost(
            height,
            width,
            channels=channels,
            num_features=num_features,
            num_layers=num_layers,
            iterations=iterations,
        )
        return self.estimate(cost, strict=strict)
