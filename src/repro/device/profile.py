"""Device profiles.

A :class:`DeviceProfile` captures the handful of numbers the latency/memory
model needs.  Two calibrated profiles are shipped:

* :data:`RASPBERRY_PI_4` — the paper's target (4 GB Pi 4 Model B).  The two
  effective-throughput figures are calibrated so that the model reproduces
  the two measured rows of Table II: the CNN baseline runs through an
  optimised tensor library (PyTorch/NEON) at a few GFLOP/s, while the HDC
  pipeline is plain numpy over uint8 hypervectors with Python-level clustering
  loops and achieves only tens of MFLOP/s of useful arithmetic.
* :data:`HOST_PROFILE` — a generic development laptop/desktop, used when the
  experiments report host wall-clock alongside the modelled Pi latency.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceProfile", "HOST_PROFILE", "RASPBERRY_PI_4"]


@dataclass(frozen=True)
class DeviceProfile:
    """Analytical description of a compute device.

    Attributes
    ----------
    name:
        Human-readable identifier.
    tensor_throughput_flops:
        Effective FLOP/s sustained by an optimised tensor library on this
        device (used for the CNN baseline).
    hdc_throughput_flops:
        Effective FLOP/s sustained by the interpreted HDC pipeline (numpy
        uint8 element-wise work plus Python-level clustering loops).
    memory_bandwidth_bytes:
        Sustained memory bandwidth in bytes/s.
    total_memory_bytes:
        Physical memory of the device.
    usable_memory_fraction:
        Fraction of physical memory available to the workload after the OS,
        the Python runtime, and the framework have taken their share.
    startup_overhead_seconds:
        Fixed per-run overhead (interpreter + library start-up, image I/O).
    """

    name: str
    tensor_throughput_flops: float
    hdc_throughput_flops: float
    memory_bandwidth_bytes: float
    total_memory_bytes: int
    usable_memory_fraction: float = 0.8
    startup_overhead_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.tensor_throughput_flops <= 0 or self.hdc_throughput_flops <= 0:
            raise ValueError("throughput figures must be positive")
        if self.memory_bandwidth_bytes <= 0:
            raise ValueError("memory bandwidth must be positive")
        if self.total_memory_bytes <= 0:
            raise ValueError("total memory must be positive")
        if not (0.0 < self.usable_memory_fraction <= 1.0):
            raise ValueError("usable_memory_fraction must be in (0, 1]")
        if self.startup_overhead_seconds < 0:
            raise ValueError("startup overhead must be non-negative")

    @property
    def usable_memory_bytes(self) -> int:
        """Memory the workload may occupy before the run is declared OOM."""
        return int(self.total_memory_bytes * self.usable_memory_fraction)


#: Raspberry Pi 4 Model B, 4 GB — the paper's edge device.  Throughputs are
#: calibrated against the two measured rows of Table II (see EXPERIMENTS.md).
RASPBERRY_PI_4 = DeviceProfile(
    name="raspberry-pi-4b-4gb",
    tensor_throughput_flops=4.5e9,
    hdc_throughput_flops=4.46e7,
    memory_bandwidth_bytes=3.0e9,
    total_memory_bytes=4 * 1024**3,
    usable_memory_fraction=0.80,
    startup_overhead_seconds=2.0,
)

#: A generic x86 development machine (used for "host wall-clock" context).
HOST_PROFILE = DeviceProfile(
    name="x86-host",
    tensor_throughput_flops=1.2e11,
    hdc_throughput_flops=2.0e9,
    memory_bandwidth_bytes=2.0e10,
    total_memory_bytes=16 * 1024**3,
    usable_memory_fraction=0.85,
    startup_overhead_seconds=0.2,
)
