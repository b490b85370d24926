"""Edge-device latency and memory model.

The paper measures latency on a Raspberry Pi 4 Model B (4 GB) and reports
that the CNN baseline cannot process a 520 x 696 image at all because it runs
out of memory (Table II).  No Raspberry Pi is available in this environment,
so this package provides an analytical substitute:

* :class:`DeviceProfile` describes a device by its effective arithmetic
  throughput, memory bandwidth, and usable memory;
* the cost models in :mod:`repro.device.cost_model` count the floating-point
  operations and bytes moved by one SegHDC run and by one CNN-baseline run
  from the workload parameters (image size, HV dimension, iterations, network
  width/depth);
* :class:`EdgeDeviceSimulator` combines the two into latency estimates using a
  roofline-style ``max(compute time, memory time)`` rule and raises
  :class:`DeviceOutOfMemoryError` when the estimated peak working set exceeds
  the device's usable memory.

Absolute seconds are not expected to match the paper (different software
stack), but the *shape* — the 10^2-10^3x gap between the baseline and SegHDC
and the baseline OOM on the large BBBC005 image — is reproduced from first
principles.
"""

from repro.device.errors import DeviceOutOfMemoryError
from repro.device.profile import DeviceProfile, HOST_PROFILE, RASPBERRY_PI_4
from repro.device.cost_model import (
    WorkloadCost,
    cnn_baseline_cost,
    packed_bundle_cost,
    seghdc_cost,
)
from repro.device.executor import EdgeDeviceSimulator, EdgeRunEstimate
from repro.device.energy import EnergyEstimate, EnergyModel, RASPBERRY_PI_4_ENERGY

__all__ = [
    "DeviceOutOfMemoryError",
    "DeviceProfile",
    "EdgeDeviceSimulator",
    "EdgeRunEstimate",
    "EnergyEstimate",
    "EnergyModel",
    "HOST_PROFILE",
    "RASPBERRY_PI_4",
    "RASPBERRY_PI_4_ENERGY",
    "WorkloadCost",
    "cnn_baseline_cost",
    "packed_bundle_cost",
    "seghdc_cost",
]
