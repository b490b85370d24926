"""Throughput serving layer over any registered segmenter.

The paper's pipeline is embarrassingly parallel per image; this package
turns any :class:`repro.api.Segmenter` (SegHDC, the CNN baseline, or a
user-registered algorithm) into a long-lived concurrent service:

* :class:`SegmentationServer` — worker pool (thread or process mode) with a
  bounded submit/poll/drain API, backpressure, and a streaming
  :meth:`~SegmentationServer.map` generator;
* :class:`repro.api.ServingOptions` (re-exported here) — the declarative
  form of the server's topology, consumed by ``SegmentationServer.from_options``;
* :class:`repro.serving.batcher.ShapeBatcher` — shape-aware micro-batching
  so each worker hits the engine's cached encoder grid;
* :class:`repro.serving.stats.ServerStats` — queue depth, end-to-end latency
  percentiles, and cache hit rates aggregated from result workloads;
* :class:`repro.serving.control.ControlPlane` — generation-based hot
  reconfiguration: validated config/serving diffs build a warmed
  generation N+1 next to the live one, swap atomically, and drain the old
  pool without dropping a request (:class:`SpecWatcher` is the
  file-driven front end for ``seghdc serve --watch-spec``);
* :class:`repro.serving.http.SegmentationHTTPServer` — the stdlib HTTP
  front end (``POST /v1/segment``, ``POST /v1/segment-stream``,
  ``POST /v1/config``, ``GET /v1/segmenters``, ``GET /healthz``,
  ``GET /stats``) speaking raw ``.npy`` / SHDC frames or nested-list
  JSON, wired to the CLI as ``seghdc serve``;
* :mod:`repro.serving.cluster` — the multi-node tier: a
  :class:`ClusterGateway` routing the same HTTP surface across a fleet of
  replica servers by shape affinity (consistent-hash ring, health-probed
  membership, exactly-once failover), with a :class:`ReplicaSupervisor`
  spawning and restarting the replica processes (``seghdc cluster``);
* :class:`repro.serving.autoscale.Autoscaler` — the latency-SLO control
  loop (OBSERVE ``/stats`` → DECIDE against an :class:`AutoscalePolicy`
  with hysteresis → ACTUATE through the control plane or the cluster
  supervisor), driven under load by :mod:`repro.loadgen`.

In process mode each worker builds each image shape's encoder grid once in
its own engine LRU; nothing but the segmenter spec crosses to the workers
at start-up, and each image's pixels are pickled through the pool pipe
(see :mod:`repro.serving.server`).
"""

from repro.api.spec import ServingOptions
from repro.serving.autoscale import (
    AutoscalePolicy,
    Autoscaler,
    ControlPlaneActuator,
    Observation,
    SupervisorActuator,
)
from repro.serving.batcher import ShapeBatcher
from repro.serving.cluster import (
    ClusterGateway,
    ConsistentHashRing,
    HealthProber,
    ReplicaClient,
    ReplicaSupervisor,
)
from repro.serving.control import (
    ControlError,
    ControlPlane,
    GenerationHandle,
    SpecWatcher,
)
from repro.serving.http import HTTPRequestError, SegmentationHTTPServer
from repro.serving.jobqueue import BoundedJobQueue
from repro.serving.server import (
    JobHandle,
    SegmentationServer,
    ServerClosed,
    ServerSaturated,
    ServingError,
)
from repro.serving.stats import ServerStats, StatsCollector

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "BoundedJobQueue",
    "ClusterGateway",
    "ConsistentHashRing",
    "ControlError",
    "ControlPlane",
    "ControlPlaneActuator",
    "GenerationHandle",
    "Observation",
    "SupervisorActuator",
    "HTTPRequestError",
    "HealthProber",
    "JobHandle",
    "ReplicaClient",
    "ReplicaSupervisor",
    "SpecWatcher",
    "SegmentationHTTPServer",
    "SegmentationServer",
    "ServerClosed",
    "ServerSaturated",
    "ServerStats",
    "ServingError",
    "ServingOptions",
    "ShapeBatcher",
    "StatsCollector",
]
