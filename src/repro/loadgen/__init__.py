"""Load, chaos, and autoscaling harness for the serving stack.

The serving tiers (PRs 4–8: in-process server, HTTP front end, control
plane, cluster gateway/fleet) claim latency and resilience properties;
this package is what *checks* them under heavy traffic:

* :mod:`repro.loadgen.schedule` — deterministic arrival processes
  (constant / step / ramp / Poisson) built from declarative specs;
* :mod:`repro.loadgen.workload` — weighted :class:`ShapeMix` assigning
  every request index reproducible pixels;
* :mod:`repro.loadgen.generator` — the open/closed-loop
  :class:`LoadGenerator` over in-process, HTTP, or callable targets, with
  per-request records, error taxonomy, and a stats sampler; its
  :class:`LoadReport` computes sustained RPS, whole-run percentiles,
  SLO-violation seconds, and the exactly-once (zero lost / zero
  duplicated) verdict;
* :mod:`repro.loadgen.chaos` — scheduled fault injection
  (:class:`ChaosInjector`) firing worker/replica kills mid-run;
* :mod:`repro.loadgen.results` — timestamped multi-run result folders;
* :mod:`repro.loadgen.experiments` — the canned single-host + cluster
  chaos scenarios (:func:`run_experiments`; ``quick=True`` is the cheap
  CI variant).

The autoscaler itself lives with the serving code
(:mod:`repro.serving.autoscale`); this package supplies the traffic that
makes its OBSERVE/DECIDE/ACTUATE loop do something worth measuring.
The CLI front end is ``seghdc loadgen``.
"""

from repro.loadgen.chaos import ChaosEvent, ChaosInjector
from repro.loadgen.generator import (
    CallableTarget,
    HttpTarget,
    LoadGenerator,
    LoadReport,
    RequestRecord,
    ServerTarget,
    classify_error,
)
from repro.loadgen.results import ResultFolder, write_json
from repro.loadgen.schedule import (
    ArrivalSchedule,
    ConstantSchedule,
    PoissonSchedule,
    RampSchedule,
    StepSchedule,
    make_schedule,
)
from repro.loadgen.workload import ShapeMix

__all__ = [
    "ArrivalSchedule",
    "CallableTarget",
    "ChaosEvent",
    "ChaosInjector",
    "ConstantSchedule",
    "HttpTarget",
    "LoadGenerator",
    "LoadReport",
    "PoissonSchedule",
    "RampSchedule",
    "RequestRecord",
    "ResultFolder",
    "ServerTarget",
    "ShapeMix",
    "StepSchedule",
    "classify_error",
    "make_schedule",
    "write_json",
]
