"""Canned load/chaos experiments: the harness's end-to-end scenarios.

:func:`run_experiments` executes the two canonical closed-loop-on-heavy-
traffic stories against live serving stacks and writes a timestamped
result folder per invocation:

* **single-host** — a process-mode :class:`ControlPlane` (Otsu
  ``threshold`` segmenter, so transport and scheduling dominate, not
  kernels) under an open-loop step schedule that doubles the offered rate
  mid-run, with an :class:`~repro.serving.autoscale.Autoscaler` holding a
  p99 SLO through the doubling and a chaos SIGKILL of a pool worker that
  the autoscaler must heal (forced generation rebuild);
* **cluster** — a 2-replica in-process fleet behind a
  :class:`ClusterGateway`, open-loop traffic over the raw-npy wire, one
  replica closed mid-run: the gateway's bounded failover must deliver
  every response exactly once from the surviving replica.

Both scenarios gate the exactly-once invariant (``lost == duplicated ==
0``) in their summaries; the CLI and CI smoke turn that into exit codes.
``run_experiments(quick=True)`` is the cheap sweep variant (seconds, not
minutes) CI runs on every push — same code paths, shorter phases.
"""

from __future__ import annotations

import os
import signal

from repro.loadgen.chaos import ChaosEvent, ChaosInjector
from repro.loadgen.generator import HttpTarget, LoadGenerator, ServerTarget
from repro.loadgen.results import ResultFolder
from repro.loadgen.schedule import make_schedule
from repro.loadgen.workload import ShapeMix
from repro.serving.autoscale import (
    AutoscalePolicy,
    Autoscaler,
    ControlPlaneActuator,
    observe_control,
)
from repro.serving.control import ControlPlane

__all__ = [
    "run_cluster_chaos",
    "run_experiments",
    "run_single_host_chaos",
]

#: Shape mix both scenarios use: small grayscale frames, two shapes so the
#: cluster tier's shape affinity actually routes.
_MIX = [((48, 64), 3.0), ((32, 40), 1.0)]


def _params(quick: bool) -> dict:
    """Scenario knobs for the cheap (CI) vs full variant."""
    if quick:
        return {
            "phase_seconds": 2.0,
            "base_rate": 15.0,
            "slo_p99_seconds": 1.0,
            "concurrency": 16,
            "autoscale_interval": 0.2,
            "cooldown_seconds": 0.6,
        }
    return {
        "phase_seconds": 10.0,
        "base_rate": 40.0,
        "slo_p99_seconds": 0.5,
        "concurrency": 32,
        "autoscale_interval": 0.25,
        "cooldown_seconds": 2.0,
    }


def run_single_host_chaos(
    folder: ResultFolder, *, quick: bool = False
) -> dict:
    """Step-doubling load + worker SIGKILL against an autoscaled host.

    Returns the run summary (also written into the folder's ``run-NN``),
    extended with the autoscaler rollup and the chaos event log.
    """
    p = _params(quick)
    control = ControlPlane(
        {"segmenter": "threshold"},
        {
            "mode": "process",
            "num_workers": 1,
            "max_queue_depth": 512,
            "max_batch_size": 8,
        },
    )
    schedule = make_schedule(
        {
            "kind": "step",
            "phases": [
                {"rate": p["base_rate"], "duration": p["phase_seconds"]},
                {"rate": 2 * p["base_rate"], "duration": p["phase_seconds"]},
            ],
        }
    )
    mix = ShapeMix(_MIX, seed=7)
    policy = AutoscalePolicy(
        slo_p99_seconds=p["slo_p99_seconds"],
        min_workers=1,
        max_workers=4,
        breach_rounds=2,
        calm_rounds=30,
        cooldown_seconds=p["cooldown_seconds"],
        min_samples=4,
    )

    def kill_worker(_target) -> dict:
        pids = control.server.worker_pids()
        if not pids:
            return {"note": "no live worker processes to kill"}
        os.kill(pids[0], signal.SIGKILL)
        return {"killed_pid": pids[0]}

    injector = ChaosInjector(
        [ChaosEvent(0.4 * schedule.duration, "kill-worker")],
        {"kill-worker": kill_worker},
    )
    generator = LoadGenerator(
        ServerTarget(control, request_timeout=30.0),
        schedule,
        mix,
        mode="open",
        concurrency=p["concurrency"],
        stats_interval=0.1,
    )
    try:
        # Warm the pool so worker PIDs exist before chaos fires.
        control.submit(mix.image_for(0), block=True).result(30.0)
        with Autoscaler(
            observe_control(control),
            ControlPlaneActuator(control),
            policy,
        ).start(interval=p["autoscale_interval"]) as autoscaler:
            with injector:
                report = generator.run()
        summary = report.summary(slo_p99_seconds=p["slo_p99_seconds"])
        summary["scenario"] = "single-host-chaos"
        summary["autoscaler"] = autoscaler.summary()
        summary["chaos"] = list(injector.injected)
        events = list(injector.injected) + [
            dict(decision, source="autoscaler")
            for decision in autoscaler.decisions
            if decision.get("action") not in (None, "hold")
        ]
        folder.write_run(
            folder.new_run(),
            summary=summary,
            requests=report.requests_as_dicts(),
            events=events,
        )
        return summary
    finally:
        control.close(drain=False)


def run_cluster_chaos(folder: ResultFolder, *, quick: bool = False) -> dict:
    """Open-loop traffic through the gateway while one replica is SIGKILLed.

    The fleet is real: a :class:`ReplicaSupervisor` boots two ``seghdc
    serve`` subprocesses behind a started gateway, and the chaos action
    SIGKILLs one replica's process mid-run — its keep-alive connections
    drop for real, the prober takes it off the ring, the gateway's bounded
    failover re-sends in-flight requests to the survivor (exactly once),
    and the supervisor restarts the corpse within its budget.
    """
    from repro.serving.cluster import ClusterGateway, ReplicaSupervisor

    p = _params(quick)
    gateway = ClusterGateway(
        port=0, probe_interval=0.1, max_attempts=3
    ).start()
    supervisor = ReplicaSupervisor(
        gateway,
        replicas=2,
        replica_args=[
            "--mode", "thread",
            "--workers", "2",
            "--segmenter", "threshold",
        ],
        monitor_interval=0.2,
    )
    schedule = make_schedule(
        {
            "kind": "poisson",
            "rate": p["base_rate"],
            "duration": 2 * p["phase_seconds"],
            "seed": 11,
        }
    )
    mix = ShapeMix(_MIX, seed=13)

    def kill_replica(target) -> dict:
        replica_id = target or "replica-0"
        replica = supervisor.replica(replica_id)
        if replica is None:
            return {"note": f"{replica_id} not found"}
        pid = replica.process.pid
        replica.process.kill()
        return {"killed": replica_id, "pid": pid}

    injector = ChaosInjector(
        [
            ChaosEvent(
                0.4 * schedule.duration, "kill-replica", target="replica-0"
            )
        ],
        {"kill-replica": kill_replica},
    )
    target = HttpTarget(
        "127.0.0.1",
        gateway.port,
        request_timeout=30.0,
        pool_size=p["concurrency"],
    )
    try:
        supervisor.start()
        gateway.wait_ready(timeout=120.0)
        generator = LoadGenerator(
            target,
            schedule,
            mix,
            mode="open",
            concurrency=p["concurrency"],
            stats_interval=0.1,
        )
        with injector:
            report = generator.run()
        summary = report.summary(slo_p99_seconds=p["slo_p99_seconds"])
        summary["scenario"] = "cluster-chaos"
        summary["chaos"] = list(injector.injected)
        summary["gateway"] = target.get_json("/stats").get("gateway", {})
        summary["fleet"] = {
            replica_id: {
                "restarts": entry.get("restarts"),
                "alive": entry.get("alive"),
            }
            for replica_id, entry in supervisor.snapshot().items()
        }
        folder.write_run(
            folder.new_run(),
            summary=summary,
            requests=report.requests_as_dicts(),
            events=list(injector.injected),
        )
        return summary
    finally:
        target.close()
        supervisor.stop()
        gateway.close()


def run_experiments(
    *,
    out_dir="results",
    quick: bool = False,
    timestamp: "str | None" = None,
) -> dict:
    """Run both chaos scenarios; returns the experiment rollup.

    The rollup (also written as the folder's ``meta.json``) carries each
    scenario's summary plus the top-level pass/fail verdict: exactly-once
    delivery held in both scenarios.
    """
    label = "loadgen-chaos-quick" if quick else "loadgen-chaos"
    folder = ResultFolder(out_dir, label, timestamp=timestamp)
    single = run_single_host_chaos(folder, quick=quick)
    cluster = run_cluster_chaos(folder, quick=quick)
    exactly_once = all(
        s["lost"] == 0 and s["duplicated"] == 0 for s in (single, cluster)
    )
    meta = {
        "experiment": label,
        "quick": quick,
        "result_dir": str(folder.path),
        "exactly_once": exactly_once,
        "scenarios": {
            "single_host": single,
            "cluster": cluster,
        },
    }
    folder.write_meta(meta)
    return meta

