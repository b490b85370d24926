"""Latency-SLO autoscaler: OBSERVE / DECIDE / ACTUATE over a serving stack.

Closes the heavy-traffic loop the ROADMAP asks for: the serving layers
(pools, zero-copy wire, hot reconfig, the sharded fleet) expose *capacity*
knobs — this module turns ``/stats`` observations into knob turns.  One
:class:`Autoscaler` instance runs a single control loop:

* **OBSERVE** — a caller-supplied ``observe`` callable returns the current
  serving stats (a :class:`~repro.serving.stats.ServerStats`-shaped dict or
  an :class:`Observation`): p99 latency, queue depth, completed/failed
  counters, live worker count.  Sources: a local
  :class:`~repro.serving.control.ControlPlane` (:func:`observe_control`),
  a remote server's ``GET /stats`` (:func:`observe_http`), or a scripted
  stub in tests.
* **DECIDE** — compare against an :class:`AutoscalePolicy`: a p99 over the
  SLO (or a queue deeper than ``queue_high_per_worker x workers``) for
  ``breach_rounds`` *consecutive* observations demands scale-up; a p99
  under ``low_watermark x SLO`` with an empty queue for ``calm_rounds``
  observations permits scale-down.  The asymmetric streaks plus the
  post-actuation ``cooldown_seconds`` are the hysteresis that keeps noisy
  percentiles from flapping the pool.  A jump in the failure counter takes
  priority: it demands a **heal** (the broken-process-pool case — a
  SIGKILLed worker poisons the whole executor).
* **ACTUATE** — an actuator object applies the verdict:
  :class:`ControlPlaneActuator` resizes the single-host pool through the
  generation-swap reconfigure path (and heals via
  :meth:`~repro.serving.control.ControlPlane.rebuild`);
  :class:`SupervisorActuator` grows/shrinks a replica fleet through
  :meth:`~repro.serving.cluster.supervisor.ReplicaSupervisor.scale_to`
  (heal is a no-op — the supervisor's monitor already restarts the dead).

Every round appends a decision record (observation, verdict, reason,
actuation outcome, reaction latency) to :attr:`Autoscaler.decisions`, and
:meth:`Autoscaler.summary` rolls them up — scale-up/scale-down counts and
latencies, integrated SLO-violation seconds — into the shape the
single-host chaos scenario (``seghdc loadgen``) records.  The loop is
fully deterministic under an injected ``clock`` + scripted observations,
which is how ``tests/test_autoscale.py`` pins the hysteresis behavior.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "ControlPlaneActuator",
    "Observation",
    "SupervisorActuator",
    "observe_control",
    "observe_http",
]


@dataclass(frozen=True)
class Observation:
    """One OBSERVE sample: the serving signals the DECIDE step reads."""

    p99_seconds: float
    latency_count: int
    queue_depth: int
    completed: int
    failed: int
    workers: int

    @classmethod
    def from_serving(cls, stats: Mapping) -> "Observation":
        """Build from a ``ServerStats``-shaped dict (``/stats`` ``serving``).

        Accepts both the in-process ``ServerStats.as_dict()`` form and the
        HTTP ``/stats`` payload's ``"serving"`` sub-document — they are the
        same shape by construction.
        """
        latency = stats.get("latency") or {}
        return cls(
            p99_seconds=float(latency.get("p99", 0.0)),
            latency_count=int(latency.get("count", 0)),
            queue_depth=int(stats.get("queue_depth", 0)),
            completed=int(stats.get("completed", 0)),
            failed=int(stats.get("failed", 0)),
            workers=int(stats.get("num_workers", 1)),
        )


def observe_control(control) -> Callable[[], Observation]:
    """OBSERVE source over an in-process :class:`ControlPlane`."""

    def observe() -> Observation:
        return Observation.from_serving(control.stats().as_dict())

    return observe


def observe_http(client) -> Callable[[], Observation]:
    """OBSERVE source over a remote server's ``GET /stats``.

    ``client`` is anything with ``get_json(path) -> dict`` (a
    :class:`repro.serving.cluster.client.ReplicaClient`); the serving
    sub-document of the stats payload feeds the loop.
    """

    def observe() -> Observation:
        payload = client.get_json("/stats")
        return Observation.from_serving(payload.get("serving") or {})

    return observe


@dataclass(frozen=True)
class AutoscalePolicy:
    """The DECIDE step's thresholds and hysteresis.

    ``slo_p99_seconds`` is the latency objective.  Scale-up needs
    ``breach_rounds`` consecutive breaching observations; scale-down needs
    ``calm_rounds`` consecutive calm ones (p99 under ``low_watermark x
    SLO`` *and* an empty queue) — the band between the watermark and the
    SLO belongs to neither streak, so a pool hovering there holds steady.
    ``cooldown_seconds`` freezes actuation after any action so the loop
    observes the new capacity before judging it.  Observations whose
    latency sample is smaller than ``min_samples`` carry no p99 signal and
    leave the streaks untouched (queue pressure still counts).
    """

    slo_p99_seconds: float
    min_workers: int = 1
    max_workers: int = 8
    low_watermark: float = 0.5
    breach_rounds: int = 2
    calm_rounds: int = 5
    cooldown_seconds: float = 5.0
    min_samples: int = 4
    queue_high_per_worker: float = 4.0
    heal_failure_threshold: int = 1

    def __post_init__(self) -> None:
        if self.slo_p99_seconds <= 0:
            raise ValueError(
                f"slo_p99_seconds must be positive, got {self.slo_p99_seconds}"
            )
        if self.min_workers < 1 or self.max_workers < self.min_workers:
            raise ValueError(
                f"need 1 <= min_workers <= max_workers, got "
                f"{self.min_workers}..{self.max_workers}"
            )
        if not 0.0 < self.low_watermark < 1.0:
            raise ValueError(
                f"low_watermark must be in (0, 1), got {self.low_watermark}"
            )
        if self.breach_rounds < 1 or self.calm_rounds < 1:
            raise ValueError("breach_rounds and calm_rounds must be >= 1")
        if self.cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be non-negative, got "
                f"{self.cooldown_seconds}"
            )


class ControlPlaneActuator:
    """ACTUATE a single host: resize / heal through the control plane.

    Scale changes ride the full generation-swap protocol (build, warm,
    atomic swap, drain), so in-flight requests never notice the pool
    resizing under them — the zero-dropped-requests property the control
    plane already guarantees is exactly what makes autoscaling safe to run
    against live traffic.
    """

    def __init__(self, control) -> None:
        self._control = control

    def current_workers(self) -> int:
        """The live generation's worker count."""
        return int(self._control.num_workers)

    def scale_to(self, workers: int) -> dict:
        """Swap in a generation with ``workers`` workers."""
        return self._control.reconfigure(
            {"serving": {"num_workers": int(workers)}}, reason="autoscale"
        )

    def heal(self) -> dict:
        """Force-rebuild the current generation (broken-pool recovery)."""
        return self._control.rebuild(reason="autoscale-heal")


class SupervisorActuator:
    """ACTUATE a cluster: grow/shrink the supervised replica fleet.

    ``heal`` is deliberately a no-op: the supervisor's monitor thread
    already restarts dead replicas within their budget, and the prober
    keeps them off the ring meanwhile — a second healing authority would
    race the first.
    """

    def __init__(self, supervisor) -> None:
        self._supervisor = supervisor

    def current_workers(self) -> int:
        """Live replica-process count."""
        return len(self._supervisor.snapshot())

    def scale_to(self, replicas: int) -> dict:
        """Grow or shrink the fleet to ``replicas`` processes."""
        return self._supervisor.scale_to(int(replicas))

    def heal(self) -> dict:
        """No-op (the supervisor's restart monitor owns replica healing)."""
        return {"status": "noop", "reason": "supervisor restarts replicas"}


class Autoscaler:
    """One OBSERVE/DECIDE/ACTUATE control loop against a latency SLO.

    Parameters
    ----------
    observe:
        Zero-argument callable returning the current :class:`Observation`
        (or a ``ServerStats``-shaped mapping, normalized via
        :meth:`Observation.from_serving`).
    actuator:
        Object with ``current_workers()`` / ``scale_to(n)`` and optionally
        ``heal()`` — see :class:`ControlPlaneActuator` /
        :class:`SupervisorActuator`.
    policy:
        The :class:`AutoscalePolicy` thresholds.
    clock:
        Monotonic time source; injectable so tests script time.
    """

    def __init__(
        self,
        observe: Callable[[], "Observation | Mapping"],
        actuator,
        policy: AutoscalePolicy,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._observe = observe
        self._actuator = actuator
        self.policy = policy
        self._clock = clock
        self.decisions: list[dict] = []
        self._breach_streak = 0
        self._calm_streak = 0
        self._last_action_at: "float | None" = None
        self._breach_started_at: "float | None" = None
        self._last_observed_at: "float | None" = None
        self._last_failed: "int | None" = None
        self._slo_violation_seconds = 0.0
        self._scale_ups = 0
        self._scale_downs = 0
        self._heals = 0
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # the loop body
    # ------------------------------------------------------------------ #
    def step(self) -> dict:
        """Run one OBSERVE/DECIDE/ACTUATE round; returns its record."""
        policy = self.policy
        now = self._clock()
        raw = self._observe()
        obs = (
            raw
            if isinstance(raw, Observation)
            else Observation.from_serving(raw)
        )
        has_signal = obs.latency_count >= policy.min_samples
        breaching = has_signal and obs.p99_seconds > policy.slo_p99_seconds
        # Integrate SLO-violation time: the span since the previous
        # observation is charged when the current p99 sits over the SLO.
        if breaching and self._last_observed_at is not None:
            self._slo_violation_seconds += max(
                0.0, now - self._last_observed_at
            )
        self._last_observed_at = now
        failures_delta = (
            obs.failed - self._last_failed
            if self._last_failed is not None
            else 0
        )
        self._last_failed = obs.failed

        queue_pressure = obs.queue_depth >= (
            policy.queue_high_per_worker * max(1, obs.workers)
        )
        breach = breaching or queue_pressure
        calm = (
            has_signal
            and obs.p99_seconds
            < policy.low_watermark * policy.slo_p99_seconds
            and obs.queue_depth == 0
        )
        if breach:
            if self._breach_streak == 0:
                self._breach_started_at = now
            self._breach_streak += 1
            self._calm_streak = 0
        elif calm:
            self._calm_streak += 1
            self._breach_streak = 0
            self._breach_started_at = None
        else:
            # The dead band between the watermark and the SLO: both streaks
            # reset, the pool holds steady.
            self._breach_streak = 0
            self._calm_streak = 0
            self._breach_started_at = None

        record = {
            "at": now,
            "p99_seconds": obs.p99_seconds,
            "queue_depth": obs.queue_depth,
            "workers": obs.workers,
            "failures_delta": failures_delta,
            "breach_streak": self._breach_streak,
            "calm_streak": self._calm_streak,
            "action": "none",
            "reason": "",
        }

        in_cooldown = (
            self._last_action_at is not None
            and now - self._last_action_at < policy.cooldown_seconds
        )

        heal = getattr(self._actuator, "heal", None)
        if (
            failures_delta >= policy.heal_failure_threshold
            and heal is not None
        ):
            if in_cooldown:
                record.update(action="cooldown", reason="heal deferred")
            else:
                record.update(
                    action="heal",
                    reason=f"{failures_delta} new failure(s)",
                    outcome=heal(),
                )
                self._heals += 1
                self._after_action(now)
        elif self._breach_streak >= policy.breach_rounds:
            target = min(policy.max_workers, obs.workers + 1)
            if target <= obs.workers:
                record.update(
                    action="none",
                    reason=f"breach at max_workers={policy.max_workers}",
                )
            elif in_cooldown:
                record.update(action="cooldown", reason="scale-up deferred")
            else:
                outcome = self._actuator.scale_to(target)
                reaction = (
                    now - self._breach_started_at
                    if self._breach_started_at is not None
                    else 0.0
                )
                record.update(
                    action="scale_up",
                    target_workers=target,
                    reason=(
                        f"p99 {obs.p99_seconds:.3f}s / queue "
                        f"{obs.queue_depth} over SLO for "
                        f"{self._breach_streak} round(s)"
                    ),
                    reaction_seconds=reaction,
                    outcome=outcome,
                )
                self._scale_ups += 1
                self._after_action(now)
        elif self._calm_streak >= policy.calm_rounds:
            target = max(policy.min_workers, obs.workers - 1)
            if target >= obs.workers:
                record.update(
                    action="none",
                    reason=f"calm at min_workers={policy.min_workers}",
                )
            elif in_cooldown:
                record.update(action="cooldown", reason="scale-down deferred")
            else:
                outcome = self._actuator.scale_to(target)
                record.update(
                    action="scale_down",
                    target_workers=target,
                    reason=(
                        f"p99 {obs.p99_seconds:.3f}s under watermark for "
                        f"{self._calm_streak} round(s)"
                    ),
                    outcome=outcome,
                )
                self._scale_downs += 1
                self._after_action(now)
        self.decisions.append(record)
        return record

    def _after_action(self, now: float) -> None:
        self._last_action_at = now
        self._breach_streak = 0
        self._calm_streak = 0
        self._breach_started_at = None

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """JSON-ready rollup of the loop's behavior so far.

        ``converged_workers`` is the actuator's live worker count;
        ``slo_violation_seconds`` integrates every observed span whose p99
        sat over the SLO — the number the bench gates on.
        """
        reactions = [
            record["reaction_seconds"]
            for record in self.decisions
            if record.get("action") == "scale_up"
            and "reaction_seconds" in record
        ]
        return {
            "rounds": len(self.decisions),
            "scale_ups": self._scale_ups,
            "scale_downs": self._scale_downs,
            "heals": self._heals,
            "converged_workers": self._actuator.current_workers(),
            "slo_violation_seconds": self._slo_violation_seconds,
            "max_scale_up_reaction_seconds": max(reactions, default=0.0),
            "policy": {
                "slo_p99_seconds": self.policy.slo_p99_seconds,
                "min_workers": self.policy.min_workers,
                "max_workers": self.policy.max_workers,
                "breach_rounds": self.policy.breach_rounds,
                "calm_rounds": self.policy.calm_rounds,
                "cooldown_seconds": self.policy.cooldown_seconds,
            },
        }

    # ------------------------------------------------------------------ #
    # background loop
    # ------------------------------------------------------------------ #
    def start(self, *, interval: float = 0.5) -> "Autoscaler":
        """Run :meth:`step` every ``interval`` seconds on a daemon thread.

        Observation or actuation errors are swallowed per round (recorded
        as an ``"error"`` decision) — a transient ``/stats`` timeout must
        not kill the control loop.  Idempotent; returns self.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if self._thread is not None:
            return self

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.step()
                except Exception as exc:  # noqa: BLE001 - loop must survive
                    self.decisions.append(
                        {
                            "at": self._clock(),
                            "action": "error",
                            "reason": f"{type(exc).__name__}: {exc}",
                        }
                    )

        self._stop.clear()
        self._thread = threading.Thread(
            target=loop, name="seghdc-autoscaler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background loop and wait for it to exit."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "Autoscaler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
