"""Deterministic tests for the latency-SLO autoscaler.

Everything here runs on a stub clock and scripted observations — no
servers, no sleeps — so every DECIDE branch is exercised exactly:
scale-up after ``breach_rounds`` consecutive breaches, scale-down only
after ``calm_rounds`` calm ones, the dead band between the watermark and
the SLO holding steady (no flapping), cooldown deferring actuation,
failure-triggered heals outranking scale decisions, the ``min_samples``
noise guard, queue-pressure breaches without a latency signal, and one-worker
scale-up steps.  The live-loop integration (real control plane, real
load, a worker SIGKILL) rides in ``tests/test_loadgen_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro.serving.autoscale import (
    AutoscalePolicy,
    Autoscaler,
    ControlPlaneActuator,
    Observation,
    SupervisorActuator,
    observe_control,
)

SLO = 1.0


def _obs(
    p99=0.1,
    count=100,
    queue=0,
    completed=0,
    failed=0,
    workers=2,
) -> Observation:
    return Observation(
        p99_seconds=p99,
        latency_count=count,
        queue_depth=queue,
        completed=completed,
        failed=failed,
        workers=workers,
    )


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeActuator:
    """Records scale/heal calls; tracks the worker count they imply."""

    def __init__(self, workers: int = 2) -> None:
        self.workers = workers
        self.scale_calls: list[int] = []
        self.heal_calls = 0

    def current_workers(self) -> int:
        return self.workers

    def scale_to(self, workers: int) -> dict:
        self.scale_calls.append(workers)
        self.workers = workers
        return {"status": "swapped", "workers": workers}

    def heal(self) -> dict:
        self.heal_calls += 1
        return {"status": "swapped", "reason": "heal"}


def _scaler(
    policy: AutoscalePolicy,
    script: "list[Observation]",
    *,
    actuator: "FakeActuator | None" = None,
    tick: float = 1.0,
):
    """An autoscaler fed a scripted observation sequence on a fake clock.

    Returns ``(autoscaler, actuator, run)`` where ``run()`` steps through
    the whole script, advancing the clock ``tick`` seconds per round.
    """
    clock = FakeClock()
    feed = iter(script)
    actuator = actuator or FakeActuator()
    scaler = Autoscaler(lambda: next(feed), actuator, policy, clock=clock)

    def run() -> list:
        records = []
        for _ in script:
            records.append(scaler.step())
            clock.advance(tick)
        return records

    return scaler, actuator, run


class TestScaleUp:
    def test_scale_up_after_breach_rounds(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, breach_rounds=2, cooldown_seconds=0.0
        )
        bad = _obs(p99=2.0)
        _, actuator, run = _scaler(policy, [bad, bad, bad])
        records = run()
        assert [r["action"] for r in records] == ["none", "scale_up", "none"]
        assert actuator.scale_calls == [3]

    def test_single_breach_does_not_scale(self):
        policy = AutoscalePolicy(slo_p99_seconds=SLO, breach_rounds=2)
        _, actuator, run = _scaler(
            policy, [_obs(p99=2.0), _obs(p99=0.1), _obs(p99=2.0)]
        )
        run()
        assert actuator.scale_calls == []

    def test_breach_at_max_workers_holds(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, max_workers=2, breach_rounds=1
        )
        bad = _obs(p99=2.0, workers=2)
        _, actuator, run = _scaler(policy, [bad, bad])
        records = run()
        assert actuator.scale_calls == []
        assert "max_workers" in records[0]["reason"]

    def test_queue_pressure_breaches_without_latency_signal(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO,
            breach_rounds=2,
            cooldown_seconds=0.0,
            queue_high_per_worker=4.0,
        )
        # No latency samples at all, but 2 workers x 4 = 8 queued jobs.
        jammed = _obs(p99=0.0, count=0, queue=8, workers=2)
        _, actuator, run = _scaler(policy, [jammed, jammed])
        run()
        assert actuator.scale_calls == [3]

    def test_scale_up_reaction_time_measured_from_first_breach(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, breach_rounds=3, cooldown_seconds=0.0
        )
        bad = _obs(p99=2.0)
        scaler, _, run = _scaler(policy, [bad, bad, bad], tick=0.5)
        records = run()
        assert records[2]["action"] == "scale_up"
        # First breach at t=0, actuation on the third round at t=1.0.
        assert records[2]["reaction_seconds"] == pytest.approx(1.0)
        assert scaler.summary()[
            "max_scale_up_reaction_seconds"
        ] == pytest.approx(1.0)

    def test_sustained_breach_climbs_one_worker_per_step_to_the_cap(self):
        """Every scale-up adds exactly one worker, however deep the breach,
        and the climb stops at ``max_workers``."""
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO,
            max_workers=4,
            breach_rounds=1,
            cooldown_seconds=0.0,
        )
        script = [_obs(p99=50.0, queue=100, workers=w) for w in (1, 2, 3, 4)]
        _, actuator, run = _scaler(policy, script)
        records = run()
        assert actuator.scale_calls == [2, 3, 4]
        assert [r["action"] for r in records] == [
            "scale_up", "scale_up", "scale_up", "none"
        ]
        assert "max_workers" in records[-1]["reason"]

    def test_predictor_keyword_is_gone(self):
        policy = AutoscalePolicy(slo_p99_seconds=SLO)
        with pytest.raises(TypeError, match="predictor"):
            Autoscaler(_obs, FakeActuator(), policy, predictor=lambda obs: 6)


class TestScaleDownHysteresis:
    def test_scale_down_after_calm_rounds(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, calm_rounds=3, cooldown_seconds=0.0
        )
        calm = _obs(p99=0.1, workers=3)
        _, actuator, run = _scaler(
            policy, [calm] * 3, actuator=FakeActuator(workers=3)
        )
        records = run()
        assert [r["action"] for r in records] == ["none", "none", "scale_down"]
        assert actuator.scale_calls == [2]

    def test_calm_at_min_workers_holds(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO,
            min_workers=1,
            calm_rounds=1,
            cooldown_seconds=0.0,
        )
        calm = _obs(p99=0.1, workers=1)
        _, actuator, run = _scaler(
            policy, [calm, calm], actuator=FakeActuator(workers=1)
        )
        records = run()
        assert actuator.scale_calls == []
        assert "min_workers" in records[0]["reason"]

    def test_dead_band_resets_both_streaks(self):
        """p99 between the watermark and the SLO must not flap either way."""
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO,
            low_watermark=0.5,
            breach_rounds=2,
            calm_rounds=2,
            cooldown_seconds=0.0,
        )
        middling = _obs(p99=0.7)  # inside the (0.5, 1.0) dead band
        script = [_obs(p99=2.0), middling, _obs(p99=2.0), _obs(p99=0.1),
                  middling, _obs(p99=0.1)]
        _, actuator, run = _scaler(policy, script)
        run()
        assert actuator.scale_calls == []

    def test_nonzero_queue_blocks_calm(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, calm_rounds=2, cooldown_seconds=0.0
        )
        busy_but_fast = _obs(p99=0.1, queue=3, workers=3)
        _, actuator, run = _scaler(
            policy, [busy_but_fast] * 4, actuator=FakeActuator(workers=3)
        )
        run()
        assert actuator.scale_calls == []


class TestCooldownAndHeal:
    def test_cooldown_defers_second_scale_up(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, breach_rounds=1, cooldown_seconds=10.0
        )
        bad = _obs(p99=2.0)
        _, actuator, run = _scaler(policy, [bad, bad, bad], tick=1.0)
        records = run()
        assert records[0]["action"] == "scale_up"
        assert [r["action"] for r in records[1:]] == ["cooldown", "cooldown"]
        assert actuator.scale_calls == [3]

    def test_actuation_resumes_after_cooldown_expires(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, breach_rounds=1, cooldown_seconds=1.5
        )
        bad = _obs(p99=2.0)
        _, actuator, run = _scaler(policy, [bad, bad, bad], tick=1.0)
        run()
        # t=0 scales, t=1 inside cooldown, t=2 scales again.
        assert actuator.scale_calls == [3, 3]

    def test_failures_trigger_heal(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, cooldown_seconds=0.0, heal_failure_threshold=1
        )
        script = [_obs(failed=0), _obs(failed=5)]
        scaler, actuator, run = _scaler(policy, script)
        records = run()
        assert records[1]["action"] == "heal"
        assert actuator.heal_calls == 1
        assert scaler.summary()["heals"] == 1

    def test_first_observation_failures_are_baseline_not_delta(self):
        """A loop attached to a server with prior failures must not heal."""
        policy = AutoscalePolicy(slo_p99_seconds=SLO, cooldown_seconds=0.0)
        _, actuator, run = _scaler(policy, [_obs(failed=100)] * 2)
        run()
        assert actuator.heal_calls == 0

    def test_heal_outranks_scale_up(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, breach_rounds=1, cooldown_seconds=0.0
        )
        script = [_obs(p99=2.0, failed=0), _obs(p99=2.0, failed=3)]
        _, actuator, run = _scaler(policy, script)
        records = run()
        assert records[0]["action"] == "scale_up"
        assert records[1]["action"] == "heal"

    def test_min_samples_guard_ignores_thin_p99(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO,
            breach_rounds=1,
            min_samples=4,
            cooldown_seconds=0.0,
        )
        thin = _obs(p99=5.0, count=2)  # huge p99 from 2 samples: noise
        _, actuator, run = _scaler(policy, [thin, thin])
        run()
        assert actuator.scale_calls == []


class TestSummaryAndViolation:
    def test_slo_violation_seconds_integrates_breach_spans(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, breach_rounds=100, cooldown_seconds=0.0
        )
        script = [_obs(p99=2.0)] * 4 + [_obs(p99=0.1)]
        scaler, _, run = _scaler(policy, script, tick=0.5)
        run()
        # Breaching observations at t=0.5, 1.0, 1.5 each charge the 0.5 s
        # span since the previous observation (t=0 has no prior span).
        assert scaler.summary()["slo_violation_seconds"] == pytest.approx(1.5)

    def test_summary_counts_and_policy_echo(self):
        policy = AutoscalePolicy(
            slo_p99_seconds=SLO, breach_rounds=1, cooldown_seconds=0.0
        )
        scaler, actuator, run = _scaler(policy, [_obs(p99=2.0), _obs(p99=0.1)])
        run()
        summary = scaler.summary()
        assert summary["rounds"] == 2
        assert summary["scale_ups"] == 1
        assert summary["converged_workers"] == actuator.workers
        assert summary["policy"]["slo_p99_seconds"] == SLO


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo_p99_seconds": 0.0},
            {"slo_p99_seconds": 1.0, "min_workers": 0},
            {"slo_p99_seconds": 1.0, "min_workers": 4, "max_workers": 2},
            {"slo_p99_seconds": 1.0, "low_watermark": 1.5},
            {"slo_p99_seconds": 1.0, "breach_rounds": 0},
            {"slo_p99_seconds": 1.0, "cooldown_seconds": -1.0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalePolicy(**kwargs)


class TestActuators:
    def test_control_plane_actuator_round_trip(self):
        from repro.serving.control import ControlPlane

        control = ControlPlane(
            {"segmenter": "threshold"},
            {"mode": "thread", "num_workers": 1},
        )
        try:
            actuator = ControlPlaneActuator(control)
            assert actuator.current_workers() == 1
            outcome = actuator.scale_to(2)
            assert outcome["status"] == "swapped"
            assert actuator.current_workers() == 2
            heal = actuator.heal()
            assert heal["status"] == "swapped"
            assert control.generation == 3
        finally:
            control.close(drain=False)

    def test_observe_control_reads_live_stats(self):
        import numpy as np

        from repro.serving.control import ControlPlane

        control = ControlPlane(
            {"segmenter": "threshold"},
            {"mode": "thread", "num_workers": 1},
        )
        try:
            image = np.zeros((8, 8), dtype=np.uint8)
            image[2:6, 2:6] = 255
            control.submit(image, block=True).result(30.0)
            obs = observe_control(control)()
            assert obs.completed == 1
            assert obs.workers == 1
        finally:
            control.close(drain=False)

    def test_supervisor_actuator_delegates(self):
        class FakeSupervisor:
            def __init__(self):
                self.calls = []

            def snapshot(self):
                return {"replica-0": {}, "replica-1": {}}

            def scale_to(self, n):
                self.calls.append(n)
                return {"target_replicas": n}

        supervisor = FakeSupervisor()
        actuator = SupervisorActuator(supervisor)
        assert actuator.current_workers() == 2
        assert actuator.scale_to(3) == {"target_replicas": 3}
        assert supervisor.calls == [3]
        assert actuator.heal()["status"] == "noop"
