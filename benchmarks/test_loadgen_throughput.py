"""Load-generator fidelity: harness overhead and open-loop clock accuracy.

The load/chaos PR's measurement tool has to be worth trusting before its
numbers mean anything, so this benchmark characterises the harness itself
against a compute-free target (the Otsu ``"threshold"`` probe, where any
cost is the harness's own):

* **closed-loop ceiling** — a saturating closed loop through a 2-worker
  thread pool must push well past the rates the chaos scenarios offer
  (hundreds of rps), with the exactly-once invariant intact at that rate;
* **open-loop clock fidelity** — at an offered rate far below capacity the
  generator's sustained rate must track the schedule (a laggy sender would
  under-drive every SLO experiment and hide real breaches), and latency
  must stay in single-digit milliseconds, proving the harness adds no
  meaningful floor to what the chaos runs measure.
"""

from __future__ import annotations

from repro.loadgen import (
    ConstantSchedule,
    LoadGenerator,
    ServerTarget,
    ShapeMix,
)
from repro.serving import SegmentationServer

MIX = "48x64:3,32x40:1"
OPEN_RATE = 150.0
DURATION = 2.0


def test_closed_loop_ceiling_preserves_exactly_once():
    """Saturating closed loop: high throughput, zero lost/duplicated."""
    with SegmentationServer(
        "threshold", mode="thread", num_workers=2, max_batch_size=1
    ) as server:
        report = LoadGenerator(
            ServerTarget(server, request_timeout=30.0),
            ConstantSchedule(rate=1.0, duration=DURATION),
            ShapeMix.parse(MIX, seed=5),
            mode="closed",
            concurrency=8,
        ).run()
    summary = report.summary()
    print(
        f"  closed loop: {summary['issued']} requests, "
        f"{summary['sustained_rps']:.0f} rps sustained, "
        f"p99 {summary['latency']['p99'] * 1000:.2f} ms"
    )
    assert summary["lost"] == 0 and summary["duplicated"] == 0
    assert summary["by_status"] == {"ok": summary["issued"]}
    # The chaos scenarios offer tens of rps; the harness ceiling must sit
    # far above them or the harness itself would be the bottleneck.
    assert summary["sustained_rps"] > 100, summary["sustained_rps"]


def test_open_loop_tracks_the_offered_schedule():
    """Under-capacity open loop: sustained rate tracks the schedule."""
    with SegmentationServer(
        "threshold", mode="thread", num_workers=2, max_batch_size=1
    ) as server:
        report = LoadGenerator(
            ServerTarget(server, request_timeout=30.0),
            ConstantSchedule(rate=OPEN_RATE, duration=DURATION),
            ShapeMix.parse(MIX, seed=6),
            mode="open",
            concurrency=32,
        ).run()
    summary = report.summary(slo_p99_seconds=0.5)
    drift = summary["sustained_rps"] / summary["offered_rps"]
    print(
        f"  open loop: offered {summary['offered_rps']:.1f} rps, "
        f"sustained {summary['sustained_rps']:.1f} rps ({drift:.3f}x), "
        f"p99 {summary['latency']['p99'] * 1000:.2f} ms"
    )
    assert summary["lost"] == 0 and summary["duplicated"] == 0
    # A laggy sender would under-drive every SLO experiment: the generator
    # must keep up with the schedule it was asked to offer (the tolerance
    # absorbs shared-runner scheduling noise, not systematic lag).
    assert drift > 0.85, f"open-loop sender lagged the schedule: {drift:.3f}x"
    assert summary["slo_violation_seconds"] == 0
