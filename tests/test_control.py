"""Tests for the live control plane (generation-based hot reconfiguration).

Covers the generation bookkeeping (result stamping, per-generation
counters, control/stats snapshots), diff validation naming offending
fields, the drain/swap protocol — in-flight jobs finish on the old
generation while new submissions land on the new one, proven with a
deterministically stalled worker pool — rollback on failed build/warmup
leaving the old generation serving, and the file-driven
:class:`SpecWatcher` front end.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import SegmentationResult
from repro.api.registry import _REGISTRY, register_segmenter
from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.serving import (
    ControlError,
    ControlPlane,
    ServerClosed,
    ServingOptions,
    SpecWatcher,
)


def _config(**overrides):
    base = SegHDCConfig(
        dimension=300, num_clusters=2, num_iterations=2, alpha=0.2, beta=3, seed=0,
        backend="dense",
    )
    return base.with_overrides(**overrides)


def _image(shape=(20, 24), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _plane(**kwargs) -> ControlPlane:
    options = kwargs.pop(
        "options",
        ServingOptions(mode="thread", num_workers=2, max_queue_depth=8),
    )
    return ControlPlane(
        {"segmenter": "seghdc", "config": _config().to_dict()},
        options,
        **kwargs,
    )


class _StallSegmenter:
    """Segmenter blocking in ``segment`` until released (swap-drain tests)."""

    def __init__(self, release: threading.Event) -> None:
        self._release = release

    def segment(self, image):
        self._release.wait()
        pixels = np.asarray(getattr(image, "pixels", image))
        return SegmentationResult(
            labels=np.zeros(pixels.shape[:2], dtype=np.int32),
            elapsed_seconds=0.0,
            num_clusters=1,
        )

    def segment_batch(self, images):
        return [self.segment(image) for image in images]

    def describe(self):
        raise TypeError("deliberately not spec-describable")


@dataclass(frozen=True)
class _FailConfig:
    """Config of the deliberately failing test segmenter."""

    stage: str = "warmup"


class _FailingSegmenter:
    """Segmenter whose probe always fails (rollback tests)."""

    def __init__(self, config: _FailConfig) -> None:
        self._config = config

    def segment(self, image):
        raise RuntimeError("this segmenter refuses every image")

    def segment_batch(self, images):
        return [self.segment(image) for image in images]

    def describe(self):
        return {"segmenter": "failhdc", "config": {"stage": self._config.stage}}


def _failing_factory(config=None, **options):
    """Registry factory for ``failhdc``; raises at build when asked to."""
    config = config or _FailConfig()
    if config.stage == "build":
        raise RuntimeError("this segmenter refuses to build")
    return _FailingSegmenter(config)


@pytest.fixture
def failhdc():
    """Temporarily register the deliberately failing segmenter."""
    register_segmenter(
        "failhdc",
        factory=_failing_factory,
        config_cls=_FailConfig,
        description="always-failing segmenter for rollback tests",
    )
    try:
        yield "failhdc"
    finally:
        _REGISTRY.pop("failhdc", None)


class TestGenerationBookkeeping:
    def test_boot_generation_and_result_stamp(self):
        with _plane() as plane:
            assert plane.generation == 1
            result = plane.submit(_image()).result(30)
            assert result.workload["config_generation"] == 1
            info = plane.control_info()
            assert info["config_generation"] == 1
            assert info["generations"]["1"]["submitted"] == 1
            assert info["generations"]["1"]["completed"] == 1
            assert info["generations"]["1"]["failed"] == 0
            assert info["last_swap"] is None
            assert info["segmenter"]["segmenter"] == "seghdc"

    def test_unchanged_diff_is_a_noop(self):
        with _plane() as plane:
            outcome = plane.reconfigure(
                {"config": {"dimension": 300}, "serving": {"num_workers": 2}}
            )
            assert outcome["status"] == "unchanged"
            assert outcome["changed"] == []
            assert plane.generation == 1
            # The no-op is still recorded as the last reconfiguration.
            assert plane.control_info()["last_swap"]["status"] == "unchanged"

    def test_stats_carry_the_control_snapshot(self):
        with _plane() as plane:
            plane.submit(_image()).result(30)
            payload = plane.stats().as_dict()
            assert payload["control"]["config_generation"] == 1
            assert payload["control"]["generations"]["1"]["completed"] == 1
            assert payload["submitted"] == 1


class TestValidation:
    def test_unknown_top_level_field_is_named(self):
        with _plane() as plane:
            with pytest.raises(ControlError, match="'nonsense'"):
                plane.reconfigure({"nonsense": 1})
            assert plane.generation == 1

    def test_unknown_config_field_is_named(self):
        with _plane() as plane:
            with pytest.raises(ValueError, match="'bogus'"):
                plane.reconfigure({"config": {"bogus": 1}})

    def test_unknown_serving_field_is_named(self):
        with _plane() as plane:
            with pytest.raises(ValueError, match="'warp_factor'"):
                plane.reconfigure({"serving": {"warp_factor": 9}})

    def test_mistyped_config_value_is_named(self):
        with _plane() as plane:
            with pytest.raises(ValueError, match="'dimension'"):
                plane.reconfigure({"config": {"dimension": "big"}})

    def test_unknown_segmenter_lists_available(self):
        with _plane() as plane:
            with pytest.raises(ValueError, match="available"):
                plane.reconfigure({"segmenter": "not_a_thing"})

    def test_non_mapping_diff_rejected(self):
        with _plane() as plane:
            with pytest.raises(ControlError, match="mapping"):
                plane.reconfigure(["backend", "packed"])

    def test_config_diff_refused_without_a_spec(self):
        release = threading.Event()
        release.set()
        plane = ControlPlane(
            _StallSegmenter(release),
            ServingOptions(mode="thread", num_workers=1),
        )
        try:
            with pytest.raises(ControlError, match="not spec-describable"):
                plane.reconfigure({"config": {"dimension": 500}})
        finally:
            plane.close()


class TestSwap:
    def test_backend_swap_preserves_label_parity(self):
        image = _image()
        reference = SegHDCEngine(_config()).segment(image).labels
        with _plane() as plane:
            before = plane.submit(image).result(30)
            outcome = plane.reconfigure({"config": {"backend": "packed"}})
            assert outcome["status"] == "swapped"
            assert outcome["generation"] == 2
            assert outcome["previous_generation"] == 1
            assert outcome["changed"] == ["config.backend"]
            assert outcome["drained"] is True
            after = plane.submit(image).result(30)
            # dense and packed are bit-identical by contract, so the swap
            # must be invisible in the label maps.
            assert np.array_equal(before.labels, reference)
            assert np.array_equal(after.labels, reference)
            assert before.workload["config_generation"] == 1
            assert after.workload["config_generation"] == 2
            assert plane.describe()["config"]["backend"] == "packed"

    def test_serving_topology_swap(self):
        with _plane() as plane:
            assert plane.num_workers == 2
            outcome = plane.reconfigure({"serving": {"num_workers": 3}})
            assert outcome["status"] == "swapped"
            assert outcome["changed"] == ["serving.num_workers"]
            assert plane.num_workers == 3
            assert plane.serving_options.num_workers == 3
            assert plane.submit(_image()).result(30).workload[
                "config_generation"
            ] == 2

    def test_in_flight_jobs_finish_on_old_generation(self):
        """The heart of the drain protocol, with deterministic stalling.

        Jobs admitted before the swap are held mid-flight by a stalled
        worker pool while a reconfiguration runs in another thread; once
        released, the old jobs must complete on generation 1 (correct
        results, no drops) and fresh submissions must land on generation 2.
        """
        release = threading.Event()
        plane = ControlPlane(
            _StallSegmenter(release),
            ServingOptions(mode="thread", num_workers=2, max_queue_depth=8),
        )
        try:
            held = [plane.submit(_image(seed=i)) for i in range(4)]
            assert all(handle.generation == 1 for handle in held)

            outcome_box = []
            swapper = threading.Thread(
                target=lambda: outcome_box.append(
                    plane.reconfigure({"serving": {"num_workers": 3}})
                )
            )
            swapper.start()
            # The swap cannot finish while the old pool is stalled: its
            # warmup probe and the old generation's drain both wait.
            time.sleep(0.2)
            assert not outcome_box
            assert plane.control_info()["generations"]["1"]["completed"] == 0
            release.set()
            swapper.join(timeout=30)
            assert outcome_box and outcome_box[0]["status"] == "swapped"

            # Every held job finished on the old pool, none were dropped.
            for handle in held:
                result = handle.result(30)
                assert result.workload["config_generation"] == 1
            info = plane.control_info()
            assert info["generations"]["1"]["submitted"] == 4
            assert info["generations"]["1"]["completed"] == 4
            assert info["generations"]["1"]["failed"] == 0
            # New traffic lands on the new generation.
            fresh = plane.submit(_image())
            assert fresh.generation == 2
            assert fresh.result(30).workload["config_generation"] == 2
        finally:
            release.set()
            plane.close()

    def test_swap_under_sustained_map_traffic(self):
        """A dense→packed swap mid-``map()``: zero dropped or duplicated."""
        images = [_image(seed=i) for i in range(16)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with _plane(
            options=ServingOptions(
                mode="thread", num_workers=2, max_queue_depth=4
            )
        ) as plane:
            iterator = plane.map(images, timeout=120)
            collected = {}
            for _ in range(2):
                index, result = next(iterator)
                collected[index] = result
            outcome = plane.reconfigure({"config": {"backend": "packed"}})
            assert outcome["status"] == "swapped"
            for index, result in iterator:
                assert index not in collected, f"duplicated index {index}"
                collected[index] = result
            assert sorted(collected) == list(range(len(images)))
            for index, result in collected.items():
                assert np.array_equal(
                    result.labels, reference[index].labels
                ), f"label mismatch at {index}"
                assert result.workload["config_generation"] in (1, 2)
            # The old generation drained clean: everything it admitted it
            # also finished.
            gen1 = plane.control_info()["generations"]["1"]
            assert gen1["submitted"] == gen1["completed"]
            assert gen1["failed"] == 0

    def test_segment_batch_across_generations(self):
        with _plane() as plane:
            results = plane.segment_batch([_image(seed=i) for i in range(3)])
            assert [r.workload["config_generation"] for r in results] == [1] * 3

    def test_closed_plane_refuses_work(self):
        plane = _plane()
        plane.close()
        with pytest.raises(ServerClosed):
            plane.submit(_image())
        with pytest.raises(ControlError, match="closed"):
            plane.reconfigure({"config": {"backend": "packed"}})


class TestRollback:
    def test_warmup_failure_rolls_back(self, failhdc):
        with _plane() as plane:
            before = plane.generation
            outcome = plane.reconfigure({"segmenter": failhdc})
            assert outcome["status"] == "rolled_back"
            assert outcome["stage"] == "warmup"
            assert "refuses every image" in outcome["error"]
            assert plane.generation == before
            # The old generation keeps serving.
            result = plane.submit(_image()).result(30)
            assert result.workload["config_generation"] == before
            assert plane.describe()["segmenter"] == "seghdc"
            assert plane.control_info()["last_swap"]["status"] == "rolled_back"

    def test_build_failure_rolls_back(self, failhdc):
        with _plane() as plane:
            outcome = plane.reconfigure(
                {"segmenter": failhdc, "config": {"stage": "build"}}
            )
            assert outcome["status"] == "rolled_back"
            assert outcome["stage"] == "build"
            assert "refuses to build" in outcome["error"]
            assert plane.generation == 1
            assert plane.submit(_image()).result(30) is not None


class TestSpecWatcher:
    def test_poll_applies_content_changes(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"config": {"backend": "dense"}}))
        with _plane() as plane:
            watcher = SpecWatcher(plane, path, interval=60)
            # The boot content is the baseline, not a change.
            assert watcher.poll_once() is None
            path.write_text(json.dumps({"config": {"backend": "packed"}}))
            outcome = watcher.poll_once()
            assert outcome["status"] == "swapped"
            assert plane.generation == 2
            # Unchanged content does not re-apply.
            assert watcher.poll_once() is None

    def test_runspec_only_fields_are_ignored(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        with _plane() as plane:
            watcher = SpecWatcher(plane, path, interval=60)
            path.write_text(
                json.dumps(
                    {
                        "segmenter": "seghdc",
                        "config": {"backend": "packed"},
                        "dataset": "dsb2018",
                        "num_images": 4,
                        "image_shape": [48, 64],
                        "seed": 7,
                        "output": "results/run.json",
                    }
                )
            )
            outcome = watcher.poll_once()
            assert outcome["status"] == "swapped"
            assert outcome["changed"] == ["config.backend"]

    def test_invalid_content_reports_without_crashing(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        outcomes = []
        with _plane() as plane:
            watcher = SpecWatcher(
                plane, path, interval=60, on_outcome=outcomes.append
            )
            path.write_text("{not json")
            assert watcher.poll_once()["status"] == "invalid"
            path.write_text(json.dumps({"config": {"bogus": 1}}))
            outcome = watcher.poll_once()
            assert outcome["status"] == "invalid"
            assert "bogus" in outcome["error"]
            # The plane is untouched and still serving.
            assert plane.generation == 1
            assert plane.submit(_image()).result(30) is not None
        assert [o["status"] for o in outcomes] == ["invalid", "invalid"]

    def test_polling_thread_applies_a_change(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        applied = threading.Event()
        outcomes = []

        def on_outcome(outcome):
            outcomes.append(outcome)
            applied.set()

        with _plane() as plane:
            with SpecWatcher(
                plane, path, interval=0.05, on_outcome=on_outcome
            ):
                path.write_text(json.dumps({"config": {"backend": "packed"}}))
                assert applied.wait(30)
            assert outcomes[0]["status"] == "swapped"
            assert outcomes[0]["reason"] == "watch-spec:spec.json"
            assert plane.generation == 2

    def test_missing_file_is_tolerated(self, tmp_path):
        with _plane() as plane:
            watcher = SpecWatcher(plane, tmp_path / "absent.json", interval=60)
            assert watcher.poll_once() is None
            assert plane.generation == 1

    def test_interval_must_be_positive(self, tmp_path):
        with _plane() as plane:
            with pytest.raises(ValueError, match="interval"):
                SpecWatcher(plane, tmp_path / "spec.json", interval=0)
