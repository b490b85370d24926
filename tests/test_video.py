"""Temporal mode: warm-started sessions, determinism, and the iteration cut.

The contract under test is the one the video mode ships on: seeding a
frame's HD K-Means from the previous frame's converged centroids (the
loop always stops at its exact fixed point) cuts the mean iterations per
frame versus a cold start on the same frames.  Label agreement between warm and cold runs is
*not* part of the contract (K-Means is only locally convergent); identical
re-runs of the same session being bit-identical *is*.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.seghdc import (
    SegHDCConfig,
    SegHDCEngine,
    VideoSession,
    synthetic_video,
    warm_start_cut,
)

#: The empirically validated bench recipe: soft blobs over a gradient with
#: a fixed noise field spend most of a cold iteration budget, while the
#: frame-to-frame drift is small enough for warm starts to finish early.
_CONFIG = SegHDCConfig(dimension=512, num_iterations=12, beta=4)


def _frames(num_frames=6, seed=0):
    return synthetic_video(num_frames, 48, 48, step=1.5, seed=seed)


class TestSyntheticVideo:
    def test_deterministic_per_seed(self):
        first, second = _frames(3, seed=2), _frames(3, seed=2)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        other = _frames(3, seed=3)
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_frames_drift_but_stay_similar(self):
        frames = _frames(3)
        assert not np.array_equal(frames[0], frames[1])
        # The drift is small in magnitude: the soft blob tails shift many
        # pixels, but only by a little — that is what a warm start exploits.
        delta = np.abs(
            frames[0].astype(np.int32) - frames[1].astype(np.int32)
        )
        assert delta.mean() < 10

    def test_validation(self):
        with pytest.raises(ValueError, match="num_frames"):
            synthetic_video(0)
        with pytest.raises(ValueError, match="16x16"):
            synthetic_video(1, 8, 8)
        with pytest.raises(ValueError, match="num_blobs"):
            synthetic_video(1, num_blobs=0)


class TestVideoSession:
    def test_forces_warm_start(self):
        config = SegHDCConfig(dimension=256, num_iterations=4)
        session = VideoSession(config)
        assert session.config == config.with_overrides(warm_start=True)

    def test_tracks_iterations_and_warm_state(self):
        session = VideoSession(_CONFIG)
        results = session.segment_stream(_frames(3))
        assert len(session.iterations_per_frame) == 3
        assert session.mean_iterations() > 0
        assert results[0].workload["warm_started"] is False
        assert results[1].workload["warm_started"] is True
        assert results[2].workload["warm_started"] is True

    def test_reset_forgets_the_previous_scene(self):
        session = VideoSession(_CONFIG)
        session.segment(_frames(1)[0])
        session.reset()
        assert session.iterations_per_frame == []
        result = session.segment(_frames(1)[0])
        assert result.workload["warm_started"] is False

    def test_identical_sessions_are_bit_identical(self):
        frames = _frames(4)
        first = VideoSession(_CONFIG).segment_stream(frames)
        second = VideoSession(_CONFIG).segment_stream(frames)
        for a, b in zip(first, second):
            assert np.array_equal(a.labels, b.labels)
            assert a.workload["iterations_run"] == b.workload["iterations_run"]

    def test_warm_state_never_crosses_pickle(self):
        config = _CONFIG.with_overrides(warm_start=True)
        segmenter = SegHDCEngine(config)
        segmenter.segment(_frames(1)[0])
        rebuilt = pickle.loads(pickle.dumps(segmenter))
        result = rebuilt.segment(_frames(1)[0])
        assert result.workload["warm_started"] is False


class TestWarmStartCut:
    def test_warm_cuts_mean_iterations(self):
        # The acceptance gate of the temporal mode: warm mean iterations
        # per frame strictly below cold, with every frame after the first
        # actually warm-started.
        frames = _frames(6)
        report = warm_start_cut(frames, _CONFIG)
        assert report["warm"]["mean_iterations"] < report["cold"]["mean_iterations"]
        assert report["iteration_cut"] > 0
        assert report["cold"]["frames_warm_started"] == 0
        assert report["warm"]["frames_warm_started"] == len(frames) - 1

    def test_report_is_json_ready_and_deterministic(self):
        import json

        frames = _frames(4)
        report = warm_start_cut(frames, _CONFIG)
        again = warm_start_cut(frames, _CONFIG)
        assert json.loads(json.dumps(report)) == json.loads(json.dumps(again))
        assert report["num_frames"] == 4
        assert report["frame_shape"] == [48, 48]

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="at least one frame"):
            warm_start_cut([], _CONFIG)
