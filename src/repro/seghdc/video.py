"""Temporal (video) segmentation: warm-started HD K-Means across frames.

Consecutive video frames are nearly identical, so their converged HD
K-Means centroids are too.  With ``SegHDCConfig(warm_start=True)`` the
engine seeds each frame's clustering from the previous same-shape frame's
converged centroid bundles (see :class:`repro.seghdc.engine.SegHDCEngine`),
and the HD K-Means loop always quits at its exact fixed point — so a
frame that starts next to its predecessor's solution finishes in a
fraction of the cold iteration budget.  That iteration cut is the whole
payoff of the temporal mode, and :func:`warm_start_cut` measures it:
identical synthetic sequences through a cold and a warm serving session,
reporting mean iterations per frame for both.

The warm state lives inside one engine instance and is dropped at every
pickle boundary, so temporal sessions run on **thread-mode** servers
(``num_workers=1`` keeps the frame chain strictly ordered); process-mode
workers would each keep a private, interleaved chain.
"""

from __future__ import annotations

import numpy as np

from repro.api.result import SegmentationResult
from repro.seghdc.config import SegHDCConfig
from repro.seghdc.engine import SegHDCEngine

__all__ = ["VideoSession", "synthetic_video", "warm_start_cut"]


def synthetic_video(
    num_frames: int,
    height: int = 64,
    width: int = 64,
    *,
    num_blobs: int = 3,
    radius: float = 9.0,
    step: float = 2.0,
    noise: float = 6.0,
    seed: int = 0,
) -> "list[np.ndarray]":
    """A deterministic sequence of soft bright blobs drifting over a field.

    Each frame is a horizontal background gradient plus a fixed per-pixel
    noise field plus ``num_blobs`` Gaussian blobs (``radius`` is their
    sigma, each with a distinct peak intensity) whose centres drift
    ``step`` pixels per frame along seeded directions, bouncing off the
    edges.  The intensity structure is deliberately *not* two-valued:
    trivially separable frames converge in one K-Means pass from any
    start, leaving a warm start nothing to cut.  Soft edges and noise make
    a cold start spend most of its iteration budget walking in from the
    intensity-extreme seeds, while consecutive frames differ by only a
    small drift — so a warm-started run reaches the fixed point in a
    fraction of the iterations.  The same arguments always produce the
    same pixels.
    """
    if num_frames < 1:
        raise ValueError(f"num_frames must be positive, got {num_frames}")
    if height < 16 or width < 16:
        raise ValueError(f"frames must be at least 16x16, got {height}x{width}")
    if num_blobs < 1:
        raise ValueError(f"num_blobs must be positive, got {num_blobs}")
    if radius <= 0 or step < 0:
        raise ValueError(
            f"radius must be positive and step non-negative, got "
            f"{radius}/{step}"
        )
    rng = np.random.default_rng(seed)
    margin = max(4.0, min(float(radius), min(height, width) / 4.0))
    centers = np.stack(
        [
            rng.uniform(margin, height - margin, size=num_blobs),
            rng.uniform(margin, width - margin, size=num_blobs),
        ],
        axis=1,
    )
    angles = rng.uniform(0.0, 2.0 * np.pi, size=num_blobs)
    velocity = np.stack([np.sin(angles), np.cos(angles)], axis=1) * float(step)
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    # The noise field is fixed for the whole sequence (sensor pattern, not
    # temporal flicker): frame-to-frame change stays limited to the drift.
    noise_field = rng.normal(0.0, float(noise), size=(height, width)) if noise else 0.0
    background = 60.0 + 40.0 * (cols / max(width - 1, 1))
    sigma_sq = 2.0 * float(radius) ** 2
    frames = []
    for _ in range(num_frames):
        frame = background + noise_field
        for blob, center in enumerate(centers):
            distance_sq = (rows - center[0]) ** 2 + (cols - center[1]) ** 2
            frame = frame + (120.0 + 30.0 * blob) * np.exp(-distance_sq / sigma_sq)
        frames.append(np.clip(frame, 0.0, 255.0).astype(np.uint8))
        centers += velocity
        # Bounce: reflect any centre that crossed an edge and flip its
        # velocity component, keeping blobs in frame forever.
        for axis, extent in ((0, height), (1, width)):
            low = centers[:, axis] < margin
            high = centers[:, axis] > extent - margin
            centers[low, axis] = 2 * margin - centers[low, axis]
            centers[high, axis] = 2 * (extent - margin) - centers[high, axis]
            velocity[low | high, axis] *= -1.0
    return frames


class VideoSession:
    """A stateful temporal segmentation session over one SegHDC engine.

    Forces ``warm_start=True`` on the given config (which, with the
    clusterer's fixed-point stop, turns frame-to-frame similarity into an
    iteration cut) and tracks per-frame iteration counts.  Not
    thread-safe — a session is one ordered frame stream; run several
    sessions for several streams.
    """

    def __init__(self, config: "SegHDCConfig | None" = None) -> None:
        base = config or SegHDCConfig()
        self.config = base.with_overrides(warm_start=True)
        self._segmenter = SegHDCEngine(self.config)
        self.iterations_per_frame: list[int] = []

    def segment(self, frame) -> SegmentationResult:
        """Segment the next frame, seeding from the previous one."""
        result = self._segmenter.segment(frame)
        self.iterations_per_frame.append(int(result.workload["iterations_run"]))
        return result

    def segment_stream(self, frames) -> "list[SegmentationResult]":
        """Segment an ordered frame sequence; results in frame order."""
        return [self.segment(frame) for frame in frames]

    def mean_iterations(self) -> float:
        """Mean iterations per segmented frame (0.0 before any frame)."""
        if not self.iterations_per_frame:
            return 0.0
        return float(np.mean(self.iterations_per_frame))

    def reset(self) -> None:
        """Forget warm centroids and iteration history (scene cut)."""
        self._segmenter.reset_warm_state()
        self.iterations_per_frame.clear()


def warm_start_cut(
    frames: "list[np.ndarray]",
    config: "SegHDCConfig | None" = None,
) -> dict:
    """Measure the warm-start iterations-per-frame cut on a frame sequence.

    Streams the same frames through two thread-mode single-worker
    :class:`repro.serving.SegmentationServer` sessions — cold
    (``warm_start=False``) and warm (``warm_start=True``) — via
    :meth:`SegmentationServer.map`.  Returns a JSON-ready dict with
    per-frame iteration counts, the two means, the cut ratio, and whether
    the final-frame label maps agree.  (Agreement is reported, not
    guaranteed: K-Means is only locally convergent, so a warm and a cold
    start can settle in different fixed points — the contract of the
    temporal mode is the iteration cut, not bit-identical labels.)
    """
    # Deferred import: repro.serving imports this package's config module;
    # importing it lazily keeps repro.seghdc importable without the
    # serving stack and avoids any partial-init ordering issues.
    from repro.serving.server import SegmentationServer

    if not frames:
        raise ValueError("need at least one frame")
    base = config or SegHDCConfig()
    runs = {}
    final_labels = {}
    for label, warm in (("cold", False), ("warm", True)):
        run_config = base.with_overrides(warm_start=warm)
        ordered: list = [None] * len(frames)
        with SegmentationServer(
            run_config, mode="thread", num_workers=1, max_batch_size=1
        ) as server:
            for index, result in server.map(frames):
                ordered[index] = result
        iterations = [int(r.workload["iterations_run"]) for r in ordered]
        warm_started = [bool(r.workload["warm_started"]) for r in ordered]
        runs[label] = {
            "warm_start": warm,
            "iterations_per_frame": iterations,
            "mean_iterations": float(np.mean(iterations)),
            "frames_warm_started": int(sum(warm_started)),
        }
        final_labels[label] = ordered[-1].labels
    cold_mean = runs["cold"]["mean_iterations"]
    warm_mean = runs["warm"]["mean_iterations"]
    return {
        "num_frames": len(frames),
        "frame_shape": list(np.asarray(frames[0]).shape[:2]),
        "config": base.to_dict(),
        "cold": runs["cold"],
        "warm": runs["warm"],
        "iteration_cut": cold_mean - warm_mean,
        "iteration_cut_ratio": (
            (cold_mean - warm_mean) / cold_mean if cold_mean else 0.0
        ),
        "final_frame_labels_equal": bool(
            np.array_equal(final_labels["cold"], final_labels["warm"])
        ),
    }
