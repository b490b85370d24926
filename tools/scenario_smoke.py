#!/usr/bin/env python
"""CI ``scenario-smoke`` driver: gigapixel tiling + video warm start.

What it proves, end to end:

1. **Gigapixel through the fleet** — a large synthetic blob-field image
   (4096x4096 by default) is cut into fixed-shape tiles by the ``tiled``
   segmenter and fanned through a :class:`ClusterGateway` over 2
   supervised ``seghdc serve`` replica subprocesses on the raw framed
   wire.  Asserted:

   * the stitched global cluster map is **bit-exact** against the image's
     ground-truth intensity modes (the blob field is two-valued and every
     tile contains both modes, so a correct per-tile segmentation admits
     exactly one canonical answer — the whole-image reference the test
     suite pins directly on sizes small enough to segment in one piece);
   * sampled tiles from the cluster run are bit-exact against a serial
     in-process run of the same base config (transport exactness);
   * the fleet built **exactly one** position grid — one tile shape, one
     build, on the one replica the shape-affinity ring routes it to; the
     other replica built nothing.

2. **Video warm start** — a 10-frame synthetic video of drifting blobs
   runs through :func:`repro.seghdc.warm_start_cut` (a cold and a warm
   single-worker session of the same config).  Asserted: warm mean
   iterations per frame strictly below cold, a positive cut, and every
   frame after the first warm-started.  The report (the cut, per-frame
   iteration counts) is written to ``video_bench.json`` under
   ``--output-dir`` for CI to upload and tabulate.

Exit code is non-zero on any failed assertion.

Usage::

    PYTHONPATH=src python tools/scenario_smoke.py --output-dir scenario-smoke
    PYTHONPATH=src python tools/scenario_smoke.py --size 1024   # quicker
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

#: One fixed tile shape for the whole image — the affinity contract.
_TILE = 128
#: Tiles per raw framed request (amortises HTTP overhead; all requests
#: still carry the same shape, so routing is unaffected).
_BATCH = 64
#: Per-tile base config: empirically the cheapest recipe that segments a
#: 128x128 blob-field tile bit-exactly (dimension 512 / budget 8); the
#: fixed-point stop cuts most tiles to 2-3 actual passes.
_BASE_CONFIG_OVERRIDES = {
    "dimension": 512,
    "num_iterations": 8,
}


def _base_config_dict() -> dict:
    """The full per-tile SegHDC config dict (replicas get it verbatim)."""
    from repro.seghdc import SegHDCConfig

    return SegHDCConfig(**_BASE_CONFIG_OVERRIDES).to_dict()


def _get(url: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


def _boot_fleet(replicas: int = 2):
    """In-process gateway + ``seghdc serve`` subprocess replicas.

    Every replica serves the exact per-tile config via ``--config-json``
    (full dict, so no flag-default drift between replicas and the serial
    reference this smoke compares against).
    """
    from repro.serving.cluster import ClusterGateway, ReplicaSupervisor

    replica_args = [
        "--mode", "thread",
        "--workers", "2",
        "--config-json", json.dumps(_base_config_dict()),
    ]
    gateway = ClusterGateway(port=0, probe_interval=0.2).start()
    supervisor = ReplicaSupervisor(
        gateway, replicas=replicas, replica_args=replica_args
    )
    try:
        supervisor.start()
        gateway.wait_ready(timeout=120.0)
    except BaseException:
        supervisor.stop()
        gateway.close()
        raise
    return gateway, supervisor


def smoke_gigapixel_tiling(output_dir: Path, size: int) -> dict:
    """Tile ``size x size`` through the 2-replica fleet and verify."""
    from repro.api import make_segmenter
    from repro.api.result import SegmentationResult
    from repro.serving.cluster import ReplicaClient
    from repro.tiling import (
        TiledConfig,
        TiledSegmenter,
        blob_field,
        canonical_labels,
    )

    config = TiledConfig(
        base_config=_BASE_CONFIG_OVERRIDES,
        tile_height=_TILE,
        tile_width=_TILE,
    )
    image = blob_field(size, size, spacing=32, seed=0)
    truth = (image > 127).astype(np.int32)
    grid = config.grid_for(size, size)
    print(
        f"[scenario-smoke] tiling {size}x{size} "
        f"({image.nbytes / 1e6:.0f} MB) into {grid.num_tiles} tiles of "
        f"{_TILE}x{_TILE}"
    )

    gateway, supervisor = _boot_fleet()
    requests_sent = 0
    try:
        with ReplicaClient(
            "gateway", gateway.host, gateway.port, timeout=600.0
        ) as client:

            def runner(tiles):
                nonlocal requests_sent
                results = []
                for start in range(0, len(tiles), _BATCH):
                    label_maps = client.segment_raw(
                        list(tiles[start:start + _BATCH])
                    )
                    requests_sent += 1
                    results.extend(
                        SegmentationResult(
                            labels=labels,
                            elapsed_seconds=0.0,
                            num_clusters=int(np.unique(labels).size),
                        )
                        for labels in label_maps
                    )
                return results

            segmenter = TiledSegmenter(config, tile_runner=runner)
            start = time.perf_counter()
            result, stitched = segmenter.segment_instances(image)
            elapsed = time.perf_counter() - start

        # The fleet rollup rides the prober's cached snapshots; one
        # explicit round makes them current before the read.
        gateway.prober.probe_all()
        stats = _get(f"http://{gateway.host}:{gateway.port}/stats")
    finally:
        supervisor.stop()
        gateway.close()

    # 1. Bit-exact against the ground-truth intensity modes.
    mismatched = int(np.count_nonzero(result.labels != truth))
    assert mismatched == 0, (
        f"stitched cluster map diverged from the two ground-truth "
        f"intensity modes on {mismatched}/{truth.size} pixels"
    )

    # 2. Transport exactness: sampled tiles re-run serially in-process
    # must match what came back through gateway + replica + framed wire.
    base = make_segmenter(
        {"segmenter": config.base, "config": dict(config.base_config)}
    )
    sample = [0, grid.num_tiles // 2, grid.num_tiles - 1]
    for index in sample:
        box = grid.boxes[index]
        tile = image[box.tile_slices]
        serial = canonical_labels(base.segment(tile).labels, tile)
        served = result.labels[box.owned_slices]
        assert np.array_equal(
            serial[box.owned_local_slices], served
        ), f"tile {index}: serial and cluster-served labels diverged"

    # 3. One tile shape -> one grid build fleet-wide, on one replica.
    per_replica = stats["fleet"]["per_replica"]
    builds = {
        replica_id: (entry or {}).get("position_grid_builds", 0)
        for replica_id, entry in per_replica.items()
    }
    total_builds = sum(builds.values())
    assert total_builds == 1, (
        f"expected exactly 1 fleet-wide grid build for 1 tile shape, got "
        f"{total_builds} (per replica: {builds})"
    )
    routing = stats["gateway"]["routing_table"]
    assert len(routing) == 1, routing

    tiling = result.workload["tiling"]
    report = {
        "image_shape": [size, size],
        "tile_shape": tiling["tile_shape"],
        "num_tiles": tiling["num_tiles"],
        "requests_sent": requests_sent,
        "num_segments": stitched.num_segments,
        "seam_merges": tiling["seam_merges"],
        "elapsed_seconds": elapsed,
        "stitch_seconds": result.workload["stitch_seconds"],
        "bit_exact_vs_truth": True,
        "sampled_tiles_transport_exact": len(sample),
        "grid_builds_per_replica": builds,
        "grid_builds_total": total_builds,
        "routing_table": routing,
    }
    (output_dir / "scenario_tiling.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print(
        f"[scenario-smoke] gigapixel: {tiling['num_tiles']} tiles in "
        f"{elapsed:.1f}s ({requests_sent} requests), "
        f"{stitched.num_segments} segments, bit-exact vs truth, "
        f"{total_builds} grid build fleet-wide ({builds}) OK"
    )
    return report


def smoke_video_warm_start(output_dir: Path) -> dict:
    """Warm start cuts mean K-Means iterations per frame below cold."""
    from repro.seghdc import SegHDCConfig, synthetic_video, warm_start_cut

    frames = synthetic_video(
        10, 48, 48, num_blobs=3, radius=9.0, step=1.5, noise=6.0, seed=0
    )
    # Soft gradients need a lower color sensitivity (beta) than the
    # paper's binary-threshold default; the 12-pass budget is the cold
    # ceiling the warm start cuts.
    report = warm_start_cut(
        frames, SegHDCConfig(dimension=512, num_iterations=12, beta=4)
    )
    (output_dir / "video_bench.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    cold = report["cold"]["mean_iterations"]
    warm = report["warm"]["mean_iterations"]
    assert warm < cold, (
        f"the warm run did not cut mean iterations below cold "
        f"(warm {warm:.2f} >= cold {cold:.2f}): {report}"
    )
    assert report["iteration_cut"] > 0, report
    assert (
        report["warm"]["frames_warm_started"] == report["num_frames"] - 1
    ), report
    print(
        f"[scenario-smoke] video: cold {cold:.2f} -> warm {warm:.2f} "
        f"iters/frame (cut {report['iteration_cut']:.2f}, "
        f"{report['iteration_cut_ratio']:.0%}) OK"
    )
    return report


def main(argv: "list[str] | None" = None) -> int:
    """Run the scenario smoke; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output-dir",
        default="scenario-smoke",
        help="directory for the tiling/video/stats JSON artifacts",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=4096,
        help="side of the square synthetic image (default 4096)",
    )
    args = parser.parse_args(argv)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    smoke_gigapixel_tiling(output_dir, args.size)
    smoke_video_warm_start(output_dir)
    print("[scenario-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
