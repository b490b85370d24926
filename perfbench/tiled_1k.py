"""tiled-1k: ``TiledSegmenter`` on a 1024x1024 ``blob_field`` image.

64x64 tiles, base seghdc with d=1024, 10 iterations, packed.  Tiles go
through the public ``tile_runner`` seam into an in-process thread-mode
``SegmentationServer`` (2 workers, ``max_batch_size=1``) via
``segment_batch``.  256 small fits per image make per-fit fixed cost and
the serving queue matter; the image waits on its slowest tile.  The
stitched map must equal ``image == foreground`` exactly.  ``--seed`` seeds
the blob field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from measure import (
    RECONCILE_LIMIT, empty_layers, foreground_iou, median, percentile,
    reconcile_error, serving_layers, vm_hwm_mb,
)
from probes import EngineProbe, device_mem_ratio
from spans import is_traced, self_times

PARAMS = {
    "full": {"size": 1024, "tile": 64, "spacing": 32, "dimension": 1024},
    "quick": {"size": 256, "tile": 64, "spacing": 32, "dimension": 256},
}
ITERATIONS = 10
WORKERS = 2
FOREGROUND = 215

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass
class State:
    server: object
    segmenter: object
    image: np.ndarray
    expected: np.ndarray
    tile: int
    probe: "EngineProbe | None"


def setup(opts, recorder) -> State:
    from repro.serving.server import SegmentationServer
    from repro.tiling import TiledConfig, TiledSegmenter, blob_field

    params = PARAMS[opts.scale]
    config = TiledConfig(
        base="seghdc",
        base_config={
            "dimension": params["dimension"],
            "num_iterations": ITERATIONS,
            "backend": "packed",
        },
        tile_height=params["tile"],
        tile_width=params["tile"],
    )
    image = blob_field(
        params["size"], params["size"], spacing=params["spacing"],
        foreground=FOREGROUND, seed=opts.seed,
    )
    server = SegmentationServer(
        {"segmenter": config.base, "config": dict(config.base_config)},
        mode="thread", num_workers=WORKERS, max_batch_size=1,
    )
    probe = None
    if opts.trace:
        probe = EngineProbe(recorder)
        probe.attach(server.engine)

    def runner(tiles):
        with recorder.span("tiling.run_tiles"):
            return server.segment_batch(tiles)

    segmenter = TiledSegmenter(config, tile_runner=runner)
    tile = params["tile"]
    # One warm-up request per shape: every tile of the image shares it.
    server.segment_batch([image[:tile, :tile]])
    return State(server, segmenter, image, image == FOREGROUND, tile, probe)


def teardown(state: State) -> None:
    state.server.close()


def measure(state: State, opts, recorder) -> dict:
    items = []  # (rid, traced, wall, ok, pixels, workload)
    before = state.server.stats().as_dict()
    began = time.perf_counter()
    index = 0
    iou = None
    while index < 2 or time.perf_counter() - began < opts.seconds:
        rid = f"img-{index}"
        traced = bool(opts.trace) and is_traced(index)
        recorder.enabled, recorder.request_id = traced, rid
        start = time.perf_counter()
        try:
            with recorder.span("tiling.segment", rid):
                result, _stitched = state.segmenter.segment_instances(state.image)
        except Exception as exc:  # noqa: BLE001 - a failure is a data point
            wall, ok, workload = time.perf_counter() - start, False, {}
            print(f"tiled-1k: {rid} failed: {exc!r}", flush=True)
        else:
            wall = time.perf_counter() - start
            labels = result.labels
            ok = np.array_equal(labels, state.expected.astype(labels.dtype))
            workload = result.workload
            if ok and iou is None:
                iou = foreground_iou(labels, state.expected)
        recorder.enabled = False
        items.append((rid, traced, wall, ok, state.image.size, workload))
        index += 1
    elapsed = time.perf_counter() - began
    after = state.server.stats().as_dict()
    walls = [item[2] for item in items]
    correct = sum(1 for item in items if item[3])
    outcome = {
        "attempted": len(items),
        "failed": len(items) - correct,
        "e2e": {
            "throughput_mpx_s": sum(i[4] for i in items if i[3]) / 1e6 / elapsed,
            "latency_p50_s": percentile(walls, 50),
            "latency_p90_s": percentile(walls, 90),
            "correct_frac": correct / len(items),
            "iou_mean": iou or 0.0,
            "peak_rss_mb": vm_hwm_mb(),
        },
        "detail": {"images": len(items), "walls_s": walls},
    }
    if opts.trace:
        outcome["layers"], outcome["reconciled"] = trace_layers(
            state, items, before, after, recorder
        )
    return outcome


def trace_layers(state: State, items, before, after, recorder) -> tuple:
    traced = [item for item in items if item[1]]
    untraced = [item for item in items if not item[1]]
    rids = [item[0] for item in traced]
    probe = state.probe
    layers = empty_layers()
    layers.update(probe.layers(rids, len(traced)))
    totals = self_times(recorder.select(rids))
    tiles = sum(1 for r in probe.records if r["request_id"] in set(rids))
    segment_per_tile = layers["seghdc.segment_s"] * len(traced) / tiles
    layers.update(serving_layers(before, after, segment_per_tile))
    run_tiles = totals["tiling.run_tiles"]["total_s"] / len(traced)
    stitch = float(np.mean([item[5]["stitch_seconds"] for item in traced]))
    root_self = totals["tiling.segment"]["self_s"] / len(traced)
    wall = float(np.mean([item[2] for item in traced]))
    cache = state.server.engine.cache_info()
    lookups = cache["hits"] + cache["misses"]
    layers.update({
        "serving.parallel_eff": (
            layers["seghdc.segment_s"] / (run_tiles * WORKERS) if run_tiles else 0.0
        ),
        "tiling.run_tiles_s": run_tiles,
        "tiling.stitch_s": stitch,
        "tiling.cut_s": root_self - stitch,
        "tiling.seam_merges": float(
            np.mean([item[5]["tiling"]["seam_merges"] for item in traced])
        ),
        "seghdc.grid_builds": cache["position_grid_builds"],
        "seghdc.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "device.time_ratio": probe.device_time_ratio(state.server.engine.config, rids),
        "device.mem_ratio": device_mem_ratio(
            state.server.engine, state.image[: state.tile, : state.tile]
        ),
        "trace.overhead_s": (
            median([i[2] for i in traced]) - median([i[2] for i in untraced])
        ),
        "trace.spans": len(recorder.select(rids)),
    })
    err = reconcile_error(run_tiles + stitch + layers["tiling.cut_s"], wall)
    layers["trace.reconcile_err"] = err
    return layers, err <= RECONCILE_LIMIT
