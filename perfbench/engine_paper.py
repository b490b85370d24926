"""engine-paper: direct ``SegHDCEngine.segment`` in a closed loop, one caller.

Paper defaults for dsb2018 scaled to 128x128 on the packed backend
(d=10000, k=2, 10 iterations).  The inputs are a fixed pool of
dsb2018-synthetic images whose label-map digests are pinned in
``pins.json`` (cross-checked against the dense oracle by
``pin_digests.py``); ``--seed`` sets the order the pool is served in.  The
pool is small enough that every run covers all of it, so ``iou_mean`` is
the pool's mean IoU.  Serving, HTTP and tiling are bypassed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from measure import (
    RECONCILE_LIMIT, empty_layers, foreground_iou, label_digest, median,
    percentile, reconcile_error, vm_hwm_mb,
)
from probes import EngineProbe, device_mem_ratio
from spans import is_traced

PINS = Path(__file__).with_name("pins.json")

PARAMS = {
    "full": {"shape": (128, 128), "pool": 8, "dimension": None},
    "quick": {"shape": (32, 32), "pool": 3, "dimension": 1000},
}

#: Config fields the pinned digests depend on (the rest are kernel tunables
#: and switches that must not change labels).
PINNED_FIELDS = (
    "dimension", "num_clusters", "num_iterations", "alpha", "beta", "gamma",
    "position_encoding", "color_encoding", "color_levels", "seed",
)


def make_config(scale: str, backend: str = "packed"):
    """The engine-paper config at ``scale`` on ``backend``."""
    from repro.seghdc.config import SegHDCConfig

    params = PARAMS[scale]
    config = SegHDCConfig.paper_defaults("dsb2018").scaled_for_shape(
        *params["shape"]
    ).with_overrides(backend=backend)
    if params["dimension"]:
        config = config.with_overrides(dimension=params["dimension"])
    return config


def make_samples(scale: str) -> list:
    """The fixed image pool (dataset seed 0), with ground-truth masks."""
    from repro.datasets.dsb2018 import DSB2018Synthetic

    params = PARAMS[scale]
    dataset = DSB2018Synthetic(
        num_images=params["pool"], image_shape=params["shape"], seed=0
    )
    return [dataset[index] for index in range(params["pool"])]


def pinned_fields(config) -> dict:
    """The subset of ``config`` the digests are pinned against."""
    return {name: getattr(config, name) for name in PINNED_FIELDS}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass
class State:
    engine: object
    samples: list
    digests: list
    order: np.ndarray
    probe: "EngineProbe | None"


def setup(opts, recorder) -> State:
    from repro.seghdc.engine import SegHDCEngine

    pins = json.loads(PINS.read_text())[f"engine-paper/{opts.scale}"]
    config = make_config(opts.scale)
    if pinned_fields(config) != pins["config"]:
        raise RuntimeError(
            f"engine-paper config {pinned_fields(config)} no longer matches the "
            f"pinned {pins['config']}; re-run pin_digests.py"
        )
    samples = make_samples(opts.scale)
    engine = SegHDCEngine(config)
    probe = None
    if opts.trace:
        probe = EngineProbe(recorder)
        probe.attach(engine)
    image = samples[0].image
    engine.warm(image.height, image.width, image.channels)
    order = np.random.default_rng(opts.seed).permutation(len(samples))
    return State(engine, samples, pins["digests"], order, probe)


def teardown(state: State) -> None:
    state.engine.clear_cache()


def measure(state: State, opts, recorder) -> dict:
    engine = state.engine
    items = []  # (rid, traced, wall, ok, pixels)
    ious = {}
    began = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - began < opts.seconds:
        sample_index = int(state.order[index % len(state.order)])
        sample = state.samples[sample_index]
        rid = f"img-{index}"
        traced = bool(opts.trace) and is_traced(index)
        recorder.enabled, recorder.request_id = traced, rid
        start = time.perf_counter()
        try:
            result = engine.segment(sample.image)
        except Exception as exc:  # noqa: BLE001 - a failure is a data point
            wall, ok = time.perf_counter() - start, False
            print(f"engine-paper: {rid} failed: {exc!r}", flush=True)
        else:
            wall = time.perf_counter() - start
            ok = label_digest(result.labels) == state.digests[sample_index]
            if ok and sample_index not in ious:
                ious[sample_index] = foreground_iou(result.labels, sample.mask)
        recorder.enabled = False
        items.append((rid, traced, wall, ok, sample.image.num_pixels))
        index += 1
    elapsed = time.perf_counter() - began
    return summarize(state, opts, items, elapsed, ious)


def summarize(state: State, opts, items, elapsed, ious) -> dict:
    walls = [wall for _, _, wall, _, _ in items]
    good_pixels = sum(px for _, _, _, ok, px in items if ok)
    correct = sum(1 for item in items if item[3])
    outcome = {
        "attempted": len(items),
        "failed": len(items) - correct,
        "e2e": {
            "throughput_mpx_s": good_pixels / 1e6 / elapsed,
            "latency_p50_s": percentile(walls, 50),
            "latency_p90_s": percentile(walls, 90),
            "correct_frac": correct / len(items),
            "iou_mean": float(np.mean(list(ious.values()))) if ious else 0.0,
            "peak_rss_mb": vm_hwm_mb(),
        },
        "detail": {"images": len(items), "distinct_images": len(ious),
                   "walls_s": walls},
    }
    if opts.trace:
        outcome["layers"], outcome["reconciled"] = trace_layers(state, items)
    return outcome


def trace_layers(state: State, items) -> tuple:
    traced = [item for item in items if item[1]]
    untraced = [item for item in items if not item[1]]
    rids = [item[0] for item in traced]
    probe = state.probe
    layers = empty_layers()
    layers.update(probe.layers(rids, len(traced)))
    cache = state.engine.cache_info()
    lookups = cache["hits"] + cache["misses"]
    wall = float(np.mean([item[2] for item in traced]))
    layer_sum = sum(
        layers[name] for name in
        ("hdc.assign_s", "hdc.bundle_s", "hdc.bind_color_s", "seghdc.self_s")
    )
    err = reconcile_error(layer_sum, wall)
    layers.update({
        "seghdc.grid_builds": cache["position_grid_builds"],
        "seghdc.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "device.time_ratio": probe.device_time_ratio(state.engine.config, rids),
        "device.mem_ratio": device_mem_ratio(
            state.engine, state.samples[0].image.pixels
        ),
        "trace.reconcile_err": err,
        "trace.overhead_s": (
            median([i[2] for i in traced]) - median([i[2] for i in untraced])
        ),
        "trace.spans": len(probe.recorder.select(rids)),
    })
    return layers, err <= RECONCILE_LIMIT
