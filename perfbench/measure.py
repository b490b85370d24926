"""Measurement helpers shared by the workloads: metric tables, percentiles,
process memory, the benchmark's own IoU, and the environment record."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_mpx_s": "Mpx/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "correct_frac": "frac",
    "iou_mean": "iou",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  Times and counts are
#: per workload item (image, or request on http-mixed) unless the name says
#: per call; a layer a workload bypasses reports 0.
LAYER_UNITS = {
    "hdc.assign_s": "s",
    "hdc.assign_calls": "count",
    "hdc.assign_planes": "count",
    "hdc.assign_gwordops": "Gwordop",
    "hdc.assign_gwordops_s": "Gwordop/s",
    "hdc.bundle_s": "s",
    "hdc.bundle_calls": "count",
    "hdc.bundle_rows": "count",
    "hdc.bind_color_s": "s",
    "hdc.bind_grid_s": "s",
    "seghdc.segment_s": "s",
    "seghdc.self_s": "s",
    "seghdc.iterations": "count",
    "seghdc.switch_frac": "frac",
    "seghdc.idle_iters": "count",
    "seghdc.grid_builds": "count",
    "seghdc.cache_hit_ratio": "frac",
    "serving.job_s": "s",
    "serving.queue_wait_s": "s",
    "serving.batch_size_mean": "count",
    "serving.rejected": "count",
    "serving.transport_bytes_per_image": "B",
    "serving.shm_frac": "frac",
    "serving.parallel_eff": "frac",
    "http.rtt_s": "s",
    "http.handler_s": "s",
    "http.wire_s": "s",
    "http.decode_s": "s",
    "http.encode_s": "s",
    "http.bytes_in_per_image": "B",
    "http.bytes_out_per_image": "B",
    "tiling.run_tiles_s": "s",
    "tiling.stitch_s": "s",
    "tiling.cut_s": "s",
    "tiling.seam_merges": "count",
    "device.time_ratio": "ratio",
    "device.mem_ratio": "ratio",
    "trace.reconcile_err": "frac",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Largest |layer sum - wall| / wall the traced run accepts.
RECONCILE_LIMIT = 0.05


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    """Median of a sample, 0.0 for an empty one."""
    return percentile(values, 50.0) if len(values) else 0.0


def label_digest(labels: np.ndarray) -> str:
    """sha256 over the shape and the int32 bytes of a label map."""
    arr = np.ascontiguousarray(labels, dtype=np.int32)
    digest = hashlib.sha256(repr(arr.shape).encode("ascii"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


def foreground_iou(labels: np.ndarray, mask: np.ndarray) -> float:
    """Best IoU over every proper subset of clusters taken as foreground."""
    truth = np.asarray(mask) != 0
    clusters = np.unique(labels).tolist()
    best = 0.0
    for size in range(1, max(len(clusters), 2)):
        for subset in combinations(clusters, size):
            predicted = np.isin(labels, subset)
            union = np.count_nonzero(predicted | truth)
            inter = np.count_nonzero(predicted & truth)
            best = max(best, inter / union if union else 1.0)
    return best


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of one process in MB, 0.0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _proc_stats() -> "list[tuple[int, list[str]]]":
    """``(pid, stat fields after the command name)`` of every live process."""
    table = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        table.append((int(entry.name), stat[stat.rfind(")") + 2:].split()))
    return table


def process_tree(root: int) -> "list[int]":
    """``root`` and every live descendant."""
    children: dict = {}
    for pid, fields in _proc_stats():
        children.setdefault(int(fields[1]), []).append(pid)
    tree, frontier = [root], [root]
    while frontier:
        found = children.get(frontier.pop(), [])
        tree.extend(found)
        frontier.extend(found)
    return tree


def session_members(sid: int) -> "list[int]":
    """Live (non-zombie) processes of session ``sid``."""
    return [
        pid for pid, fields in _proc_stats()
        if int(fields[3]) == sid and fields[0] != "Z"
    ]


def environment() -> dict:
    """Machine and toolchain facts that change what the numbers mean."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        # PackedBackend's popcount uses np.bitwise_count when it exists and
        # a 16-bit lookup table otherwise.
        "numpy_bitwise_count": hasattr(np, "bitwise_count"),
        "git_commit": commit,
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def empty_layers() -> dict:
    """Every per-layer metric at 0, for the workload to fill in."""
    return {name: 0.0 for name in LAYER_UNITS}


def delta_mean(before: dict, after: dict) -> float:
    """Mean of the samples added between two ``{"count", "mean"}`` latency
    summaries (exact while the server's reservoir still holds every sample)."""
    count = after["count"] - before["count"]
    if count <= 0:
        return 0.0
    return (after["mean"] * after["count"] - before["mean"] * before["count"]) / count


def serving_layers(before: dict, after: dict, segment_s: float) -> dict:
    """``serving.*`` metrics from two ``ServerStats.as_dict()`` snapshots.

    ``segment_s`` is the measured engine time per job; queue wait is the
    rest of the job latency (queue, batching, transport, result hand-off).
    """
    jobs = (
        after["mean_batch_size"] * after["batches_dispatched"]
        - before["mean_batch_size"] * before["batches_dispatched"]
    )
    batches = after["batches_dispatched"] - before["batches_dispatched"]
    images = bytes_moved = shm_images = 0
    for path, entry in after["transport"].items():
        old = before["transport"].get(path, {"images": 0, "bytes_in": 0, "bytes_out": 0})
        moved = entry["images"] - old["images"]
        images += moved
        bytes_moved += (entry["bytes_in"] - old["bytes_in"]) + (
            entry["bytes_out"] - old["bytes_out"]
        )
        if path == "shm":
            shm_images += moved
    job_s = delta_mean(before["latency"], after["latency"])
    return {
        "serving.job_s": job_s,
        "serving.queue_wait_s": job_s - segment_s,
        "serving.batch_size_mean": jobs / batches if batches else 0.0,
        "serving.rejected": after["rejected"] - before["rejected"],
        "serving.transport_bytes_per_image": bytes_moved / images if images else 0.0,
        "serving.shm_frac": shm_images / images if images else 0.0,
    }


def reconcile_error(layer_sum: float, wall: float) -> float:
    """Relative gap between summed layer time and the wall it should cover."""
    return abs(layer_sum - wall) / wall if wall > 0 else 1.0
