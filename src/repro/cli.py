"""Command-line interface: ``python -m repro.cli <experiment>`` or ``seghdc``.

Examples::

    seghdc list
    seghdc table1 --scale quick --output-dir results/
    seghdc figure7 --scale paper --output-dir results/
    seghdc segment --dataset dsb2018 --output-dir results/
    seghdc segment --segmenter cnn_baseline --iterations 30
    seghdc serve-bench --mode thread --workers 4 --backend packed
    seghdc serve --port 8080 --mode process --workers 4
    seghdc cluster --replicas 2 --port 8080
    seghdc cluster-bench --replicas 2 --output results/cluster_bench.json
    seghdc tile --height 384 --width 384 --tile 128x128 --check-parity
    seghdc video-bench --frames 10 --output results/video_bench.json
    seghdc run --spec examples/run_spec.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api import (
    available_segmenters,
    execute_run_spec,
    make_segmenter,
)
from repro.datasets import available_datasets, make_dataset
from repro.hdc.backend import available_backends, make_backend
from repro.experiments import (
    available_experiments,
    run_experiment,
)
from repro.experiments.records import ExperimentScale
from repro.metrics import best_foreground_iou
from repro.seghdc import SegHDCConfig
from repro.viz import ascii_mask, mask_to_grayscale, save_panel

__all__ = ["build_parser", "main"]


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    # Default None = "use the config's backend": the flag only overrides the
    # compute backend when it is explicitly passed, so a spec or paper
    # default is never silently clobbered.
    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="override the HDC compute backend (dense uint8 or bit-packed "
        "uint64); default: whatever the config specifies",
    )


def _add_dimension_option(
    parser: argparse.ArgumentParser, default: int
) -> None:
    # Same None-sentinel pattern as --backend: the seghdc-only flag errors
    # when explicitly combined with another segmenter instead of being
    # silently dropped, while the subcommand's default still applies.
    parser.add_argument(
        "--dimension",
        type=int,
        default=None,
        help=f"hypervector dimension (seghdc only; default {default})",
    )
    parser.set_defaults(dimension_default=default)


def _add_iterations_option(
    parser: argparse.ArgumentParser, default: int
) -> None:
    # None sentinel for the same reason as --backend/--dimension: both
    # built-ins consume it, but an explicit value with a third-party
    # segmenter must error instead of being silently dropped.
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="K-Means iterations (seghdc) or training-step budget "
        f"(cnn_baseline); default {default}",
    )
    parser.set_defaults(iterations_default=default)


def _effective_iterations(args: argparse.Namespace) -> "int | None":
    if args.segmenter in ("seghdc", "cnn_baseline"):
        return (
            args.iterations if args.iterations is not None
            else args.iterations_default
        )
    return None


def _add_segmenter_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--segmenter",
        default="seghdc",
        choices=available_segmenters(),
        help="which registered segmentation algorithm to run",
    )
    # The registry-generic escape hatch: the convenience flags above only
    # cover the built-ins, but any registered segmenter can be configured
    # with a raw (validated) config dict.
    parser.add_argument(
        "--config-json",
        default=None,
        metavar="JSON",
        help="inline JSON object of config overrides for the chosen "
        "segmenter (works for any registered segmenter; cannot be combined "
        "with --backend/--dimension/--iterations)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``seghdc`` argument parser (one subcommand per experiment)."""
    parser = argparse.ArgumentParser(
        prog="seghdc",
        description="SegHDC reproduction: experiments and one-off segmentation runs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list available experiments, datasets, and segmenters"
    )

    for name in available_experiments():
        experiment_parser = subparsers.add_parser(name, help=f"run the {name} experiment")
        experiment_parser.add_argument(
            "--scale", default="quick", choices=("quick", "paper"), help="experiment scale"
        )
        experiment_parser.add_argument(
            "--output-dir", default=None, help="directory for CSV/PNG artifacts"
        )
        _add_backend_option(experiment_parser)

    segment_parser = subparsers.add_parser(
        "segment", help="segment one synthetic sample"
    )
    segment_parser.add_argument(
        "--dataset", default="dsb2018", choices=available_datasets()
    )
    segment_parser.add_argument("--index", type=int, default=0)
    _add_dimension_option(segment_parser, default=2000)
    _add_iterations_option(segment_parser, default=5)
    segment_parser.add_argument("--height", type=int, default=128)
    segment_parser.add_argument("--width", type=int, default=160)
    segment_parser.add_argument("--output-dir", default=None)
    _add_segmenter_option(segment_parser)
    _add_backend_option(segment_parser)

    run_parser = subparsers.add_parser(
        "run", help="execute a declarative run-spec JSON file"
    )
    run_parser.add_argument(
        "--spec", required=True, help="path to a RunSpec JSON file"
    )
    run_parser.add_argument(
        "--output",
        default=None,
        help="write the result payload JSON here (overrides the spec's "
        "'output' field)",
    )

    serve_parser = subparsers.add_parser(
        "serve-bench",
        help="measure SegmentationServer throughput against serial segmentation",
    )
    serve_parser.add_argument(
        "--mode", default="thread", choices=("thread", "process")
    )
    serve_parser.add_argument("--workers", type=int, default=4)
    serve_parser.add_argument("--images", type=int, default=12)
    serve_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="micro-batch bound; defaults to 1 in thread mode (a larger "
        "batch funnels a same-shape burst onto one worker) and 4 in "
        "process mode (each worker amortises its own grid build)",
    )
    serve_parser.add_argument(
        "--dataset", default="dsb2018", choices=available_datasets()
    )
    serve_parser.add_argument("--height", type=int, default=64)
    serve_parser.add_argument("--width", type=int, default=64)
    _add_dimension_option(serve_parser, default=1000)
    _add_iterations_option(serve_parser, default=3)
    _add_segmenter_option(serve_parser)
    _add_backend_option(serve_parser)
    serve_parser.add_argument(
        "--transport",
        default="auto",
        choices=("auto", "pickle", "shm"),
        help="process-mode image transport: 'shm' forces the shared-memory "
        "ring, 'pickle' disables it, 'auto' (default) uses shm when "
        "available; the resolved transport is read back from the "
        "server's per-path byte counters and recorded in the JSON",
    )
    serve_parser.add_argument(
        "--wire",
        default="npy",
        choices=("json", "npy", "raw"),
        help="HTTP wire form to measure bytes-per-image for (socket-free: "
        "the benchmark encodes the actual images and label maps with "
        "the serving codecs and compares against the cost model's "
        "http_wire_bytes)",
    )
    serve_parser.add_argument(
        "--output",
        default=None,
        help="write the benchmark result (throughput, stats, estimate) as JSON",
    )

    http_parser = subparsers.add_parser(
        "serve",
        help="serve segmentation over HTTP (POST /v1/segment, /v1/run-spec, "
        "/v1/config with --allow-reconfig; GET /v1/segmenters, /healthz, "
        "/stats)",
    )
    http_parser.add_argument("--host", default="127.0.0.1")
    http_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port to bind (0 picks an ephemeral port, printed on boot)",
    )
    http_parser.add_argument(
        "--mode", default="thread", choices=("thread", "process")
    )
    http_parser.add_argument("--workers", type=int, default=2)
    http_parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="backpressure bound of the wrapped SegmentationServer",
    )
    http_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="micro-batch bound; defaults to 1 in thread mode and 4 in "
        "process mode (same rationale as serve-bench)",
    )
    http_parser.add_argument(
        "--no-shared-grids",
        action="store_true",
        help="disable the process-mode cross-engine shared grid cache "
        "(workers build their own encoder grids again)",
    )
    http_parser.add_argument(
        "--no-shm",
        action="store_true",
        help="disable the process-mode shared-memory image transport "
        "(images travel to workers by pickle again)",
    )
    http_parser.add_argument(
        "--dataset",
        default="dsb2018",
        choices=available_datasets(),
        help="dataset whose paper defaults seed the SegHDC config",
    )
    http_parser.add_argument(
        "--height",
        type=int,
        default=64,
        help="nominal image height used to scale the SegHDC block size "
        "(requests may carry any shape)",
    )
    http_parser.add_argument(
        "--width", type=int, default=64, help="nominal image width (see --height)"
    )
    http_parser.add_argument(
        "--allow-reconfig",
        action="store_true",
        help="enable POST /v1/config hot reconfiguration (generation-based "
        "swap: validated diffs rebuild the worker pool without dropping "
        "in-flight requests; disabled by default)",
    )
    http_parser.add_argument(
        "--watch-spec",
        metavar="FILE",
        default=None,
        help="poll FILE (a JSON run-spec or config diff) and hot-apply "
        "changes to its segmenter/config/serving fields through the same "
        "control plane as POST /v1/config",
    )
    http_parser.add_argument(
        "--watch-interval",
        type=float,
        default=2.0,
        help="seconds between --watch-spec polls",
    )
    _add_dimension_option(http_parser, default=1000)
    _add_iterations_option(http_parser, default=3)
    _add_segmenter_option(http_parser)
    _add_backend_option(http_parser)

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="serve segmentation through a shape-affinity gateway over N "
        "supervised replica processes (each a full 'seghdc serve')",
    )
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="gateway TCP port (0 picks an ephemeral port; the bound port "
        "is printed as SEGHDC_GATEWAY_PORT=<port>)",
    )
    cluster_parser.add_argument(
        "--replicas", type=int, default=2, help="replica processes to spawn"
    )
    cluster_parser.add_argument(
        "--mode",
        default="thread",
        choices=("thread", "process"),
        help="worker mode inside each replica",
    )
    cluster_parser.add_argument(
        "--workers", type=int, default=2, help="workers per replica"
    )
    cluster_parser.add_argument(
        "--probe-interval",
        type=float,
        default=0.5,
        help="seconds between health-probe rounds",
    )
    cluster_parser.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="restart budget per replica before it stays down",
    )
    cluster_parser.add_argument(
        "--dataset", default="dsb2018", choices=available_datasets()
    )
    cluster_parser.add_argument("--height", type=int, default=64)
    cluster_parser.add_argument("--width", type=int, default=64)
    _add_dimension_option(cluster_parser, default=1000)
    _add_iterations_option(cluster_parser, default=3)
    _add_segmenter_option(cluster_parser)
    _add_backend_option(cluster_parser)

    cluster_bench_parser = subparsers.add_parser(
        "cluster-bench",
        help="boot gateway + replicas, drive a multi-shape workload, and "
        "report fleet RPS / latency percentiles / per-replica grid builds "
        "(the shape-affinity proof)",
    )
    cluster_bench_parser.add_argument("--replicas", type=int, default=2)
    cluster_bench_parser.add_argument(
        "--images",
        type=int,
        default=24,
        help="requests sent, round-robin across three image shapes",
    )
    cluster_bench_parser.add_argument(
        "--mode", default="thread", choices=("thread", "process")
    )
    cluster_bench_parser.add_argument("--workers", type=int, default=2)
    cluster_bench_parser.add_argument(
        "--dataset", default="dsb2018", choices=available_datasets()
    )
    cluster_bench_parser.add_argument(
        "--height",
        type=int,
        default=48,
        help="base image height; the workload uses this and two larger "
        "shapes",
    )
    cluster_bench_parser.add_argument("--width", type=int, default=48)
    _add_dimension_option(cluster_bench_parser, default=1000)
    _add_iterations_option(cluster_bench_parser, default=3)
    _add_segmenter_option(cluster_bench_parser)
    _add_backend_option(cluster_bench_parser)
    cluster_bench_parser.add_argument(
        "--output",
        default=None,
        help="write the benchmark result (RPS, p50/p99, per-replica grid "
        "builds, routing table) as JSON",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive a serving endpoint with scheduled open/closed-loop "
        "traffic, or (without --url) run the canned load/chaos experiments "
        "(worker SIGKILL + replica SIGKILL under open-loop load)",
    )
    loadgen_parser.add_argument(
        "--url",
        default=None,
        metavar="HOST:PORT",
        help="an already-running seghdc serve / cluster gateway endpoint; "
        "omitted, the canned chaos experiments boot their own stacks",
    )
    loadgen_parser.add_argument(
        "--schedule",
        default="constant",
        choices=("constant", "step", "ramp", "poisson"),
        help="arrival process: 'step' doubles --rate halfway through, "
        "'ramp' sweeps --rate to --end-rate",
    )
    loadgen_parser.add_argument(
        "--rate", type=float, default=20.0, help="arrival rate (requests/s)"
    )
    loadgen_parser.add_argument(
        "--end-rate",
        type=float,
        default=None,
        help="ramp end rate (defaults to 2x --rate)",
    )
    loadgen_parser.add_argument(
        "--duration", type=float, default=10.0, help="schedule seconds"
    )
    loadgen_parser.add_argument(
        "--seed", type=int, default=0, help="poisson arrival seed"
    )
    loadgen_parser.add_argument(
        "--loop",
        default="open",
        choices=("open", "closed"),
        help="open: fire at arrival times regardless of completions; "
        "closed: --concurrency back-to-back senders",
    )
    loadgen_parser.add_argument(
        "--concurrency",
        type=int,
        default=16,
        help="sender threads (open: in-flight bound; closed: offered "
        "concurrency)",
    )
    loadgen_parser.add_argument(
        "--mix",
        default="48x64:3,32x40:1",
        help="weighted image shapes, HxW[:weight] comma-separated, or a "
        "scenario preset: @gigapixel / @video[:HxW]",
    )
    loadgen_parser.add_argument(
        "--slo",
        type=float,
        default=0.5,
        help="p99 latency SLO in seconds (drives slo_violation_seconds)",
    )
    loadgen_parser.add_argument(
        "--quick",
        action="store_true",
        help="canned experiments only: the short CI sweep variant",
    )
    loadgen_parser.add_argument(
        "--out-dir",
        default="results",
        help="parent directory for the timestamped result folder",
    )
    loadgen_parser.add_argument(
        "--output", default=None, help="also write the BENCH JSON here"
    )

    tile_parser = subparsers.add_parser(
        "tile",
        help="tile a large synthetic image into fixed-shape tiles, fan them "
        "through a runner, and stitch one seam-consistent segmentation",
    )
    tile_parser.add_argument("--height", type=int, default=512)
    tile_parser.add_argument("--width", type=int, default=512)
    tile_parser.add_argument(
        "--tile",
        default="128x128",
        help="tile shape HxW; every tile of an image gets exactly this "
        "shape, so the whole image costs one encoder-grid build",
    )
    tile_parser.add_argument(
        "--overlap",
        type=int,
        default=0,
        help="pixels of nominal overlap between adjacent tiles",
    )
    tile_parser.add_argument(
        "--connectivity",
        type=int,
        default=4,
        choices=(4, 8),
        help="adjacency used when merging segments across tile seams",
    )
    tile_parser.add_argument(
        "--base",
        default="seghdc",
        help="registered per-tile segmenter (anything except 'tiled')",
    )
    tile_parser.add_argument(
        "--dimension",
        type=int,
        default=None,
        help="hypervector dimension of a seghdc base (default 1024)",
    )
    tile_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="K-Means iterations of a seghdc base (default 10)",
    )
    _add_backend_option(tile_parser)
    tile_parser.add_argument(
        "--base-config-json",
        default=None,
        metavar="JSON",
        help="inline JSON object of config overrides for the base "
        "segmenter (works for any registered base)",
    )
    tile_parser.add_argument(
        "--spacing",
        type=int,
        default=48,
        help="blob lattice spacing of the synthetic image; keep it at or "
        "below the tile shape so every tile sees both intensity modes "
        "(the precondition for bit-exact tiled-vs-direct parity)",
    )
    tile_parser.add_argument("--seed", type=int, default=0)
    tile_parser.add_argument(
        "--runner",
        default="serial",
        choices=("serial", "server"),
        help="serial: the base's own segment_batch in-process; server: fan "
        "tiles through a local thread-mode SegmentationServer pool",
    )
    tile_parser.add_argument(
        "--url",
        default=None,
        help="fan tiles through a running replica or cluster gateway at "
        "HOST:PORT over the raw framed wire (overrides --runner)",
    )
    tile_parser.add_argument(
        "--workers", type=int, default=4, help="--runner server pool size"
    )
    tile_parser.add_argument(
        "--check-parity",
        action="store_true",
        help="also segment the whole image directly with the base and "
        "compare the canonicalised cluster maps bit-for-bit (only "
        "feasible on images small enough to segment in one piece)",
    )
    tile_parser.add_argument(
        "--output", default=None, help="also write the BENCH JSON here"
    )

    video_parser = subparsers.add_parser(
        "video-bench",
        help="measure the warm-start iterations-per-frame cut: stream a "
        "synthetic video through a cold and a warm temporal session and "
        "compare mean K-Means iterations per frame",
    )
    video_parser.add_argument("--frames", type=int, default=10)
    video_parser.add_argument("--height", type=int, default=48)
    video_parser.add_argument("--width", type=int, default=48)
    video_parser.add_argument(
        "--blobs", type=int, default=3, help="number of drifting blobs"
    )
    video_parser.add_argument(
        "--radius", type=float, default=9.0, help="blob Gaussian sigma"
    )
    video_parser.add_argument(
        "--step",
        type=float,
        default=1.5,
        help="pixels each blob drifts per frame (frame-to-frame delta)",
    )
    video_parser.add_argument(
        "--noise", type=float, default=6.0, help="fixed noise field sigma"
    )
    video_parser.add_argument("--seed", type=int, default=0)
    video_parser.add_argument(
        "--dimension",
        type=int,
        default=512,
        help="hypervector dimension (default 512)",
    )
    video_parser.add_argument(
        "--iterations",
        type=int,
        default=12,
        help="K-Means iteration budget; the loop quits at the fixed "
        "point, so this is the cold-start ceiling the warm start cuts",
    )
    video_parser.add_argument(
        "--beta",
        type=int,
        default=4,
        help="color sensitivity; soft gradients need a lower beta than "
        "the paper's binary-threshold default",
    )
    _add_backend_option(video_parser)
    video_parser.add_argument(
        "--output", default=None, help="also write the BENCH JSON here"
    )

    autoscale_parser = subparsers.add_parser(
        "autoscale-bench",
        help="close the loop: step-doubling load + mid-run worker SIGKILL "
        "against an autoscaled process-mode SegHDC control plane; reports "
        "SLO violations, heal/scale latencies, and predicted vs converged "
        "worker count",
    )
    autoscale_parser.add_argument("--height", type=int, default=48)
    autoscale_parser.add_argument("--width", type=int, default=48)
    _add_dimension_option(autoscale_parser, default=500)
    _add_iterations_option(autoscale_parser, default=2)
    autoscale_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="phase-1 arrival rate (requests/s); phase 2 doubles it. "
        "Default: 80%% of the measured serial rate, so one worker holds "
        "phase 1 and the doubling forces a scale-up",
    )
    autoscale_parser.add_argument(
        "--phase-seconds",
        type=float,
        default=8.0,
        help="seconds per load phase (two phases total)",
    )
    autoscale_parser.add_argument(
        "--slo",
        type=float,
        default=2.0,
        help="p99 latency SLO in seconds the autoscaler defends",
    )
    autoscale_parser.add_argument(
        "--max-workers",
        type=int,
        default=4,
        help="autoscaler's upper worker bound",
    )
    autoscale_parser.add_argument(
        "--concurrency", type=int, default=32, help="load sender threads"
    )
    autoscale_parser.add_argument(
        "--out-dir",
        default="results",
        help="parent directory for the timestamped result folder",
    )
    autoscale_parser.add_argument(
        "--output", default=None, help="also write the BENCH JSON here"
    )
    return parser


def _parse_config_json(args: argparse.Namespace) -> "dict | None":
    """The validated ``--config-json`` overrides dict, or ``None``."""
    if args.config_json is None:
        return None
    for flag, value in (
        ("--backend", args.backend),
        ("--dimension", args.dimension),
        ("--iterations", args.iterations),
    ):
        if value is not None:
            raise SystemExit(
                f"seghdc: error: {flag} cannot be combined with --config-json"
            )
    try:
        overrides = json.loads(args.config_json)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"seghdc: error: --config-json is not valid JSON: {exc}"
        ) from None
    if not isinstance(overrides, dict):
        raise SystemExit(
            "seghdc: error: --config-json must be a JSON object of "
            "config overrides"
        )
    return overrides


def _segmenter_spec_from_args(args: argparse.Namespace) -> dict:
    """The ``{"segmenter", "config"}`` spec the CLI flags describe.

    ``--config-json`` supplies *overrides* on top of the same base config
    the flag path builds (paper defaults + beta scaling for seghdc, the
    demo iteration budget for cnn_baseline), so tweaking one field never
    silently resets the rest to bare dataclass defaults.
    """
    overrides = _parse_config_json(args)
    if overrides is None and args.segmenter != "seghdc":
        # --backend and --dimension are SegHDC concepts; error out rather
        # than silently ignore an explicitly passed flag.
        for flag, value in (
            ("--backend", args.backend), ("--dimension", args.dimension)
        ):
            if value is not None:
                raise SystemExit(
                    f"seghdc: error: {flag} applies only to --segmenter "
                    f"seghdc, not {args.segmenter!r}"
                )
        if args.segmenter != "cnn_baseline" and args.iterations is not None:
            # --iterations is consumed by both built-ins but means nothing
            # to a third-party segmenter's bare spec.
            raise SystemExit(
                f"seghdc: error: --iterations applies only to the built-in "
                f"segmenters (seghdc, cnn_baseline), not {args.segmenter!r}"
            )
    if args.segmenter == "seghdc":
        dimension = (
            args.dimension if args.dimension is not None
            else args.dimension_default
        )
        config = SegHDCConfig.paper_defaults(args.dataset).with_overrides(
            dimension=dimension,
            num_iterations=_effective_iterations(args),
        ).scaled_for_shape(args.height, args.width)
        if args.backend is not None:
            config = config.with_overrides(backend=args.backend)
        base = config.to_dict()
    elif args.segmenter == "cnn_baseline":
        # --iterations caps the per-image training budget; the reference
        # default of 1000 steps is far too slow for a CLI demo.
        base = {"max_iterations": _effective_iterations(args)}
    else:
        base = {}
    if overrides is not None:
        # make_segmenter validates the merged dict against the segmenter's
        # config class, naming any offending field.
        base = {**base, **overrides}
    if not base:
        return {"segmenter": args.segmenter}
    return {"segmenter": args.segmenter, "config": base}


def _run_segment(args: argparse.Namespace) -> int:
    dataset = make_dataset(
        args.dataset,
        num_images=args.index + 1,
        image_shape=(args.height, args.width),
        seed=0,
    )
    sample = dataset[args.index]
    spec = _segmenter_spec_from_args(args)
    segmenter = make_segmenter(spec)
    result = segmenter.segment(sample.image)
    iou = best_foreground_iou(result.labels, sample.mask)
    print(
        f"dataset={args.dataset} image={sample.image.name} "
        f"segmenter={spec['segmenter']}"
    )
    line = f"IoU={iou:.4f}  host latency={result.elapsed_seconds:.2f}s"
    if "backend" in result.workload:
        line += f"  backend={result.workload['backend']}"
    if "hv_storage_bytes" in result.workload:
        line += f"  hv_storage={result.workload['hv_storage_bytes']} bytes"
    print(line)
    print(ascii_mask(result.labels))
    if args.output_dir:
        path = save_panel(
            Path(args.output_dir) / f"segment_{sample.image.name}.png",
            [sample.image.pixels, mask_to_grayscale(sample.mask), mask_to_grayscale(result.labels)],
        )
        print(f"panel written to {path}")
    return 0


def _run_spec_command(args: argparse.Namespace) -> int:
    payload = execute_run_spec(args.spec, output=args.output)
    spec = payload["spec"]
    serving = spec.get("serving")
    topology = (
        f"{serving['mode']} x{serving['num_workers']}" if serving else "serial"
    )
    print(
        f"run: segmenter={spec['segmenter']} dataset={spec['dataset']} "
        f"images={payload['num_images']} ({topology})"
    )
    print(
        f"mean IoU={payload['mean_iou']:.4f}  "
        f"{payload['images_per_second']:.2f} images/s  "
        f"({payload['total_seconds']:.2f}s total)"
    )
    if "output_path" in payload:
        print(f"results JSON written to {payload['output_path']}")
    return 0


def _measure_wire_bytes(wire: str, images: list, results: list) -> dict:
    """Socket-free measurement of one HTTP wire form's bytes per image.

    Encodes the benchmark's actual images and label maps with the same
    codecs the HTTP front end uses (base64 ``.npy``, bare ``.npy``, JSON
    lists) and pairs the measured bytes/image with the cost model's
    :func:`repro.device.http_wire_bytes` prediction, so BENCH JSON can
    hold the model to account without booting a socket server.
    """
    from repro.device import http_wire_bytes
    from repro.serving.http import array_to_b64_npy, npy_bytes

    total = 0
    for image, result in zip(images, results):
        pixels = image.pixels if hasattr(image, "pixels") else image
        if wire == "raw":
            total += len(npy_bytes(pixels)) + len(npy_bytes(result.labels))
        elif wire == "npy":
            total += len(array_to_b64_npy(pixels)) + len(
                array_to_b64_npy(result.labels)
            )
        else:  # json: decimal text of both nested lists
            total += len(json.dumps(pixels.tolist())) + len(
                json.dumps(result.labels.tolist())
            )
    pixels = images[0].pixels if hasattr(images[0], "pixels") else images[0]
    height, width = pixels.shape[:2]
    channels = pixels.shape[2] if pixels.ndim == 3 else 1
    return {
        "form": wire,
        "measured_bytes_per_image": total / max(1, len(images)),
        "modeled_bytes_per_image": http_wire_bytes(
            height, width, channels=channels, wire=wire
        ),
    }


def _run_serve_bench(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.device import RASPBERRY_PI_4, EdgeDeviceSimulator, seghdc_cost
    from repro.serving import SegmentationServer

    dataset = make_dataset(
        args.dataset,
        num_images=args.images,
        image_shape=(args.height, args.width),
        seed=0,
    )
    images = [sample.image for sample in dataset]
    spec = _segmenter_spec_from_args(args)
    batch_size = args.batch_size
    if batch_size is None:
        batch_size = 1 if args.mode == "thread" else 4

    serial_segmenter = make_segmenter(spec)
    serial_start = time.perf_counter()
    serial_results = serial_segmenter.segment_batch(images)
    serial_seconds = time.perf_counter() - serial_start
    serial_ips = len(images) / serial_seconds

    with SegmentationServer(
        spec,
        mode=args.mode,
        num_workers=args.workers,
        max_batch_size=batch_size,
        use_shared_memory=args.transport != "pickle",
    ) as server:
        server_start = time.perf_counter()
        server_results = server.segment_batch(images)
        server_seconds = time.perf_counter() - server_start
        stats = server.stats()
    server_ips = len(images) / server_seconds
    # What the images actually rode, read back from the per-path counters
    # ("shm" may resolve to "pickle" when /dev/shm is unusable or images
    # exceed the slot size — the fallback ladder, not a config echo).
    transport_stats = stats.as_dict()["transport"]
    resolved_transport = max(
        transport_stats,
        key=lambda path: transport_stats[path]["images"],
        default="none",
    )
    if args.transport == "shm" and resolved_transport != "shm":
        print(
            f"WARNING: --transport shm requested but images rode "
            f"{resolved_transport!r} (oversize images or no usable /dev/shm)"
        )

    mismatches = sum(
        not np.array_equal(serial.labels, served.labels)
        for serial, served in zip(serial_results, server_results)
    )
    config = getattr(serial_segmenter, "config", None)
    # Resolved values come from the *served* workload, not the request-side
    # flags: the same CLI invocation (one config dict) is reused across
    # backends in CI, and the workload records what the engine actually ran
    # — backend name plus its capabilities() (tunables included).
    served_workload = server_results[0].workload if server_results else {}
    backend = served_workload.get("backend", getattr(config, "backend", None))
    backend_capabilities = served_workload.get("backend_capabilities")
    dimension = served_workload.get(
        "dimension", getattr(config, "dimension", None)
    )

    print(
        f"serve-bench segmenter={spec['segmenter']} mode={args.mode} "
        f"workers={args.workers} images={len(images)} "
        f"shape={args.height}x{args.width}"
        + (f" backend={backend} d={dimension}" if backend else "")
    )
    print(
        f"serial  : {serial_ips:8.2f} images/s  ({serial_seconds:.2f}s total)"
    )
    print(
        f"server  : {server_ips:8.2f} images/s  ({server_seconds:.2f}s total)"
        f"  speedup={server_ips / serial_ips:.2f}x"
    )
    latency = stats.latency
    print(
        f"latency : p50={latency['p50'] * 1000:.1f}ms "
        f"p90={latency['p90'] * 1000:.1f}ms p99={latency['p99'] * 1000:.1f}ms"
    )
    print(
        f"batches : {stats.batches_dispatched} dispatched, "
        f"mean size {stats.mean_batch_size:.2f}, "
        f"cache hit rate {stats.cache['hit_rate']:.2f}"
    )
    transport_bpi = transport_stats.get(resolved_transport, {}).get(
        "bytes_per_image", 0.0
    )
    print(
        f"transport: {resolved_transport} "
        f"({transport_bpi:.0f} serialized bytes/image worker-bound"
        + (
            ", zero pickled pixel bytes"
            if resolved_transport == "shm"
            else ""
        )
        + ")"
    )
    wire = _measure_wire_bytes(args.wire, images, server_results)
    print(
        f"wire    : {args.wire} = {wire['measured_bytes_per_image']:.0f} "
        f"measured bytes/image "
        f"(model: {wire['modeled_bytes_per_image']:.0f})"
    )

    modeled = None
    if spec["segmenter"] == "seghdc":
        cost = seghdc_cost(
            args.height,
            args.width,
            dimension=config.dimension,
            num_clusters=config.num_clusters,
            num_iterations=config.num_iterations,
            backend=config.backend,
            # The modeled line must describe the configuration actually
            # benchmarked, bundling tunables included.
            counter_depth=config.counter_depth,
            bundle_chunk_rows=config.bundle_chunk_rows,
        )
        modeled = EdgeDeviceSimulator(RASPBERRY_PI_4).estimate_serving(
            cost, num_workers=args.workers, strict=False
        )
        print(
            f"modeled : {modeled.images_per_second:.2f} images/s on "
            f"{RASPBERRY_PI_4.name} ({modeled.bottleneck}-bound, "
            f"{modeled.speedup:.2f}x over one worker)"
        )
    if mismatches:
        print(f"PARITY FAILURE: {mismatches} label maps differ from serial")
    if args.output:
        payload = {
            "segmenter": spec,
            "mode": args.mode,
            "workers": args.workers,
            "batch_size": batch_size,
            "backend": backend,
            "images": len(images),
            "height": args.height,
            "width": args.width,
            "dimension": dimension,
            "backend_capabilities": backend_capabilities,
            # Read from the built config, not the flags: --config-json can
            # set the iteration count without touching --iterations.
            "iterations": getattr(
                config, "num_iterations", getattr(config, "max_iterations", None)
            ),
            "serial_images_per_second": serial_ips,
            "server_images_per_second": server_ips,
            "speedup": server_ips / serial_ips,
            "parity_mismatches": mismatches,
            "transport": {
                "requested": args.transport,
                "resolved": resolved_transport,
                "bytes_per_image": transport_bpi,
                "by_path": transport_stats,
            },
            "wire": wire,
            "stats": stats.as_dict(),
        }
        if modeled is not None:
            payload["modeled_pi4"] = {
                "images_per_second": modeled.images_per_second,
                "latency_seconds": modeled.latency_seconds,
                "speedup": modeled.speedup,
                "bottleneck": modeled.bottleneck,
            }
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2))
        print(f"benchmark JSON written to {path}")
    return 1 if mismatches else 0


def _run_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.api import ServingOptions
    from repro.serving import SegmentationHTTPServer, SpecWatcher

    spec = _segmenter_spec_from_args(args)
    batch_size = args.batch_size
    if batch_size is None:
        batch_size = 1 if args.mode == "thread" else 4
    options = ServingOptions(
        mode=args.mode,
        num_workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        max_batch_size=batch_size,
        use_shared_memory=not args.no_shm,
        share_grid_cache=not args.no_shared_grids,
    )
    with SegmentationHTTPServer(
        spec,
        host=args.host,
        port=args.port,
        serving=options,
        allow_reconfig=args.allow_reconfig,
    ) as server:
        # Machine-parsable bound-port line, printed first and flushed: with
        # --port 0 the kernel picks the port, and supervisors/smoke tests
        # read it back from this line instead of racing for a free one.
        print(f"SEGHDC_SERVE_PORT={server.bound_port}", flush=True)
        print(
            f"seghdc serve: {spec['segmenter']} on "
            f"http://{server.host}:{server.port} "
            f"({args.mode} x{args.workers}, batch<={batch_size})",
            flush=True,
        )
        print(
            "endpoints: POST /v1/segment  POST /v1/segment-stream  "
            "POST /v1/run-spec  GET /v1/segmenters  GET /healthz  GET /stats"
            + ("  POST /v1/config" if args.allow_reconfig else ""),
            flush=True,
        )
        watcher = None
        if args.watch_spec is not None:
            # The watcher goes through the operator's own file, so it works
            # with or without --allow-reconfig (which gates the *network*
            # reconfiguration path only).
            def _print_outcome(outcome: dict) -> None:
                print(f"watch-spec: {outcome}", flush=True)

            watcher = SpecWatcher(
                server.control,
                args.watch_spec,
                interval=args.watch_interval,
                on_outcome=_print_outcome,
            ).start()
            print(
                f"watching {args.watch_spec} every {args.watch_interval}s "
                "for config changes",
                flush=True,
            )
        # SIGTERM (docker stop, CI teardown) must shut the worker pool down
        # like Ctrl-C does: an abrupt exit would orphan process-mode
        # workers, which keep inherited pipes open and hang supervisors
        # waiting for EOF on our stdout.
        def _terminate(signum, frame):
            raise KeyboardInterrupt

        previous_handler = signal.signal(signal.SIGTERM, _terminate)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", flush=True)
        finally:
            signal.signal(signal.SIGTERM, previous_handler)
            if watcher is not None:
                watcher.stop()
    return 0


def _replica_serve_args(args: argparse.Namespace) -> list:
    """The ``seghdc serve`` flags every replica subprocess inherits.

    Forwards the fleet-relevant spec flags verbatim; sentinel-defaulted
    options (``--dimension``/``--iterations``/``--backend``) are only
    forwarded when explicitly passed, so each replica applies the same
    defaults ``seghdc serve`` would.
    """
    forwarded = [
        "--mode",
        args.mode,
        "--workers",
        str(args.workers),
        "--dataset",
        args.dataset,
        "--height",
        str(args.height),
        "--width",
        str(args.width),
    ]
    for flag, value in (
        ("--dimension", args.dimension),
        ("--iterations", args.iterations),
        ("--backend", args.backend),
    ):
        if value is not None:
            forwarded += [flag, str(value)]
    if args.segmenter != "seghdc":
        forwarded += ["--segmenter", args.segmenter]
    if args.config_json is not None:
        forwarded += ["--config-json", args.config_json]
    return forwarded


def _run_cluster(args: argparse.Namespace) -> int:
    import signal

    from repro.serving.cluster import ClusterGateway, ReplicaSupervisor

    gateway = ClusterGateway(
        host=args.host, port=args.port, probe_interval=args.probe_interval
    )
    supervisor = ReplicaSupervisor(
        gateway,
        replicas=args.replicas,
        replica_args=_replica_serve_args(args),
        max_restarts=args.max_restarts,
    )
    # Same machine-parsable contract as `seghdc serve`: the gateway's bound
    # port comes first, flushed, before the slow part (booting replicas).
    print(f"SEGHDC_GATEWAY_PORT={gateway.bound_port}", flush=True)
    try:
        supervisor.start()
        gateway.wait_ready(timeout=120.0)
        print(
            f"seghdc cluster: gateway on http://{gateway.host}:{gateway.port} "
            f"over {args.replicas} replicas ({args.mode} x{args.workers} "
            "each)",
            flush=True,
        )
        for replica_id, facts in supervisor.snapshot().items():
            print(
                f"  {replica_id}: http://127.0.0.1:{facts['port']} "
                f"(pid {facts['pid']})",
                flush=True,
            )

        def _terminate(signum, frame):
            raise KeyboardInterrupt

        previous_handler = signal.signal(signal.SIGTERM, _terminate)
        try:
            gateway.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", flush=True)
        finally:
            signal.signal(signal.SIGTERM, previous_handler)
    finally:
        supervisor.stop()
        gateway.close()
    return 0


def _run_cluster_bench(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving.cluster import (
        ClusterGateway,
        ReplicaClient,
        ReplicaSupervisor,
    )

    # Three distinct shapes exercise the affinity boundary: with a healthy
    # ring each shape's position grid is built on exactly one replica, so
    # fleet-wide builds == 3 regardless of replica count or request volume.
    shapes = [
        (args.height, args.width),
        (args.height + 16, args.width + 16),
        (args.height + 32, args.width + 32),
    ]
    rng = np.random.default_rng(0)
    images = [
        rng.integers(0, 256, size=shapes[i % len(shapes)], dtype=np.uint8)
        for i in range(args.images)
    ]
    gateway = ClusterGateway(port=0, probe_interval=0.2)
    supervisor = ReplicaSupervisor(
        gateway,
        replicas=args.replicas,
        replica_args=_replica_serve_args(args),
    )
    try:
        gateway.start()
        supervisor.start()
        gateway.wait_ready(timeout=120.0)
        with ReplicaClient("gateway", gateway.host, gateway.port) as client:
            latencies = []
            start = time.perf_counter()
            for image in images:
                request_start = time.perf_counter()
                client.segment_raw([image])
                latencies.append(time.perf_counter() - request_start)
            total_seconds = time.perf_counter() - start
            # The fleet rollup rides the prober's cached snapshots; one
            # explicit round makes them current before the read.
            gateway.prober.probe_all()
            stats = client.get_json("/stats")
    finally:
        supervisor.stop()
        gateway.close()

    rps = len(images) / total_seconds
    p50, p99 = np.percentile(np.asarray(latencies), [50.0, 99.0])
    per_replica = stats["fleet"]["per_replica"]
    builds = {
        replica_id: (entry or {}).get("position_grid_builds", 0)
        for replica_id, entry in per_replica.items()
    }
    total_builds = sum(builds.values())
    routing = stats["gateway"]["routing_table"]
    affinity_ok = total_builds == len(shapes)

    print(
        f"cluster-bench replicas={args.replicas} images={len(images)} "
        f"shapes={len(shapes)} mode={args.mode} workers={args.workers}"
    )
    print(
        f"throughput: {rps:8.2f} requests/s  "
        f"p50={p50 * 1000:.1f}ms p99={p99 * 1000:.1f}ms"
    )
    print(
        "grid builds: "
        + ", ".join(f"{rid}={count}" for rid, count in sorted(builds.items()))
        + f"  (fleet total {total_builds}, shapes {len(shapes)}"
        + (", affinity holds)" if affinity_ok else ", AFFINITY VIOLATED)")
    )
    for shape_label, replica_id in sorted(routing.items()):
        print(f"routing: {shape_label} -> {replica_id}")
    if args.output:
        payload = {
            "replicas": args.replicas,
            "images": len(images),
            "shapes": ["x".join(map(str, shape)) for shape in shapes],
            "mode": args.mode,
            "workers": args.workers,
            "requests_per_second": rps,
            "latency": {"p50": float(p50), "p99": float(p99)},
            "grid_builds_per_replica": builds,
            "grid_builds_total": total_builds,
            "affinity_holds": affinity_ok,
            "routing_table": routing,
            "failovers": stats["gateway"]["failovers"],
            "fleet": stats["fleet"],
        }
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2))
        print(f"benchmark JSON written to {path}")
    return 0 if affinity_ok else 1


def _run_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import (
        HttpTarget,
        LoadGenerator,
        ResultFolder,
        ShapeMix,
        make_schedule,
    )

    if args.url is None:
        from repro.loadgen.experiments import run_experiments

        meta = run_experiments(out_dir=args.out_dir, quick=args.quick)
        for name, summary in sorted(meta["scenarios"].items()):
            print(
                f"{name}: issued={summary['issued']} "
                f"ok={summary['by_status'].get('ok', 0)} "
                f"lost={summary['lost']} dup={summary['duplicated']} "
                f"sustained={summary['sustained_rps']:.1f} rps "
                f"p99={summary['latency']['p99'] * 1000:.0f}ms "
                f"slo_violation_s={summary.get('slo_violation_seconds')}"
            )
        print(f"results in {meta['result_dir']}")
        print("BENCH " + json.dumps(meta, default=str))
        if args.output:
            path = Path(args.output)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(meta, indent=2, default=str) + "\n")
            print(f"benchmark JSON written to {path}")
        return 0 if meta["exactly_once"] else 1

    host, _, port_text = args.url.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(
            f"seghdc: error: --url must be HOST:PORT, got {args.url!r}"
        )
    if args.schedule == "constant":
        spec = {"kind": "constant", "rate": args.rate, "duration": args.duration}
    elif args.schedule == "step":
        spec = {
            "kind": "step",
            "phases": [
                {"rate": args.rate, "duration": args.duration / 2},
                {"rate": 2 * args.rate, "duration": args.duration / 2},
            ],
        }
    elif args.schedule == "ramp":
        spec = {
            "kind": "ramp",
            "start_rate": args.rate,
            "end_rate": args.end_rate or 2 * args.rate,
            "duration": args.duration,
        }
    else:
        spec = {
            "kind": "poisson",
            "rate": args.rate,
            "duration": args.duration,
            "seed": args.seed,
        }
    schedule = make_schedule(spec)
    mix = ShapeMix.parse(args.mix, seed=args.seed)
    folder = ResultFolder(args.out_dir, "loadgen")
    with HttpTarget(
        host,
        int(port_text),
        request_timeout=60.0,
        pool_size=args.concurrency,
    ) as target:
        report = LoadGenerator(
            target,
            schedule,
            mix,
            mode=args.loop,
            concurrency=args.concurrency,
            stats_interval=0.2,
        ).run()
    summary = report.summary(slo_p99_seconds=args.slo)
    folder.write_run(
        folder.new_run(),
        summary=summary,
        requests=report.requests_as_dicts(),
    )
    folder.write_meta({"command": "loadgen", "url": args.url, "summary": summary})
    print(
        f"loadgen {args.loop}-loop {args.schedule} rate={args.rate}/s "
        f"duration={args.duration}s -> {args.url}"
    )
    print(
        f"issued={summary['issued']} ok={summary['by_status'].get('ok', 0)} "
        f"lost={summary['lost']} dup={summary['duplicated']} "
        f"sustained={summary['sustained_rps']:.1f} rps "
        f"p50={summary['latency']['p50'] * 1000:.0f}ms "
        f"p99={summary['latency']['p99'] * 1000:.0f}ms "
        f"slo_violation_s={summary['slo_violation_seconds']}"
    )
    print(f"results in {folder.path}")
    print("BENCH " + json.dumps(summary, default=str))
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
        print(f"benchmark JSON written to {path}")
    return 0 if summary["lost"] == 0 and summary["duplicated"] == 0 else 1


def _run_tile(args: argparse.Namespace) -> int:
    import contextlib

    import numpy as np

    from repro.api.result import SegmentationResult
    from repro.imaging.image import to_grayscale
    from repro.tiling import TiledConfig, TiledSegmenter, blob_field, canonical_labels

    try:
        tile_height_text, tile_width_text = args.tile.lower().split("x")
        tile_shape = (int(tile_height_text), int(tile_width_text))
    except ValueError:
        raise SystemExit(
            f"seghdc: error: --tile must be HxW, got {args.tile!r}"
        ) from None
    base_config = {}
    if args.base_config_json:
        try:
            base_config = json.loads(args.base_config_json)
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"seghdc: error: --base-config-json is not valid JSON: {exc}"
            ) from None
        if not isinstance(base_config, dict):
            raise SystemExit(
                "seghdc: error: --base-config-json must be a JSON object"
            )
    if args.base == "seghdc":
        base_config.setdefault(
            "dimension", args.dimension if args.dimension is not None else 1024
        )
        base_config.setdefault(
            "num_iterations",
            args.iterations if args.iterations is not None else 10,
        )
        if args.backend is not None:
            base_config.setdefault("backend", args.backend)
    elif (
        args.dimension is not None
        or args.iterations is not None
        or args.backend is not None
    ):
        raise SystemExit(
            "seghdc: error: --dimension/--iterations/--backend configure a "
            "seghdc base; use --base-config-json for other bases"
        )
    config = TiledConfig(
        base=args.base,
        base_config=base_config,
        tile_height=tile_shape[0],
        tile_width=tile_shape[1],
        overlap=args.overlap,
        connectivity=args.connectivity,
    )
    image = blob_field(
        args.height, args.width, spacing=args.spacing, seed=args.seed
    )
    base_spec = {"segmenter": config.base, "config": dict(config.base_config)}

    with contextlib.ExitStack() as stack:
        runner = None
        runner_name = "serial"
        if args.url is not None:
            from repro.serving.cluster import ReplicaClient

            host, _, port_text = args.url.rpartition(":")
            if not host or not port_text.isdigit():
                raise SystemExit(
                    f"seghdc: error: --url must be HOST:PORT, got {args.url!r}"
                )
            client = stack.enter_context(
                ReplicaClient("tile-target", host, int(port_text))
            )
            runner_name = f"url:{args.url}"

            def runner(tiles):
                label_maps = client.segment_raw(list(tiles))
                return [
                    SegmentationResult(
                        labels=labels,
                        elapsed_seconds=0.0,
                        num_clusters=int(np.unique(labels).size),
                    )
                    for labels in label_maps
                ]

        elif args.runner == "server":
            from repro.serving.server import SegmentationServer

            server = stack.enter_context(
                SegmentationServer(
                    base_spec,
                    mode="thread",
                    num_workers=args.workers,
                    max_batch_size=1,
                )
            )
            runner_name = f"server:{args.workers}"

            def runner(tiles):
                ordered = [None] * len(tiles)
                for index, result in server.map(tiles):
                    ordered[index] = result
                return ordered

        segmenter = TiledSegmenter(config, tile_runner=runner)
        result, stitched = segmenter.segment_instances(image)

    tiling = result.workload["tiling"]
    print(
        f"tile {args.height}x{args.width} -> "
        f"{tiling['grid_shape'][0]}x{tiling['grid_shape'][1]} tiles of "
        f"{tiling['tile_shape'][0]}x{tiling['tile_shape'][1]} "
        f"(overlap={config.overlap}, runner={runner_name})"
    )
    print(
        f"stitched: {stitched.num_segments} segments from "
        f"{tiling['pre_merge_components']} per-tile components "
        f"({tiling['seam_merges']} seam merges, "
        f"connectivity={config.connectivity})"
    )
    print(
        f"timing: {result.elapsed_seconds:.2f}s wall "
        f"({result.workload['tile_seconds']:.2f}s summed tile compute, "
        f"{result.workload['stitch_seconds']:.3f}s stitch)"
    )
    parity = None
    if args.check_parity:
        direct = make_segmenter(base_spec).segment(image)
        reference = canonical_labels(direct.labels, to_grayscale(image))
        parity = bool(np.array_equal(result.labels, reference))
        mismatched = int(np.count_nonzero(result.labels != reference))
        print(
            "parity vs direct whole-image run: "
            + ("BIT-EXACT" if parity else f"MISMATCH ({mismatched} pixels)")
        )
    payload = {
        "image_shape": [args.height, args.width],
        "runner": runner_name,
        "base_spec": base_spec,
        "tiling": dict(tiling),
        "num_segments": stitched.num_segments,
        "elapsed_seconds": result.elapsed_seconds,
        "tile_seconds": result.workload["tile_seconds"],
        "stitch_seconds": result.workload["stitch_seconds"],
        "parity_checked": bool(args.check_parity),
        "parity_bit_exact": parity,
    }
    print("BENCH " + json.dumps(payload))
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"benchmark JSON written to {path}")
    return 0 if parity is not False else 1


def _run_video_bench(args: argparse.Namespace) -> int:
    from repro.seghdc import synthetic_video, warm_start_cut

    config_kwargs = {
        "dimension": args.dimension,
        "num_iterations": args.iterations,
        "beta": args.beta,
    }
    if args.backend is not None:
        config_kwargs["backend"] = args.backend
    config = SegHDCConfig(**config_kwargs)
    frames = synthetic_video(
        args.frames,
        args.height,
        args.width,
        num_blobs=args.blobs,
        radius=args.radius,
        step=args.step,
        noise=args.noise,
        seed=args.seed,
    )
    report = warm_start_cut(frames, config)
    cold = report["cold"]
    warm = report["warm"]
    print(
        f"video-bench {args.frames} frames {args.height}x{args.width} "
        f"dim={args.dimension} budget={args.iterations} iters/frame"
    )
    print(
        f"cold: mean {cold['mean_iterations']:.2f} iters/frame "
        f"{cold['iterations_per_frame']}"
    )
    print(
        f"warm: mean {warm['mean_iterations']:.2f} iters/frame "
        f"{warm['iterations_per_frame']} "
        f"({warm['frames_warm_started']}/{args.frames} frames warm-started)"
    )
    print(
        f"cut: {report['iteration_cut']:.2f} iters/frame "
        f"({report['iteration_cut_ratio']:.0%} of the cold budget)"
    )
    print("BENCH " + json.dumps(report))
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"benchmark JSON written to {path}")
    return 0 if warm["mean_iterations"] < cold["mean_iterations"] else 1


def _run_autoscale_bench(args: argparse.Namespace) -> int:
    import os as _os
    import signal as _signal

    from repro.api.registry import make_segmenter
    from repro.device.cost_model import recommend_workers, seghdc_cost
    from repro.loadgen import (
        LoadGenerator,
        ResultFolder,
        ServerTarget,
        ShapeMix,
        make_schedule,
    )
    from repro.loadgen.chaos import ChaosEvent, ChaosInjector
    from repro.seghdc import SegHDCConfig
    from repro.serving.autoscale import (
        AutoscalePolicy,
        Autoscaler,
        ControlPlaneActuator,
        observe_control,
    )
    from repro.serving.control import ControlPlane

    dimension = (
        args.dimension if args.dimension is not None else args.dimension_default
    )
    iterations = (
        args.iterations
        if args.iterations is not None
        else args.iterations_default
    )
    config = (
        SegHDCConfig.paper_defaults("dsb2018")
        .with_overrides(dimension=dimension, num_iterations=iterations)
        .scaled_for_shape(args.height, args.width)
    )
    spec = {"segmenter": "seghdc", "config": config.to_dict()}
    mix = ShapeMix([((args.height, args.width), 1.0)], seed=3)

    # Measure the serial rate on THIS machine: the cost model's absolute
    # device numbers don't describe the CI runner, so the prediction is
    # calibrated by attributing the whole measured per-image time to the
    # compute term (it multiplies with workers up to the core count; the
    # measured rate already folds in this machine's memory behaviour).
    probe = make_segmenter(spec)
    probe.segment(mix.image_for(0))  # warm: position grid build
    probe_rounds = 5
    serial_start = time.perf_counter()
    for index in range(1, probe_rounds + 1):
        probe.segment(mix.image_for(index))
    serial_rate = probe_rounds / (time.perf_counter() - serial_start)

    rate1 = args.rate if args.rate is not None else 0.8 * serial_rate
    rate2 = 2 * rate1
    cost = seghdc_cost(
        args.height,
        args.width,
        dimension=config.dimension,
        num_clusters=config.num_clusters,
        num_iterations=config.num_iterations,
        backend=config.backend,
        counter_depth=config.counter_depth,
        bundle_chunk_rows=config.bundle_chunk_rows,
    )
    # Containers routinely under-report cpu_count (cgroup quotas aren't
    # affinity), so the recommendation assumes parallelism up to the
    # autoscaler's own bound; the predicted-vs-converged check below then
    # measures how true that assumption was on this machine.
    cores = max(_os.cpu_count() or 1, args.max_workers)
    recommendation = recommend_workers(
        cost,
        target_images_per_second=rate2,
        compute_throughput_flops=cost.operations * serial_rate,
        memory_bandwidth_bytes=1e18,  # folded into the calibrated compute term
        num_cores=cores,
        max_workers=args.max_workers,
    )
    print(
        f"serial rate: {serial_rate:.2f} images/s measured; load "
        f"{rate1:.1f} -> {rate2:.1f} rps; predicted workers for peak: "
        f"{recommendation.num_workers} (feasible={recommendation.feasible})"
    )

    control = ControlPlane(
        spec,
        {
            "mode": "process",
            "num_workers": 1,
            "max_queue_depth": 512,
            "max_batch_size": 4,
        },
    )
    schedule = make_schedule(
        {
            "kind": "step",
            "phases": [
                {"rate": rate1, "duration": args.phase_seconds},
                {"rate": rate2, "duration": args.phase_seconds},
            ],
        }
    )
    policy = AutoscalePolicy(
        slo_p99_seconds=args.slo,
        min_workers=1,
        max_workers=args.max_workers,
        breach_rounds=2,
        calm_rounds=1000,  # no scale-down inside a two-phase bench
        cooldown_seconds=2.0,
        min_samples=4,
    )

    def kill_worker(_target) -> dict:
        pids = control.server.worker_pids()
        if not pids:
            return {"note": "no live worker processes to kill"}
        _os.kill(pids[0], _signal.SIGKILL)
        return {"killed_pid": pids[0]}

    injector = ChaosInjector(
        [ChaosEvent(0.45 * schedule.duration, "kill-worker")],
        {"kill-worker": kill_worker},
    )
    folder = ResultFolder(args.out_dir, "autoscale-bench")
    try:
        control.submit(mix.image_for(0), block=True).result(120.0)
        with Autoscaler(
            observe_control(control),
            ControlPlaneActuator(control),
            policy,
            predictor=lambda obs: recommendation.num_workers,
        ).start(interval=0.25) as autoscaler:
            with injector:
                report = LoadGenerator(
                    ServerTarget(control, request_timeout=60.0),
                    schedule,
                    mix,
                    mode="open",
                    concurrency=args.concurrency,
                    stats_interval=0.1,
                ).run()
        scaler = autoscaler.summary()
    finally:
        control.close(drain=False)

    summary = report.summary(slo_p99_seconds=args.slo)
    converged = scaler["converged_workers"]
    payload = {
        "benchmark": "autoscale-bench",
        "segmenter": spec,
        "serial_images_per_second": serial_rate,
        "rates": {"phase1": rate1, "phase2": rate2},
        "phase_seconds": args.phase_seconds,
        "slo_p99_seconds": args.slo,
        "issued": summary["issued"],
        "responses": summary["responses"],
        "lost": summary["lost"],
        "duplicated": summary["duplicated"],
        "by_status": summary["by_status"],
        "sustained_rps": summary["sustained_rps"],
        "latency": summary["latency"],
        "slo_violation_seconds": summary["slo_violation_seconds"],
        "max_queue_depth": summary["max_queue_depth"],
        "autoscaler": scaler,
        "chaos": list(injector.injected),
        "prediction": {
            **recommendation.as_dict(),
            "converged_workers": converged,
            "tolerance": 1,
            "within_tolerance": abs(converged - recommendation.num_workers)
            <= 1,
        },
    }
    folder.write_run(
        folder.new_run(),
        summary=payload,
        requests=report.requests_as_dicts(),
        events=list(injector.injected)
        + [
            dict(d, source="autoscaler")
            for d in autoscaler.decisions
            if d.get("action") not in (None, "hold")
        ],
    )
    folder.write_meta(payload)
    print(
        f"autoscale-bench: issued={payload['issued']} lost={payload['lost']} "
        f"dup={payload['duplicated']} "
        f"p99={summary['latency']['p99'] * 1000:.0f}ms "
        f"slo_violation_s={payload['slo_violation_seconds']} "
        f"scale_ups={scaler['scale_ups']} heals={scaler['heals']} "
        f"workers: predicted={recommendation.num_workers} "
        f"converged={converged}"
    )
    print(f"results in {folder.path}")
    print("BENCH " + json.dumps(payload, default=str))
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        print(f"benchmark JSON written to {path}")
    return 0 if payload["lost"] == 0 and payload["duplicated"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        print("experiments:", ", ".join(available_experiments()))
        print("datasets:", ", ".join(available_datasets()))
        print("segmenters:", ", ".join(available_segmenters()))
        backends = []
        for name in available_backends():
            caps = make_backend(name).capabilities()
            details = [caps["storage"]] if "storage" in caps else []
            if caps["tunables"]:
                details.append(
                    ", ".join(
                        f"{key}={value}"
                        for key, value in sorted(caps["tunables"].items())
                    )
                )
            backends.append(
                f"{name} [{'; '.join(details)}]" if details else name
            )
        print("backends:", ", ".join(backends))
        return 0
    if args.command == "segment":
        return _run_segment(args)
    if args.command == "run":
        return _run_spec_command(args)
    if args.command == "serve-bench":
        return _run_serve_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cluster":
        return _run_cluster(args)
    if args.command == "cluster-bench":
        return _run_cluster_bench(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    if args.command == "tile":
        return _run_tile(args)
    if args.command == "video-bench":
        return _run_video_bench(args)
    if args.command == "autoscale-bench":
        return _run_autoscale_bench(args)
    scale = ExperimentScale.from_name(args.scale)
    result = run_experiment(
        args.command,
        scale=scale,
        output_dir=args.output_dir,
        backend=args.backend,
    )
    if hasattr(result, "to_table"):
        print(result.to_table().to_markdown())
    elif hasattr(result, "to_tables"):
        for table in result.to_tables():
            print(table.to_markdown())
            print()
    else:
        print(result)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
