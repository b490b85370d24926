"""Command-line interface: ``python -m repro.cli <experiment>`` or ``seghdc``.

Examples::

    seghdc list
    seghdc table1 --scale quick --output-dir results/
    seghdc figure7 --scale paper --output-dir results/
    seghdc segment --dataset dsb2018 --output-dir results/
    seghdc segment --segmenter cnn_baseline --iterations 30
    seghdc serve --port 8080 --mode process --workers 4
    seghdc cluster --replicas 2 --port 8080
    seghdc loadgen --url 127.0.0.1:8080 --schedule ramp --duration 5
    seghdc tile --height 384 --width 384 --tile 128x128 --check-parity
    seghdc run --spec examples/run_spec.json

The CLI operates the system; measuring it is the job of one harness,
``python3 perfbench/run.py`` (see ``BENCHMARK.json``), plus the CI smoke
drivers under ``tools/`` (``http_smoke.py``, ``cluster_smoke.py``,
``scenario_smoke.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.api import (
    RunSpec,
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

    http_parser = subparsers.add_parser(
        "serve",
        help="serve segmentation over HTTP (POST /v1/segment, "
        "/v1/segment-stream, /v1/config with --allow-reconfig; "
        "GET /v1/segmenters, /healthz, /stats)",
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
        help="micro-batch bound; defaults to 1 in thread mode (a larger "
        "batch funnels a same-shape burst onto one worker) and 4 in "
        "process mode (each worker amortises its own grid build)",
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
        "--output", default=None, help="also write the summary JSON here"
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
    if args.index < 0:
        raise SystemExit(
            f"seghdc: error: --index must be non-negative, got {args.index}"
        )
    try:
        dataset = make_dataset(
            args.dataset,
            num_images=args.index + 1,
            image_shape=(args.height, args.width),
            seed=0,
        )
    except ValueError as exc:
        raise SystemExit(f"seghdc: error: {exc}") from None
    sample = dataset[args.index]
    spec = _segmenter_spec_from_args(args)
    try:
        segmenter = make_segmenter(spec)
    except ValueError as exc:
        raise SystemExit(f"seghdc: error: {exc}") from None
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
    # Only reading and validating the spec is a usage error; the run itself
    # keeps its tracebacks.
    try:
        run_spec = RunSpec.load(args.spec)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"seghdc: error: --spec {args.spec} is not valid JSON: {exc}"
        ) from None
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"seghdc: error: {exc}") from None
    payload = execute_run_spec(run_spec, output=args.output)
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


def _run_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.api import ServingOptions
    from repro.serving import SegmentationHTTPServer, SpecWatcher

    def _print_outcome(outcome: dict) -> None:
        print(f"watch-spec: {outcome}", flush=True)

    spec = _segmenter_spec_from_args(args)
    batch_size = args.batch_size
    if batch_size is None:
        batch_size = 1 if args.mode == "thread" else 4
    with contextlib.ExitStack() as stack:
        try:
            options = ServingOptions(
                mode=args.mode,
                num_workers=args.workers,
                max_queue_depth=args.max_queue_depth,
                max_batch_size=batch_size,
            )
            server = stack.enter_context(
                SegmentationHTTPServer(
                    spec,
                    host=args.host,
                    port=args.port,
                    serving=options,
                    allow_reconfig=args.allow_reconfig,
                )
            )
            # The watcher goes through the operator's own file, so it works
            # with or without --allow-reconfig (which gates the *network*
            # reconfiguration path only).  It needs the server's control
            # plane, so it is built right after the bind and before the
            # port line: a refused flag never announces a port.
            watcher = None
            if args.watch_spec is not None:
                watcher = SpecWatcher(
                    server.control,
                    args.watch_spec,
                    interval=args.watch_interval,
                    on_outcome=_print_outcome,
                )
        except ValueError as exc:
            raise SystemExit(f"seghdc: error: {exc}") from None
        # Machine-parsable bound-port line, printed first and flushed: with
        # --port 0 the kernel picks the port, and supervisors/smoke tests
        # read it back from this line instead of racing for a free one.
        print(f"SEGHDC_SERVE_PORT={server.port}", flush=True)
        print(
            f"seghdc serve: {spec['segmenter']} on "
            f"http://{server.host}:{server.port} "
            f"({args.mode} x{args.workers}, batch<={batch_size})",
            flush=True,
        )
        print(
            "endpoints: POST /v1/segment  POST /v1/segment-stream  "
            "GET /v1/segmenters  GET /healthz  GET /stats"
            + ("  POST /v1/config" if args.allow_reconfig else ""),
            flush=True,
        )
        if watcher is not None:
            watcher.start()
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

    with contextlib.ExitStack() as stack:
        try:
            gateway = stack.enter_context(
                ClusterGateway(
                    host=args.host,
                    port=args.port,
                    probe_interval=args.probe_interval,
                )
            )
            # The supervisor registers replicas with the bound gateway, so
            # it is built right after the bind and before the port line.
            supervisor = ReplicaSupervisor(
                gateway,
                replicas=args.replicas,
                replica_args=_replica_serve_args(args),
                max_restarts=args.max_restarts,
            )
        except ValueError as exc:
            raise SystemExit(f"seghdc: error: {exc}") from None
        stack.callback(supervisor.stop)
        # Same machine-parsable contract as `seghdc serve`: the gateway's
        # bound port comes first, flushed, before the slow part (booting
        # replicas).
        print(f"SEGHDC_GATEWAY_PORT={gateway.port}", flush=True)
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
    return 0


def _parse_host_port(url: str) -> "tuple[str, int]":
    """Split a ``--url HOST:PORT`` value, refusing anything else.

    The HTTP clients behind ``--url`` take a bare host and port, so a
    scheme prefix (``http://...``) or an empty host/port is a usage error
    here rather than a run where every request fails.
    """
    host, _, port_text = url.rpartition(":")
    if "://" in url or not host or not port_text.isdigit():
        raise SystemExit(
            f"seghdc: error: --url must be HOST:PORT (no scheme), got {url!r}"
        )
    return host, int(port_text)


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
        if args.output:
            path = Path(args.output)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(meta, indent=2, default=str) + "\n")
            print(f"summary JSON written to {path}")
        return 0 if meta["exactly_once"] else 1

    host, port = _parse_host_port(args.url)
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
    try:
        schedule = make_schedule(spec)
        mix = ShapeMix.parse(args.mix, seed=args.seed)
        target = HttpTarget(
            host, port, request_timeout=60.0, pool_size=args.concurrency
        )
        generator = LoadGenerator(
            target,
            schedule,
            mix,
            mode=args.loop,
            concurrency=args.concurrency,
            stats_interval=0.2,
        )
    except ValueError as exc:
        raise SystemExit(f"seghdc: error: {exc}") from None
    folder = ResultFolder(args.out_dir, "loadgen")
    with target:
        report = generator.run()
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
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
        print(f"summary JSON written to {path}")
    return 0 if summary["lost"] == 0 and summary["duplicated"] == 0 else 1


def _run_tile(args: argparse.Namespace) -> int:
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
    if args.runner == "server" and args.workers < 1:
        raise SystemExit(
            f"seghdc: error: --workers must be positive, got {args.workers}"
        )
    target = None if args.url is None else _parse_host_port(args.url)
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
    try:
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
    except ValueError as exc:
        raise SystemExit(f"seghdc: error: {exc}") from None
    base_spec = {"segmenter": config.base, "config": dict(config.base_config)}

    with contextlib.ExitStack() as stack:
        runner = None
        runner_name = "serial"
        if target is not None:
            from repro.serving.cluster import ReplicaClient

            client = stack.enter_context(ReplicaClient("tile-target", *target))
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
    return 0 if parity is not False else 1


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
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cluster":
        return _run_cluster(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    if args.command == "tile":
        return _run_tile(args)
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
