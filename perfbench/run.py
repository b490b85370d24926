"""SegHDC repository benchmark: one command per workload, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload http-mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --quick            # every workload, tiny sizes

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run (see ``README.md`` in this directory).
The last line of standard output is always the JSON result; the full record
(environment, per-run detail, spans when traced) goes to ``perfbench/out/``.
"""

import os

# Pinned before numpy loads, and inherited by every process started here,
# so no run uses more BLAS/OpenMP threads than the box has cores.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "engine-paper": "engine_paper",
    "http-mixed": "http_mixed",
    "tiled-1k": "tiled_1k",
}
QUICK_SECONDS = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test: every workload at tiny sizes, traced and untraced",
    )
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def locate_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def run_workload(name: str, opts) -> dict:
    """Set up (the workload's ``SETUP_REPEATS`` times untraced, once traced),
    measure, tear down."""
    from measure import E2E_UNITS, LAYER_UNITS, environment, median
    from spans import SpanRecorder

    module = importlib.import_module(WORKLOADS[name])
    recorder = SpanRecorder()
    repeats = 1 if opts.trace else module.SETUP_REPEATS
    setup_times = []
    state = None
    for repeat in range(repeats):
        if state is not None:
            module.teardown(state)
        recorder.enabled = bool(opts.trace)
        start = time.perf_counter()
        state = module.setup(opts, recorder)
        setup_times.append(time.perf_counter() - start)
        recorder.enabled = False
    try:
        outcome = module.measure(state, opts, recorder)
    finally:
        module.teardown(state)
    correct = outcome["failed"] == 0 and outcome.get("reconciled", True)
    if opts.trace:
        units, values = LAYER_UNITS, outcome["layers"]
    else:
        units = E2E_UNITS
        values = {**outcome["e2e"], "setup_s": median(setup_times)}
    result = {
        "correct": bool(correct),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    record = {
        "workload": name, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "scale": opts.scale, "environment": environment(),
        "setup_times_s": setup_times, "detail": outcome.get("detail", {}),
        "result": result,
    }
    out = HERE / "out" / f"{name}-seed{opts.seed}-trace{opts.trace}-{opts.scale}.json"
    if opts.trace:
        recorder.write(out, record)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"], "detail": record["detail"],
                      "setup_times_s": setup_times}), flush=True)
    return result


def quick() -> int:
    """Run every workload traced and untraced at tiny sizes, check the
    results against ``BENCHMARK.json`` and print one summary line."""
    manifest_path = ROOT / "BENCHMARK.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
    failures = []
    for name in WORKLOADS:
        for trace in (0, 1):
            opts = argparse.Namespace(
                workload=name, seed=0, seconds=QUICK_SECONDS, trace=trace, scale="quick"
            )
            result = run_workload(name, opts)
            print(json.dumps({"workload": name, "trace": trace, **result}), flush=True)
            if not result["correct"]:
                failures.append(f"{name}/trace{trace}: incorrect")
            if manifest is not None:
                key = "per_layer" if trace else "end_to_end"
                expected = {m["name"]: m["unit"] for m in manifest[key]}
                emitted = {m: v["unit"] for m, v in result["metrics"].items()}
                if emitted != expected:
                    failures.append(f"{name}/trace{trace}: metrics differ from BENCHMARK.json")
    if manifest is not None and sorted(w["name"] for w in manifest["workloads"]) != sorted(WORKLOADS):
        failures.append("workloads differ from BENCHMARK.json")
    print(json.dumps({"quick": True, "ok": not failures, "failures": failures}), flush=True)
    return 0 if not failures else 1


def main(argv=None) -> int:
    opts = parse_args(argv)
    locate_program()
    if opts.quick:
        return quick()
    opts.scale = "full"
    result = run_workload(opts.workload, opts)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
