"""Regenerate ``pins.json``: the engine-paper label-map digests.

Every pool image is segmented on the packed backend (what the benchmark
runs) and on the dense backend (the oracle); the two label maps must be
identical before a digest is pinned.  Run from the repository root::

    python3 perfbench/pin_digests.py
"""

import json
import sys

import run  # pins the BLAS thread count before numpy loads

from engine_paper import PINS, make_config, make_samples, pinned_fields
from measure import label_digest


def pin(scale: str) -> dict:
    """Digests of one scale's pool, after the dense cross-check."""
    from repro.seghdc.engine import SegHDCEngine

    packed = SegHDCEngine(make_config(scale, "packed"))
    dense = SegHDCEngine(make_config(scale, "dense"))
    digests = []
    for index, sample in enumerate(make_samples(scale)):
        labels = packed.segment(sample.image).labels
        oracle = dense.segment(sample.image).labels
        if labels.shape != oracle.shape or (labels != oracle).any():
            sys.exit(f"{scale} image {index}: packed and dense label maps differ")
        digests.append(label_digest(labels))
        print(f"{scale} image {index}: {digests[-1]}", flush=True)
    return {"config": pinned_fields(packed.config), "digests": digests}


def main() -> int:
    run.locate_program()
    pins = {f"engine-paper/{scale}": pin(scale) for scale in ("quick", "full")}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
