"""Regenerate the golden label-map fixtures.

Run from the repo root after an *intentional* output-changing modification::

    PYTHONPATH=src python tests/golden/regenerate.py

Each fixture is a self-contained ``.npz``: the input image, the config
fields needed to rebuild the pipeline, and the expected label map (produced
by the dense backend; the parity sweep guarantees packed agrees).  The
regression test re-runs every fixture under both backends and diffs
bit-for-bit, so unintentional output drift from kernel rewrites (e.g. the
planned bit-sliced bundling) is caught even when both backends drift
together.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.datasets import DSB2018Synthetic
from repro.seghdc import SegHDCConfig, SegHDCEngine

GOLDEN_DIR = Path(__file__).parent

CONFIG_FIELDS = (
    "dimension",
    "num_clusters",
    "num_iterations",
    "alpha",
    "beta",
    "gamma",
    "position_encoding",
    "color_encoding",
    "color_levels",
    "seed",
)


def _gradient_image(height: int = 12, width: int = 12) -> np.ndarray:
    rows = np.linspace(0, 255, height)[:, None]
    cols = np.linspace(0, 255, width)[None, :]
    return ((rows + cols) / 2).astype(np.uint8)


def _float_image(height: int = 10, width: int = 14) -> np.ndarray:
    rng = np.random.default_rng(42)
    base = rng.random((height, width))
    base[3:7, 4:10] += 1.5  # a bright blob on noisy background
    return base / base.max()


def cases() -> "list[tuple[str, np.ndarray, SegHDCConfig]]":
    dsb = DSB2018Synthetic(num_images=1, image_shape=(16, 20), seed=11)[0]
    return [
        (
            "dsb2018_16x20_d256_k2",
            np.asarray(dsb.image.pixels),
            SegHDCConfig(
                dimension=256, num_clusters=2, num_iterations=3, beta=2, seed=0
            ),
        ),
        (
            "gradient_12x12_d512_k3",
            _gradient_image(),
            SegHDCConfig(
                dimension=512, num_clusters=3, num_iterations=4, beta=3, seed=0
            ),
        ),
        (
            "floatblob_10x14_d128_k2",
            _float_image(),
            SegHDCConfig(
                dimension=128, num_clusters=2, num_iterations=3, beta=2, seed=7
            ),
        ),
    ]


def main() -> None:
    for name, image, config in cases():
        # The dense backend is the oracle; the parity sweep covers packed.
        oracle = SegHDCEngine(config.with_overrides(backend="dense"))
        labels = oracle.segment(image).labels
        config_json = json.dumps(
            {field: getattr(config, field) for field in CONFIG_FIELDS}
        )
        path = GOLDEN_DIR / f"{name}.npz"
        np.savez_compressed(
            path,
            image=image,
            labels=labels.astype(np.int32),
            config_json=np.array(config_json),
        )
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
