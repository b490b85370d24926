#!/usr/bin/env python3
"""Encoding playground: see the Manhattan-distance geometry of the encoders.

The whole idea of SegHDC is that carefully constructed flip encodings make
Hamming distance in hypervector space behave like Manhattan distance over
pixel positions and intensity values.  This example makes that visible:

* it prints the Hamming distance from position (0, 0) to a grid of positions
  for the uniform, Manhattan, decay, and block-decay encoders (the four
  panels of Fig. 3), showing where the uniform encoding collapses;
* it prints color-HV distances for a few intensity pairs;
* it then segments one image with every position-encoding variant and
  reports the IoU of each, reproducing the design progression in miniature.

Run with::

    python examples/encoding_playground.py
"""

from __future__ import annotations

import numpy as np

from repro.datasets import make_dataset
from repro.hdc import HypervectorSpace, hamming_distance
from repro.metrics import best_foreground_iou
from repro.seghdc import (
    ManhattanColorEncoder,
    SegHDCConfig,
    SegHDCEngine,
    make_position_encoder,
)

GRID = 6


def show_position_distances(variant: str, alpha: float = 0.5, beta: int = 2) -> None:
    space = HypervectorSpace(4096, seed=0)
    encoder = make_position_encoder(variant, space, GRID, GRID, alpha=alpha, beta=beta)
    origin = encoder.encode(0, 0)
    print(f"\n{variant} encoding — Hamming distance from position (0, 0):")
    for row in range(GRID):
        cells = [
            f"{hamming_distance(origin, encoder.encode(row, col)):5d}"
            for col in range(GRID)
        ]
        print("   " + " ".join(cells))


def show_color_distances() -> None:
    space = HypervectorSpace(2560, seed=0)
    encoder = ManhattanColorEncoder(space, 1)
    print("\ncolor encoding — Hamming distance between intensity pairs:")
    for value_a, value_b in [(10, 11), (10, 20), (10, 60), (10, 200), (0, 255)]:
        distance = hamming_distance(
            encoder.encode_value(value_a), encoder.encode_value(value_b)
        )
        print(f"   |{value_a:3d} - {value_b:3d}| = {abs(value_a-value_b):3d}   ->   {distance:5d}")


def segment_with_every_variant() -> None:
    sample = make_dataset("dsb2018", num_images=1, image_shape=(96, 112), seed=0)[0]
    print("\nsegmentation IoU per position-encoding variant (same image):")
    for variant in ("uniform", "manhattan", "decay", "block_decay", "random"):
        config = SegHDCConfig.paper_defaults("dsb2018").with_overrides(
            dimension=1000, num_iterations=5, beta=10, position_encoding=variant
        )
        labels = SegHDCEngine(config).segment(sample.image).labels
        iou = best_foreground_iou(labels, sample.mask)
        print(f"   {variant:12s} IoU {iou:.4f}")


def main() -> None:
    np.set_printoptions(linewidth=160)
    # Fig. 3(a): the uniform encoding collapses on the diagonal.
    show_position_distances("uniform")
    # Fig. 3(b)-(d): the Manhattan family keeps distances additive.
    show_position_distances("manhattan")
    show_position_distances("decay", alpha=0.5)
    show_position_distances("block_decay", alpha=0.5, beta=2)
    show_color_distances()
    segment_with_every_variant()


if __name__ == "__main__":
    main()
