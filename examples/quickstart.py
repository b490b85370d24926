#!/usr/bin/env python3
"""Quickstart: segment one synthetic nuclei image with SegHDC.

This is the smallest end-to-end use of the public API:

1. build a synthetic DSB2018-like sample (image + ground-truth mask),
2. configure and run the SegHDC pipeline,
3. score the prediction with the permutation-robust foreground IoU,
4. print an ASCII preview and write a PNG panel next to this script.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro.datasets import make_dataset
from repro.metrics import best_foreground_iou
from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.viz import ascii_mask, mask_to_grayscale, save_panel


def main() -> None:
    # 1. A synthetic stand-in for a DSB2018 crop (three channels, 128 x 160).
    dataset = make_dataset("dsb2018", num_images=1, image_shape=(128, 160), seed=0)
    sample = dataset[0]
    print(f"image: {sample.image.name}, shape {sample.image.shape}, "
          f"foreground fraction {sample.foreground_fraction:.1%}")

    # 2. SegHDC with the paper's DSB2018 hyper-parameters, scaled to the
    #    smaller image (beta shrinks with the image, the dimension is reduced
    #    from 10000 to 2000 to keep the example instant).
    config = SegHDCConfig.paper_defaults("dsb2018").with_overrides(
        dimension=2000, num_iterations=5, beta=13
    )
    result = SegHDCEngine(config).segment(sample.image)

    # 3. Score against the ground truth.
    iou = best_foreground_iou(result.labels, sample.mask)
    print(f"SegHDC IoU: {iou:.4f}   host latency: {result.elapsed_seconds:.2f}s")

    # 4. Show the mask and save a side-by-side panel.
    print(ascii_mask(result.labels, width=72))
    output = Path(__file__).with_name("quickstart_panel.png")
    save_panel(
        output,
        [sample.image.pixels, mask_to_grayscale(sample.mask), mask_to_grayscale(result.labels)],
    )
    print(f"panel written to {output}")


if __name__ == "__main__":
    main()
