#!/usr/bin/env python3
"""Nuclei-segmentation study: SegHDC vs. the CNN baseline on three datasets.

This example mirrors the paper's Table I workflow at a miniature scale:
for each synthetic dataset (BBBC005-like, DSB2018-like, MoNuSeg-like) it runs
the CNN-based unsupervised baseline and SegHDC over a few images and prints
the mean IoU of each method plus the per-dataset improvement — the expected
outcome is that SegHDC wins everywhere and that MoNuSeg is the hardest
dataset for both methods, just like in the paper.

Run with::

    python examples/nuclei_study.py
"""

from __future__ import annotations

from repro.baseline import CNNBaselineConfig, CNNUnsupervisedSegmenter
from repro.datasets import make_dataset
from repro.metrics import best_foreground_iou, evaluate_dataset
from repro.seghdc import SegHDCConfig, SegHDCEngine

#: Per-dataset settings: image shape for this study and the block size beta
#: rescaled from the paper's value to the smaller images.
STUDY_SETTINGS = {
    "bbbc005": {"image_shape": (130, 174), "beta": 5},
    "dsb2018": {"image_shape": (128, 160), "beta": 13},
    "monuseg": {"image_shape": (128, 128), "beta": 13},
}
IMAGES_PER_DATASET = 2


def main() -> None:
    print(f"{'dataset':10s} {'baseline':>9s} {'seghdc':>9s} {'improvement':>12s}")
    for dataset_name, settings in STUDY_SETTINGS.items():
        dataset = make_dataset(
            dataset_name,
            num_images=IMAGES_PER_DATASET,
            image_shape=settings["image_shape"],
            seed=0,
        )
        samples = list(dataset)

        seghdc_config = SegHDCConfig.paper_defaults(dataset_name).with_overrides(
            dimension=1000, num_iterations=5, beta=settings["beta"]
        )
        seghdc = SegHDCEngine(seghdc_config)
        seghdc_score = evaluate_dataset(
            lambda sample: seghdc.segment(sample.image).labels,
            samples,
            score=best_foreground_iou,
        )

        baseline_config = CNNBaselineConfig(
            num_features=24, num_layers=2, max_iterations=15, seed=0
        )
        baseline = CNNUnsupervisedSegmenter(baseline_config)
        baseline_score = evaluate_dataset(
            lambda sample: baseline.segment(sample.image).labels,
            samples,
            score=best_foreground_iou,
        )

        improvement = seghdc_score.mean - baseline_score.mean
        print(
            f"{dataset_name:10s} {baseline_score.mean:9.4f} {seghdc_score.mean:9.4f} "
            f"{improvement:+12.4f}"
        )
    print()
    print("Expected shape (paper Table I): SegHDC > baseline on every dataset,")
    print("with BBBC005 easiest and MoNuSeg hardest.")


if __name__ == "__main__":
    main()
