#!/usr/bin/env python3
"""Instance-level analysis: from SegHDC masks to per-nucleus statistics.

The paper evaluates pixel-level IoU, but a downstream user of nuclei
segmentation usually wants *objects*: how many nuclei were found, how large
they are, and how many of the true nuclei were detected.  This example chains
the public API end to end:

    SegHDC  ->  binary foreground  ->  post-processing (hole filling,
    small-object removal)  ->  connected components  ->  object-level
    precision / recall / F1 and DSB2018-style average precision.

Run with::

    python examples/instance_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.datasets import make_dataset
from repro.metrics import (
    average_precision,
    best_foreground_iou,
    match_clusters_to_classes,
    match_instances,
)
from repro.postprocess import (
    connected_components,
    fill_holes,
    instance_sizes,
    remove_small_objects,
)
from repro.seghdc import SegHDCConfig, SegHDCEngine


def binary_foreground(labels: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Map SegHDC's cluster indices to a binary foreground mask."""
    assignment = match_clusters_to_classes(labels, (mask != 0).astype(np.uint8))
    foreground_clusters = [cluster for cluster, cls in assignment.items() if cls == 1]
    return np.isin(labels, foreground_clusters).astype(np.uint8)


def main() -> None:
    sample = make_dataset("bbbc005", num_images=1, image_shape=(182, 244), seed=0)[0]
    config = SegHDCConfig.paper_defaults("bbbc005").with_overrides(
        dimension=1000, num_iterations=5, beta=7
    )
    result = SegHDCEngine(config).segment(sample.image)
    print(f"pixel-level IoU: {best_foreground_iou(result.labels, sample.mask):.4f}")

    # Post-process the foreground and split it into instances.
    foreground = binary_foreground(result.labels, sample.mask)
    cleaned = remove_small_objects(fill_holes(foreground), min_size=20)
    predicted_instances = connected_components(cleaned)
    true_instances = connected_components(sample.mask)

    sizes = instance_sizes(predicted_instances)
    print(f"predicted nuclei: {len(sizes)}   "
          f"(ground truth: {int(true_instances.max())})")
    if sizes:
        areas = np.array(list(sizes.values()))
        print(f"nucleus area: median {np.median(areas):.0f} px, "
              f"min {areas.min()} px, max {areas.max()} px")

    # Object-level scores.
    match = match_instances(predicted_instances, true_instances, iou_threshold=0.5)
    print(f"object precision {match.precision:.3f}  recall {match.recall:.3f}  "
          f"F1 {match.f1:.3f}  mean matched IoU {match.mean_matched_iou:.3f}")
    ap = average_precision(predicted_instances, true_instances)
    print(f"DSB2018-style average precision (IoU 0.5..0.95): {ap:.3f}")


if __name__ == "__main__":
    main()
