"""Connected-component analysis of binary foreground masks."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = ["connected_components", "extract_instances", "instance_sizes"]

#: 4-connectivity (von Neumann) and 8-connectivity (Moore) structuring elements.
STRUCTURES = {
    4: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
    8: np.ones((3, 3), dtype=bool),
}


def connected_components(mask: np.ndarray, *, connectivity: int = 8) -> np.ndarray:
    """Label the connected foreground components of a binary mask.

    Returns an int32 array where 0 is background and components are numbered
    1..N.  ``connectivity`` is 4 or 8.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
    if connectivity not in STRUCTURES:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    labelled, _ = ndimage.label(arr != 0, structure=STRUCTURES[connectivity])
    return labelled.astype(np.int32)


def instance_sizes(instance_map: np.ndarray) -> dict[int, int]:
    """Pixel count of every instance (label 0 / background is excluded)."""
    arr = np.asarray(instance_map)
    labels, counts = np.unique(arr, return_counts=True)
    return {int(label): int(count) for label, count in zip(labels, counts) if label != 0}


def extract_instances(
    mask: np.ndarray, *, connectivity: int = 8, min_size: int = 0
) -> list[np.ndarray]:
    """Boolean masks of the individual connected objects, largest first.

    Objects smaller than ``min_size`` pixels are dropped.
    """
    instance_map = connected_components(mask, connectivity=connectivity)
    sizes = instance_sizes(instance_map)
    ordered = sorted(sizes, key=sizes.get, reverse=True)
    return [
        instance_map == label
        for label in ordered
        if sizes[label] >= max(0, min_size)
    ]
