"""Image container and color-space helpers.

Images are numpy arrays of shape ``(height, width)`` for single-channel data
or ``(height, width, channels)`` for multi-channel data, with pixel values in
``0..255`` when stored as ``uint8``.  The :class:`Image` dataclass is a light
wrapper that remembers the pixel array together with an optional name, and is
what the dataset generators hand to the segmentation pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Image", "ensure_uint8", "to_float", "to_grayscale", "to_rgb"]

# ITU-R BT.601 luma coefficients, the conventional RGB -> gray weighting.
_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114], dtype=np.float64)


def ensure_uint8(pixels: np.ndarray) -> np.ndarray:
    """Round, clip to [0, 255] and convert to ``uint8``, as a new array.

    ``uint8`` input is already rounded and in range, so it is only copied.
    """
    arr = np.asarray(pixels)
    if arr.dtype == np.uint8:
        return arr.copy()
    return np.clip(np.rint(arr.astype(np.float64)), 0, 255).astype(np.uint8)


def to_float(pixels: np.ndarray) -> np.ndarray:
    """Convert ``uint8`` pixels to float64 in [0, 1]."""
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.size and arr.max() > 1.0:
        arr = arr / 255.0
    return arr


def to_grayscale(pixels: np.ndarray) -> np.ndarray:
    """Collapse an (H, W, 3) image to (H, W) using BT.601 luma weights.

    Single-channel inputs keep their values (as a new uint8 array).
    """
    arr = np.asarray(pixels)
    if arr.ndim == 2:
        return ensure_uint8(arr)
    if arr.ndim == 3 and arr.shape[2] == 1:
        return ensure_uint8(arr[:, :, 0])
    if arr.ndim == 3 and arr.shape[2] == 3:
        gray = arr.astype(np.float64) @ _LUMA_WEIGHTS
        return ensure_uint8(gray)
    raise ValueError(f"unsupported image shape {arr.shape}")


def to_rgb(pixels: np.ndarray) -> np.ndarray:
    """Expand a single-channel image to (H, W, 3) by replication."""
    arr = np.asarray(pixels)
    if arr.ndim == 3 and arr.shape[2] == 3:
        return ensure_uint8(arr)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim != 2:
        raise ValueError(f"unsupported image shape {arr.shape}")
    return ensure_uint8(np.repeat(arr[:, :, None], 3, axis=2))


@dataclass
class Image:
    """A named pixel array.

    ``pixels`` is stored as ``uint8`` with shape (H, W) or (H, W, C).
    """

    pixels: np.ndarray
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.ndim not in (2, 3):
            raise ValueError(f"image must be 2-D or 3-D, got shape {arr.shape}")
        if arr.ndim == 3 and arr.shape[2] not in (1, 3):
            raise ValueError(f"unsupported channel count {arr.shape[2]}")
        self.pixels = ensure_uint8(arr)

    @property
    def height(self) -> int:
        """Image height in pixels."""
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        """Image width in pixels."""
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        """Number of color channels (1 for grayscale)."""
        return 1 if self.pixels.ndim == 2 else self.pixels.shape[2]

    @property
    def shape(self) -> tuple[int, ...]:
        """The raw pixel-array shape."""
        return self.pixels.shape

    @property
    def num_pixels(self) -> int:
        """Total pixel count (``height * width``)."""
        return self.height * self.width

    def grayscale(self) -> np.ndarray:
        """Single-channel (H, W) uint8 view of the image content."""
        return to_grayscale(self.pixels)

    def rgb(self) -> np.ndarray:
        """Three-channel (H, W, 3) uint8 view of the image content."""
        return to_rgb(self.pixels)

    def copy(self) -> "Image":
        """Deep copy (pixels and metadata are not shared)."""
        return Image(self.pixels.copy(), name=self.name, metadata=dict(self.metadata))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Image(name={self.name!r}, shape={self.shape})"
