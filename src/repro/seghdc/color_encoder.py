"""Color encoders (component 2 of SegHDC).

Color values live on a 0..255 scale.  The paper encodes them with the same
flip-prefix idea as the position encoder: the level HV for value ``v`` differs
from the level-0 HV in exactly ``v * uc`` elements, where ``uc = floor(d/256)``
is the flip unit, so the Hamming distance between two color HVs is
proportional to the absolute intensity difference (a Manhattan relationship).
Each channel's level table is one :func:`repro.hdc.flip_prefix_table` call,
the builder the position encoder's row and column tables share.

For three-channel images each channel receives ``d/3`` dimensions with its own
base HV, and the per-channel level HVs are *concatenated* (Fig. 4) — XOR or
multiplication across channels would destroy the distance, concatenation keeps
it additive.

The ``gamma`` hyper-parameter of the pixel-HV producer (Fig. 5) stretches the
color flip run length (each unit level step flips ``gamma * uc`` elements),
which increases the weight of color relative to position in the bound pixel
HV.  Because ``gamma`` only affects the color code, it is implemented here.

:class:`RandomColorEncoder` is the RColor ablation of Table I: one independent
random HV per quantised intensity level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.hdc.hypervector import HypervectorSpace, flip_prefix_table
from repro.imaging.image import to_grayscale

__all__ = [
    "ColorEncoder",
    "ManhattanColorEncoder",
    "RandomColorEncoder",
    "make_color_encoder",
]


def _quantize(channel: np.ndarray, levels: int) -> np.ndarray:
    """Map 0..255 intensities to 0..levels-1 ``int64`` indices."""
    arr = np.asarray(channel)
    if arr.dtype == np.uint8:
        arr = arr.astype(np.int64)  # already in 0..255
    else:
        arr = np.clip(arr.astype(np.int64), 0, 255)
    if levels == 256:
        return arr
    return (arr * levels) // 256


def _split_dimensions(dimension: int, channels: int) -> list[int]:
    """Split ``dimension`` into ``channels`` nearly equal parts (sum preserved)."""
    base = dimension // channels
    remainder = dimension - base * channels
    return [base + (1 if index < remainder else 0) for index in range(channels)]


class ColorEncoder(ABC):
    """Common interface: per-pixel color HVs for 1- or 3-channel images."""

    def __init__(
        self,
        space: HypervectorSpace,
        channels: int,
        *,
        levels: int = 256,
    ) -> None:
        if channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {channels}")
        if not 2 <= levels <= 256:
            # _quantize maps 8-bit intensities onto at most 256 indices, so
            # table rows past the 256th would never be read.
            raise ValueError(f"levels must be in [2, 256], got {levels}")
        self.space = space
        self.channels = int(channels)
        self.requested_levels = int(levels)

    @property
    def dimension(self) -> int:
        """Total hypervector dimension across channels."""
        return self.space.dimension

    @abstractmethod
    def level_tables(self) -> list[np.ndarray]:
        """Per-channel level tables, each of shape ``(levels, channel_dim)``."""

    @property
    @abstractmethod
    def levels(self) -> int:
        """Effective number of quantisation levels."""

    def encode_value(self, value: int | tuple[int, ...]) -> np.ndarray:
        """Color HV for a single pixel value (scalar or per-channel tuple)."""
        values = np.atleast_1d(np.asarray(value, dtype=np.int64))
        if values.size != self.channels:
            raise ValueError(
                f"expected {self.channels} channel value(s), got {values.size}"
            )
        tables = self.level_tables()
        pieces = []
        for channel, table in enumerate(tables):
            level = int(_quantize(values[channel], self.levels))
            pieces.append(table[level])
        return np.concatenate(pieces)

    def level_indices(self, pixels: np.ndarray) -> list[np.ndarray]:
        """Every pixel's quantised level per channel, one flat array each.

        Single-channel encoders accept either (H, W) or (H, W, 3) input (the
        latter is converted to grayscale); three-channel encoders accept
        (H, W, 3) or replicate a grayscale input across channels.  Entry
        ``c`` indexes ``level_tables()[c]`` in row-major pixel order.
        """
        arr = np.asarray(pixels)
        if self.channels == 1:
            # A 2-D uint8 image is its own grayscale.
            own_gray = arr.ndim == 2 and arr.dtype == np.uint8
            planes = [arr if own_gray else to_grayscale(arr)]
        elif arr.ndim == 2:
            planes = [arr] * 3
        elif arr.ndim == 3 and arr.shape[2] == 3:
            planes = [arr[:, :, channel] for channel in range(3)]
        else:
            raise ValueError(
                f"three-channel encoder needs an (H, W, 3) image, got {arr.shape}"
            )
        return [_quantize(plane, self.levels).ravel() for plane in planes]

    def encode_image(self, pixels: np.ndarray) -> np.ndarray:
        """Color HVs for every pixel, shape ``(height, width, d)``.

        The dense reference for the table-gather bind: each pixel's
        per-channel level-table rows from :meth:`level_indices`,
        concatenated.
        """
        height, width = np.asarray(pixels).shape[:2]
        pieces = [
            table[indices]
            for table, indices in zip(
                self.level_tables(), self.level_indices(pixels)
            )
        ]
        return np.concatenate(pieces, axis=-1).reshape(
            height, width, self.dimension
        )


class ManhattanColorEncoder(ColorEncoder):
    """Flip-prefix (Manhattan distance) color encoding of Fig. 4."""

    def __init__(
        self,
        space: HypervectorSpace,
        channels: int,
        *,
        levels: int = 256,
        gamma: int = 1,
    ) -> None:
        super().__init__(space, channels, levels=levels)
        if gamma < 1:
            raise ValueError(f"gamma must be at least 1, got {gamma}")
        self.gamma = int(gamma)
        self.channel_dimensions = _split_dimensions(self.dimension, self.channels)
        smallest = min(self.channel_dimensions)
        # The flip unit must be at least 1; when the per-channel dimension
        # cannot resolve the requested number of levels, reduce the effective
        # level count so neighbouring levels remain distinguishable.
        self._levels = min(self.requested_levels, max(2, smallest))
        # The flip unit is derived from each channel's own segment
        # (uc = floor((d / channels) / levels), at least 1): the largest color
        # difference then spans the whole segment without saturating earlier,
        # which keeps the intensity resolution proportional to the dimension.
        self._units = [
            max(1, dim // self._levels) * self.gamma
            for dim in self.channel_dimensions
        ]
        self._bases = [
            space.subspace(dim).random() for dim in self.channel_dimensions
        ]
        self._tables: list[np.ndarray] | None = None

    @property
    def levels(self) -> int:
        """Number of quantisation levels actually used."""
        return self._levels

    @property
    def flip_units(self) -> list[int]:
        """Per-channel flip run length for one level step (``gamma * uc``)."""
        return list(self._units)

    def level_tables(self) -> list[np.ndarray]:
        """Flip-prefix level tables, built lazily per channel."""
        if self._tables is None:
            self._tables = [
                flip_prefix_table(
                    base,
                    [min(level * unit, dim) for level in range(self._levels)],
                )
                for base, unit, dim in zip(
                    self._bases, self._units, self.channel_dimensions
                )
            ]
        return self._tables

    def expected_distance(self, value_a: int, value_b: int, *, channel: int = 0) -> int:
        """Hamming distance the flip-prefix construction guarantees."""
        level_a = int(_quantize(np.asarray(value_a), self._levels))
        level_b = int(_quantize(np.asarray(value_b), self._levels))
        dim = self.channel_dimensions[channel]
        unit = self._units[channel]
        flips_a = min(level_a * unit, dim)
        flips_b = min(level_b * unit, dim)
        return abs(flips_a - flips_b)


class RandomColorEncoder(ColorEncoder):
    """RColor ablation: an independent random HV per quantised level.

    Intensities that differ by 1 and by 255 are equally far apart in HV
    space, which destroys the color geometry and drives the clustering to
    near-chance IoU (Table I).
    """

    def __init__(
        self,
        space: HypervectorSpace,
        channels: int,
        *,
        levels: int = 256,
    ) -> None:
        super().__init__(space, channels, levels=levels)
        self.channel_dimensions = _split_dimensions(self.dimension, self.channels)
        self._levels = int(levels)
        self._tables = [
            space.subspace(dim).random_batch(self._levels)
            for dim in self.channel_dimensions
        ]

    @property
    def levels(self) -> int:
        """Number of quantisation levels actually used."""
        return self._levels

    def level_tables(self) -> list[np.ndarray]:
        """Independent random level tables (the RColor ablation)."""
        return self._tables


def make_color_encoder(
    variant: str,
    space: HypervectorSpace,
    channels: int,
    *,
    levels: int = 256,
    gamma: int = 1,
) -> ColorEncoder:
    """Build a color encoder by config name (``"manhattan"`` or ``"random"``)."""
    key = variant.lower()
    if key == "manhattan":
        return ManhattanColorEncoder(space, channels, levels=levels, gamma=gamma)
    if key == "random":
        return RandomColorEncoder(space, channels, levels=levels)
    raise ValueError(f"unknown color encoder variant {variant!r}")
