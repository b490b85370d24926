"""Pixel hypervector producer (component 3 of SegHDC).

The producer binds a pixel's position HV and color HV with element-wise XOR,
which preserves the Hamming/Manhattan structure both encoders established:
flipping ``m`` elements in either operand flips exactly ``m`` elements of the
bound result (unless the flips collide, which the split-region position
encoding makes rare — Fig. 5 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.hdc.backend import HDCBackend, HVStorage
from repro.seghdc.color_encoder import ColorEncoder
from repro.seghdc.position_encoder import PositionEncoder

__all__ = ["PixelHVProducer"]


class PixelHVProducer:
    """Combine a position encoder and a color encoder into pixel HVs."""

    def __init__(
        self, position_encoder: PositionEncoder, color_encoder: ColorEncoder
    ) -> None:
        if position_encoder.dimension != color_encoder.dimension:
            raise ValueError(
                "position and color encoders disagree on dimension: "
                f"{position_encoder.dimension} vs {color_encoder.dimension}"
            )
        self.position_encoder = position_encoder
        self.color_encoder = color_encoder

    @property
    def dimension(self) -> int:
        """Hypervector dimension shared by both encoders."""
        return self.position_encoder.dimension

    def produce_pixel(self, row: int, column: int, value) -> np.ndarray:
        """Pixel HV for a single pixel (used by tests and small examples)."""
        position_hv = self.position_encoder.encode(row, column)
        color_hv = self.color_encoder.encode_value(value)
        return np.bitwise_xor(position_hv, color_hv)

    def produce_image(self, pixels: np.ndarray) -> np.ndarray:
        """Pixel HVs for a whole image, shape ``(height*width, d)`` uint8.

        The image height/width must match the dimensions the position encoder
        was built for.
        """
        arr = np.asarray(pixels)
        height, width = self._check_shape(arr)
        position_grid = self.position_encoder.encode_grid()
        color_grid = self.color_encoder.encode_image(arr)
        pixel_grid = np.bitwise_xor(position_grid, color_grid)
        return pixel_grid.reshape(height * width, self.dimension)

    def position_grid_storage(self, backend: HDCBackend) -> HVStorage:
        """The XOR-bound position grid in ``backend`` storage.

        The grid depends only on the encoder configuration and image shape,
        never on pixel values, so callers (the segmentation engine) may cache
        and reuse it across images.
        """
        return backend.bind_position_grid(
            self.position_encoder.row_hypervectors(),
            self.position_encoder.column_hypervectors(),
        )

    def produce_image_storage(
        self, pixels: np.ndarray, backend: HDCBackend
    ) -> HVStorage:
        """Pixel HVs for a whole image as backend storage, bit-identical to
        packing :meth:`produce_image`: a :meth:`HDCBackend.bind_color`
        table gather over a freshly built grid and color tables (the engine
        caches both per image shape)."""
        arr = np.asarray(pixels)
        self._check_shape(arr)
        return backend.bind_color(
            self.position_grid_storage(backend),
            self.color_encoder.level_indices(arr),
            backend.color_tables(self.color_encoder.level_tables()),
        )

    def _check_shape(self, arr: np.ndarray) -> tuple[int, int]:
        height, width = arr.shape[:2]
        if (height, width) != (
            self.position_encoder.height,
            self.position_encoder.width,
        ):
            raise ValueError(
                f"image shape {(height, width)} does not match position encoder "
                f"shape {(self.position_encoder.height, self.position_encoder.width)}"
            )
        return height, width
