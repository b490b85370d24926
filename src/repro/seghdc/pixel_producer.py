"""Pixel hypervector producer (component 3 of SegHDC).

The producer binds a pixel's position HV and color HV with element-wise XOR,
which preserves the Hamming/Manhattan structure both encoders established:
flipping ``m`` elements in either operand flips exactly ``m`` elements of the
bound result (unless the flips collide, which the split-region position
encoding makes rare — Fig. 5 of the paper).

:class:`PixelHVProducer` is the dense reference for that bind.  The engine
does not go through it: it calls :meth:`HDCBackend.bind_position_grid` and
:meth:`HDCBackend.bind_color` directly, and tests check those backend
storages bit for bit against :meth:`PixelHVProducer.produce_image`.
"""

from __future__ import annotations

import numpy as np

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
        height, width = arr.shape[:2]
        expected = (self.position_encoder.height, self.position_encoder.width)
        if (height, width) != expected:
            raise ValueError(
                f"image shape {(height, width)} does not match position "
                f"encoder shape {expected}"
            )
        position_grid = self.position_encoder.encode_grid()
        color_grid = self.color_encoder.encode_image(arr)
        pixel_grid = np.bitwise_xor(position_grid, color_grid)
        return pixel_grid.reshape(height * width, self.dimension)
