"""Position encoders (component 1 of SegHDC).

The goal of the position encoder is to map a pixel's (row, column) coordinate
to a binary hypervector such that the Hamming distance between two position
HVs reflects the Manhattan distance between the pixels.  The paper develops
this in four steps (Fig. 3):

(a) *row/column uniform encoding* — rows and columns both apply cumulative
    prefix flips over the whole HV; the row and column flips land on the same
    sites and cancel through the XOR binding, so the distance "diminishes".
(b) *Manhattan distance encoding* — rows flip only inside the first half of
    the HV and columns only inside the second half, making the two
    contributions additive: ``hamming(p(0,0), p(i,j)) = i*x_row + j*x_col``.
(c) *decay Manhattan encoding* — a hyper-parameter ``alpha`` shrinks the flip
    unit to ``floor(alpha*d / (2*N))`` (Eq. 5) so small spatial offsets map to
    small HV distances.
(d) *block decay Manhattan encoding* — a hyper-parameter ``beta`` groups
    ``beta`` consecutive rows (columns) into a block that shares one HV, so
    nearby pixels are encouraged to take the same label.

:class:`BlockDecayPositionEncoder` implements (b)-(d) (``alpha=1, beta=1``
recovers (b)); :class:`UniformPositionEncoder` implements (a) and
:class:`RandomPositionEncoder` is the RPos ablation of Table I.  Both
flip-prefix encoders build their row and column tables with
:func:`repro.hdc.flip_prefix_table`, the same builder as the color levels.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.hdc.hypervector import HypervectorSpace, flip_prefix_table

__all__ = [
    "BlockDecayPositionEncoder",
    "PositionEncoder",
    "RandomPositionEncoder",
    "UniformPositionEncoder",
    "make_position_encoder",
]


class PositionEncoder(ABC):
    """Common interface: per-row HVs, per-column HVs, and the bound grid."""

    def __init__(self, space: HypervectorSpace, height: int, width: int) -> None:
        if height <= 0 or width <= 0:
            raise ValueError(f"image shape must be positive, got {(height, width)}")
        self.space = space
        self.height = int(height)
        self.width = int(width)

    @property
    def dimension(self) -> int:
        """Hypervector dimension of the owning space."""
        return self.space.dimension

    @abstractmethod
    def row_hypervectors(self) -> np.ndarray:
        """Row HVs ``r_i`` stacked into an ``(height, d)`` uint8 array."""

    @abstractmethod
    def column_hypervectors(self) -> np.ndarray:
        """Column HVs ``c_j`` stacked into a ``(width, d)`` uint8 array."""

    def encode(self, row: int, column: int) -> np.ndarray:
        """Position HV ``p(row, column) = r_row XOR c_column``."""
        if not (0 <= row < self.height and 0 <= column < self.width):
            raise ValueError(
                f"position ({row}, {column}) outside image "
                f"{(self.height, self.width)}"
            )
        rows = self.row_hypervectors()
        cols = self.column_hypervectors()
        return np.bitwise_xor(rows[row], cols[column])

    def encode_grid(self) -> np.ndarray:
        """All position HVs as an ``(height, width, d)`` uint8 array."""
        rows = self.row_hypervectors()
        cols = self.column_hypervectors()
        return np.bitwise_xor(rows[:, None, :], cols[None, :, :])


class BlockDecayPositionEncoder(PositionEncoder):
    """Manhattan / decay / block-decay position encoding (Fig. 3 (b)-(d)).

    Row flips are confined to the first half of the hypervector and column
    flips to the second half, so the XOR-bound position HV accumulates both
    contributions additively.  The per-row (per-column) flip unit follows
    Eq. 5 of the paper, ``floor(alpha * d / (2 * N))`` with ``N`` the image
    height (width); grouping ``beta`` consecutive rows (columns) into one
    block makes the step between adjacent blocks ``beta * unit``, so the
    flip budget spent across the image is the same for every block size
    (the last, possibly partial, block may leave part of the ``alpha``
    budget unused).
    """

    def __init__(
        self,
        space: HypervectorSpace,
        height: int,
        width: int,
        *,
        alpha: float = 1.0,
        beta: int = 1,
    ) -> None:
        super().__init__(space, height, width)
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if beta < 1:
            raise ValueError(f"beta must be at least 1, got {beta}")
        self.alpha = float(alpha)
        self.beta = int(beta)
        self._row_base = space.random()
        self._col_base = space.random()
        self.num_row_blocks = math.ceil(self.height / self.beta)
        self.num_col_blocks = math.ceil(self.width / self.beta)
        # Eq. 5 of the paper: the per-row (per-column) flip unit is
        # floor(alpha * d / (2 * N)); grouping beta rows into one block makes
        # the step between adjacent blocks beta * unit.
        self.row_unit = max(1, int(self.alpha * self.dimension) // (2 * self.height))
        self.col_unit = max(1, int(self.alpha * self.dimension) // (2 * self.width))
        self._row_hvs: np.ndarray | None = None
        self._col_hvs: np.ndarray | None = None

    def block_index(self, coordinate: int) -> int:
        """Block that a row/column coordinate belongs to."""
        return coordinate // self.beta

    def row_flip_count(self, row: int) -> int:
        """Number of elements row ``row`` flips relative to the base row HV."""
        half = self.dimension // 2
        return min(self.block_index(row) * self.beta * self.row_unit, half)

    def column_flip_count(self, column: int) -> int:
        """Number of elements column ``column`` flips relative to the base."""
        half = self.dimension // 2
        return min(self.block_index(column) * self.beta * self.col_unit, half)

    def row_hypervectors(self) -> np.ndarray:
        """Block-decay row HVs (flips in the first half), cached."""
        if self._row_hvs is None:
            self._row_hvs = flip_prefix_table(
                self._row_base,
                [self.row_flip_count(row) for row in range(self.height)],
            )
        return self._row_hvs

    def column_hypervectors(self) -> np.ndarray:
        """Block-decay column HVs (flips in the second half), cached."""
        if self._col_hvs is None:
            self._col_hvs = flip_prefix_table(
                self._col_base,
                [self.column_flip_count(col) for col in range(self.width)],
                offset=self.dimension // 2,
            )
        return self._col_hvs

    def expected_distance(
        self, pos_a: tuple[int, int], pos_b: tuple[int, int]
    ) -> int:
        """Hamming distance the construction guarantees between two positions.

        Because row flips and column flips live in disjoint halves and are
        nested prefixes, the distance is the sum of the row and column flip
        count differences — the (block) Manhattan distance scaled by the flip
        units.
        """
        row_term = abs(self.row_flip_count(pos_a[0]) - self.row_flip_count(pos_b[0]))
        col_term = abs(
            self.column_flip_count(pos_a[1]) - self.column_flip_count(pos_b[1])
        )
        return row_term + col_term


class UniformPositionEncoder(PositionEncoder):
    """Row/column uniform encoding of Fig. 3 (a) — the flawed first attempt.

    Both rows and columns apply their prefix flips over the *whole* HV
    starting at element 0, so on the diagonal the row and column flips cancel
    through the XOR and the encoded distance collapses to zero.  Kept for the
    encoding-variant ablation.
    """

    def __init__(self, space: HypervectorSpace, height: int, width: int) -> None:
        super().__init__(space, height, width)
        self._row_base = space.random()
        self._col_base = space.random()
        self.row_unit = max(1, self.dimension // max(self.height, 1))
        self.col_unit = max(1, self.dimension // max(self.width, 1))
        self._row_hvs: np.ndarray | None = None
        self._col_hvs: np.ndarray | None = None

    def row_hypervectors(self) -> np.ndarray:
        """Prefix-flip row HVs with a uniform per-row unit, cached."""
        if self._row_hvs is None:
            self._row_hvs = flip_prefix_table(
                self._row_base,
                [min(row * self.row_unit, self.dimension) for row in range(self.height)],
            )
        return self._row_hvs

    def column_hypervectors(self) -> np.ndarray:
        """Prefix-flip column HVs with a uniform per-column unit, cached."""
        if self._col_hvs is None:
            self._col_hvs = flip_prefix_table(
                self._col_base,
                [min(col * self.col_unit, self.dimension) for col in range(self.width)],
            )
        return self._col_hvs


class RandomPositionEncoder(PositionEncoder):
    """RPos ablation: every row and column gets an independent random HV.

    This is the classical HDC codebook approach the paper argues against —
    nearby positions are no closer in HV space than distant ones, which is why
    Table I reports near-chance IoU for it.
    """

    def __init__(self, space: HypervectorSpace, height: int, width: int) -> None:
        super().__init__(space, height, width)
        self._row_hvs = space.random_batch(height)
        self._col_hvs = space.random_batch(width)

    def row_hypervectors(self) -> np.ndarray:
        """Independent random row HVs (the RPos ablation)."""
        return self._row_hvs

    def column_hypervectors(self) -> np.ndarray:
        """Independent random column HVs (the RPos ablation)."""
        return self._col_hvs


def make_position_encoder(
    variant: str,
    space: HypervectorSpace,
    height: int,
    width: int,
    *,
    alpha: float = 1.0,
    beta: int = 1,
) -> PositionEncoder:
    """Build a position encoder by config name.

    ``"manhattan"`` is block-decay with ``alpha=1, beta=1``; ``"decay"`` is
    block-decay with ``beta=1``.
    """
    key = variant.lower()
    if key == "uniform":
        return UniformPositionEncoder(space, height, width)
    if key == "manhattan":
        return BlockDecayPositionEncoder(space, height, width, alpha=1.0, beta=1)
    if key == "decay":
        return BlockDecayPositionEncoder(space, height, width, alpha=alpha, beta=1)
    if key == "block_decay":
        return BlockDecayPositionEncoder(space, height, width, alpha=alpha, beta=beta)
    if key == "random":
        return RandomPositionEncoder(space, height, width)
    raise ValueError(f"unknown position encoder variant {variant!r}")
