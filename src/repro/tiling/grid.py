"""Tile geometry: cover an arbitrarily large image with fixed-shape tiles.

The whole point of tiling in this codebase is to keep the compute tier on
its hot path: the SegHDC engines cache encoder grids **per image shape**
and the cluster gateway routes **by image shape**, so a tiler that emitted
ragged edge tiles would shatter both (every odd remnant shape is a fresh
multi-second grid build and a different replica).  :class:`TileGrid`
therefore produces *exactly one* tile shape per image: interior tiles
advance by ``tile - overlap`` strides, and the last tile of each axis is
**shifted inward** to end flush with the image instead of being clipped —
the final stride shrinks, the tile shape never does.

Each tile also carries an **ownership rectangle**: the sub-region of the
image whose stitched output comes from this tile.  Ownership rectangles
partition the image exactly (overlapping pixels go to the tile whose
interior is closer, via the midpoint of each overlap band), so the stitcher
assembles one global cluster map with every pixel taken from exactly one
tile and labels its components in a single whole-image pass — see
:mod:`repro.tiling.stitch`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TileBox", "TileGrid"]


def _tile_starts(extent: int, tile: int, stride: int) -> list[int]:
    """Start offsets covering ``[0, extent)`` with fixed-size tiles.

    Interior starts advance by ``stride``; if they do not land flush on the
    end, one last start at ``extent - tile`` is appended (the shifted-in
    edge tile, overlapping its predecessor by more than the nominal
    overlap).
    """
    starts = list(range(0, extent - tile + 1, stride))
    if starts[-1] + tile < extent:
        starts.append(extent - tile)
    return starts


def _ownership_cuts(starts: list[int], tile: int) -> list[int]:
    """Boundaries between consecutive tiles' owned bands along one axis.

    The cut between tile ``i`` (ending at ``starts[i] + tile``) and tile
    ``i + 1`` (starting at ``starts[i + 1]``) is the midpoint of their
    overlap band, so each owns the half of the overlap nearer its own
    interior.  With zero overlap the cut is exactly the shared edge.
    """
    return [
        (starts[i + 1] + starts[i] + tile) // 2 for i in range(len(starts) - 1)
    ]


@dataclass(frozen=True)
class TileBox:
    """One tile: its extent and its owned (stitched-output) rectangle.

    All coordinates are global image coordinates; ``row0:row1`` /
    ``col0:col1`` is the pixel rectangle the tile is cut from, and
    ``own_row0:own_row1`` / ``own_col0:own_col1`` is the sub-rectangle
    whose labels the stitcher takes from this tile.  The owned rectangle is
    always contained in the tile extent.
    """

    index: int
    grid_row: int
    grid_col: int
    row0: int
    row1: int
    col0: int
    col1: int
    own_row0: int
    own_row1: int
    own_col0: int
    own_col1: int

    @property
    def tile_slices(self) -> "tuple[slice, slice]":
        """Global slices selecting this tile's pixels from the image."""
        return (slice(self.row0, self.row1), slice(self.col0, self.col1))

    @property
    def owned_slices(self) -> "tuple[slice, slice]":
        """Global slices selecting this tile's owned output rectangle."""
        return (
            slice(self.own_row0, self.own_row1),
            slice(self.own_col0, self.own_col1),
        )

    @property
    def owned_local_slices(self) -> "tuple[slice, slice]":
        """The owned rectangle in tile-local coordinates."""
        return (
            slice(self.own_row0 - self.row0, self.own_row1 - self.row0),
            slice(self.own_col0 - self.col0, self.own_col1 - self.col0),
        )


class TileGrid:
    """Fixed-shape tile cover of one image, with an exact ownership partition.

    Parameters
    ----------
    image_height, image_width:
        Size of the image to cover.
    tile_height, tile_width:
        Requested tile shape.  An axis larger than the image is clamped to
        the image (a 4096-wide request over a 512-wide image yields
        512-wide tiles), so the effective shape — :attr:`tile_shape` — is
        what every emitted tile actually has.
    overlap:
        Nominal overlap in pixels between adjacent tiles on both axes.
        Must leave a positive stride (``overlap < min(tile_shape)``).
        Overlap buys seam context (each tile sees past its owned region)
        at the cost of re-segmenting the shared band twice.
    """

    def __init__(
        self,
        image_height: int,
        image_width: int,
        tile_height: int,
        tile_width: int,
        *,
        overlap: int = 0,
    ) -> None:
        if image_height < 1 or image_width < 1:
            raise ValueError(
                f"image size must be positive, got {image_height}x{image_width}"
            )
        if tile_height < 1 or tile_width < 1:
            raise ValueError(
                f"tile shape must be positive, got {tile_height}x{tile_width}"
            )
        if overlap < 0:
            raise ValueError(f"overlap must be non-negative, got {overlap}")
        self.image_height = int(image_height)
        self.image_width = int(image_width)
        tile_h = min(int(tile_height), self.image_height)
        tile_w = min(int(tile_width), self.image_width)
        if overlap >= min(tile_h, tile_w):
            raise ValueError(
                f"overlap {overlap} must be smaller than the effective tile "
                f"shape {tile_h}x{tile_w}"
            )
        self.tile_height = tile_h
        self.tile_width = tile_w
        self.overlap = int(overlap)
        row_starts = _tile_starts(self.image_height, tile_h, tile_h - self.overlap)
        col_starts = _tile_starts(self.image_width, tile_w, tile_w - self.overlap)
        row_bounds = [0, *_ownership_cuts(row_starts, tile_h), self.image_height]
        col_bounds = [0, *_ownership_cuts(col_starts, tile_w), self.image_width]
        self.boxes: list[TileBox] = []
        for gr, r0 in enumerate(row_starts):
            for gc, c0 in enumerate(col_starts):
                self.boxes.append(
                    TileBox(
                        index=len(self.boxes),
                        grid_row=gr,
                        grid_col=gc,
                        row0=r0,
                        row1=r0 + tile_h,
                        col0=c0,
                        col1=c0 + tile_w,
                        own_row0=row_bounds[gr],
                        own_row1=row_bounds[gr + 1],
                        own_col0=col_bounds[gc],
                        own_col1=col_bounds[gc + 1],
                    )
                )
        self.grid_shape = (len(row_starts), len(col_starts))

    @property
    def tile_shape(self) -> "tuple[int, int]":
        """The one ``(height, width)`` every emitted tile has."""
        return (self.tile_height, self.tile_width)

    @property
    def num_tiles(self) -> int:
        """Number of tiles covering the image."""
        return len(self.boxes)

    def describe(self) -> dict:
        """JSON-ready summary of the grid geometry."""
        return {
            "image_shape": [self.image_height, self.image_width],
            "tile_shape": list(self.tile_shape),
            "overlap": self.overlap,
            "grid_shape": list(self.grid_shape),
            "num_tiles": self.num_tiles,
        }
