"""The tiling segmenter: gigapixel images through any registered base.

:class:`TiledSegmenter` (registered as ``"tiled"``) wraps a *base*
segmenter: it cuts an arbitrarily large image into the fixed-shape tiles
of a :class:`repro.tiling.grid.TileGrid`, runs the base over the tiles,
and stitches the per-tile label maps into one seam-consistent global
result (:mod:`repro.tiling.stitch`).  Because every tile of an image has
the *same* shape, the whole image costs the base exactly one encoder-grid
build — and behind the cluster gateway's shape-affinity ring, all of an
image's tiles hash to the same warm replica.

How the tiles actually run is pluggable: by default they go through the
base segmenter's own ``segment_batch``, but a ``tile_runner`` callable can
reroute them through a :class:`repro.serving.SegmentationServer` or the
HTTP/cluster wire (the ``seghdc tile`` CLI does both).  The runner is an
execution detail, not part of the spec: ``describe()`` always
reconstructs the serial form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.api.registry import make_segmenter, register_segmenter, segmenter_entry
from repro.api.result import SegmentationResult, normalize_image
from repro.imaging.image import Image, to_grayscale
from repro.tiling.grid import TileGrid
from repro.tiling.stitch import StitchResult, stitch_tiles

__all__ = ["TiledConfig", "TiledSegmenter"]


@dataclass(frozen=True)
class TiledConfig:
    """Hyper-parameters of the tiling segmenter.

    Attributes
    ----------
    base:
        Registered name of the per-tile segmenter (any registry entry
        except ``"tiled"`` itself — no recursive tiling).
    base_config:
        Config overrides for the base, validated against its config class
        and normalised to the full config dict on construction.
    tile_height, tile_width:
        Requested tile shape; axes larger than an image clamp to it (see
        :class:`repro.tiling.grid.TileGrid` — the emitted tile shape is
        identical for every tile of one image).
    overlap:
        Pixels of nominal overlap between adjacent tiles.  Zero keeps each
        pixel segmented exactly once; positive overlap gives tiles seam
        context at the cost of re-segmenting the shared bands.
    connectivity:
        4 or 8; adjacency used when merging segments across seams.
    """

    base: str = "seghdc"
    base_config: dict = field(default_factory=dict)
    tile_height: int = 64
    tile_width: int = 64
    overlap: int = 0
    connectivity: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.base, str) or not self.base:
            raise ValueError(
                f"field 'base' must be a registered segmenter name, "
                f"got {self.base!r}"
            )
        if self.base.strip().lower() == "tiled":
            raise ValueError("the tiled segmenter cannot tile itself")
        entry = segmenter_entry(self.base)  # raises with the available list
        object.__setattr__(self, "base", entry.name)
        if not isinstance(self.base_config, Mapping):
            raise ValueError(
                f"field 'base_config' must be a mapping of "
                f"{entry.config_cls.__name__} overrides, got {self.base_config!r}"
            )
        from repro.api.spec import config_from_dict, config_to_dict

        parsed = config_from_dict(entry.config_cls, dict(self.base_config))
        object.__setattr__(self, "base_config", config_to_dict(parsed))
        for name in ("tile_height", "tile_width"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.overlap < 0:
            raise ValueError(f"overlap must be non-negative, got {self.overlap}")
        if self.overlap >= min(self.tile_height, self.tile_width):
            raise ValueError(
                f"overlap {self.overlap} must be smaller than the tile shape "
                f"{self.tile_height}x{self.tile_width}"
            )
        if self.connectivity not in (4, 8):
            raise ValueError(
                f"connectivity must be 4 or 8, got {self.connectivity}"
            )

    def to_dict(self) -> dict:
        """JSON-ready dict of the config (see :meth:`from_dict`)."""
        from repro.api.spec import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data) -> "TiledConfig":
        """Validated inverse of :meth:`to_dict` (unknown keys raise)."""
        from repro.api.spec import config_from_dict

        return config_from_dict(cls, data)

    def grid_for(self, height: int, width: int) -> TileGrid:
        """The tile grid this config cuts an ``height x width`` image into."""
        return TileGrid(
            height,
            width,
            self.tile_height,
            self.tile_width,
            overlap=self.overlap,
        )


class TiledSegmenter:
    """Fixed-shape tiling + seam-consistent stitching over a base segmenter.

    Implements the :class:`repro.api.Segmenter` protocol and is registered
    as ``"tiled"``.  ``segment`` returns the stitched **canonical cluster
    map** (clusters renumbered by ascending mean intensity — the same
    convention :func:`repro.tiling.stitch.canonical_labels` applies to a
    whole-image reference, which is what makes tiled output bit-comparable
    to direct segmentation); :meth:`segment_instances` additionally returns
    the merged global segment map.

    Parameters
    ----------
    config:
        A :class:`TiledConfig` (default: 64x64 seghdc tiles, no overlap).
    tile_runner:
        Optional callable ``tiles -> list[SegmentationResult]`` that
        replaces the base's ``segment_batch`` — the seam the CLI uses to
        fan tiles through a serving pool or the cluster gateway.  Not part
        of the spec: a described/pickled copy runs serially.
    """

    def __init__(
        self,
        config: "TiledConfig | None" = None,
        *,
        tile_runner: "Callable | None" = None,
    ) -> None:
        self.config = config or TiledConfig()
        self._base = make_segmenter(
            {"segmenter": self.config.base, "config": dict(self.config.base_config)}
        )
        self._tile_runner = tile_runner

    @property
    def base(self):
        """The wrapped per-tile segmenter instance."""
        return self._base

    def describe(self) -> dict:
        """Spec dict that :func:`make_segmenter` turns back into an
        equivalent (serial) tiled segmenter."""
        return {"segmenter": "tiled", "config": self.config.to_dict()}

    def __reduce__(self):
        # Pickle-by-spec: a process-pool copy rebuilds the serial form (the
        # tile_runner, if any, is an execution detail of this instance).
        return (make_segmenter, (self.describe(),))

    def _run_tiles(self, tiles: "list[np.ndarray]") -> "list[SegmentationResult]":
        """Run the tiles through the injected runner or the base, in order."""
        runner = self._tile_runner
        results = (
            list(runner(tiles)) if runner is not None
            else self._base.segment_batch(tiles)
        )
        if len(results) != len(tiles):
            raise ValueError(
                f"tile runner returned {len(results)} results for "
                f"{len(tiles)} tiles"
            )
        return results

    def segment_instances(
        self, image: "Image | np.ndarray"
    ) -> "tuple[SegmentationResult, StitchResult]":
        """Segment one image; return the protocol result *and* the full
        stitch output (global segment map, seam statistics)."""
        pixels, (height, width, _channels) = normalize_image(image)
        config = self.config
        start = time.perf_counter()
        grid = config.grid_for(height, width)
        tiles = [pixels[box.tile_slices] for box in grid.boxes]
        results = self._run_tiles(tiles)
        tile_labels = [result.labels for result in results]
        # Gray is pointwise, so slicing the grayed image equals graying
        # each tile.
        gray = to_grayscale(pixels)
        tile_intensities = [gray[box.tile_slices] for box in grid.boxes]
        stitch_start = time.perf_counter()
        stitched = stitch_tiles(
            tile_labels,
            tile_intensities,
            grid,
            connectivity=config.connectivity,
        )
        stitch_end = time.perf_counter()
        elapsed = stitch_end - start
        # Summed per-tile compute; can exceed the wall time when an
        # injected runner executes tiles in parallel.
        tile_seconds = float(sum(result.elapsed_seconds for result in results))
        workload = {
            "height": height,
            "width": width,
            "num_pixels": height * width,
            "base": config.base,
            "tiling": dict(stitched.stats),
            "tile_seconds": tile_seconds,
            "stitch_seconds": stitch_end - stitch_start,
        }
        protocol_result = SegmentationResult(
            labels=stitched.cluster_labels,
            elapsed_seconds=elapsed,
            num_clusters=stitched.stats["num_clusters"],
            workload=workload,
        )
        return protocol_result, stitched

    def segment(self, image: "Image | np.ndarray") -> SegmentationResult:
        """Segment one image into a stitched canonical cluster map."""
        result, _stitched = self.segment_instances(image)
        return result

    def segment_batch(
        self, images: "list[Image | np.ndarray]"
    ) -> "list[SegmentationResult]":
        """Segment a sequence of images; results come back in input order."""
        return [self.segment(image) for image in images]


register_segmenter(
    "tiled",
    factory=TiledSegmenter,
    config_cls=TiledConfig,
    description="Fixed-shape tiling + seam-consistent stitching over a base segmenter",
    overwrite=True,  # module re-import is idempotent
)
