"""The SegHDC segmenter (Fig. 2): encoders -> pixel HVs -> HD K-Means.

:class:`SegHDCEngine` is the pipeline's one entry point, registered as
``"seghdc"`` in the central registry, so serving, experiments, and the CLI
build it from a declarative spec
(``make_segmenter({"segmenter": "seghdc", "config": {...}})``).  Rather
than rebuilding the hypervector space, both encoders, and the full position
grid on every call, the engine builds them once per ``(height, width,
channels)`` image shape and reuses them for every subsequent image of that
shape:

* the **position grid** — the encoder's row and column HVs XOR-bound
  straight into backend storage by :meth:`HDCBackend.bind_position_grid`
  (bit-packed under the packed backend) — depends only on the
  configuration and the image shape, never on pixel values, so it is
  cached;
* the **color level tables** are cached next to it, backend-native
  (:meth:`HDCBackend.color_tables`), and so are the per-pixel **position
  keys** that number each pixel's run of identical row HVs and of
  identical column HVs;
* only the per-image level lookup, the table-gather XOR bind
  (:meth:`HDCBackend.bind_color`), and the clustering run per call.

Every image is clustered over its **distinct pixel HVs**.  A pixel's key
is its position key followed by its level in each channel (mixed radix),
and pixels with equal keys have bit-identical HVs — block decay gives all
pixels of a ``beta x beta`` block one position HV.  One dedupe of the keys
(:func:`_distinct_keys`: a table scatter when the key space is at most
:data:`_KEY_TABLE_FACTOR` times the pixel count, ``np.unique`` otherwise)
picks a representative pixel per distinct HV; only those rows are bound,
:class:`HDKMeans` clusters them weighted by their pixel counts, and the
labels are broadcast back to the pixels.  The result is bit-identical to
clustering every pixel's copy, and ``workload["hv_storage_bytes"]``
counts the distinct rows.  The image is grayed once per call: a gray
image's levels and every image's seeding intensities come from that pass.

The cache is a small LRU keyed by image shape, bounded by the class
constants :attr:`SegHDCEngine.cache_size` (entries) and
:attr:`SegHDCEngine.max_cache_bytes` (grid bytes); hit/miss/build counters are
exposed via :meth:`SegHDCEngine.cache_info` and recorded in every
``SegmentationResult.workload`` so callers can assert reuse.

Concurrency
-----------

One engine may be shared by many threads: the LRU cache and its counters are
guarded by a lock, so concurrent :meth:`SegHDCEngine.segment` calls see exact
hit/miss/build counts and never build the same shape's grid twice.  The grid
build happens *under* the lock — deliberate, because a duplicate build costs
far more than the brief serialisation, and it keeps the counters exact for
tests.  The heavy per-image work (keys, color bind, clustering) runs
outside the lock on shared read-only grids.

Across *processes* an engine pickles by spec: it ships :meth:`describe`,
not its state, so an unpickled copy starts with a cold cache, fresh
counters, and no warm-start centroids, and builds each shape's grid once in
its own LRU.  The grid depends only on the config and the shape, so every
engine rebuilds it bit-exactly; the serving layer's process workers rely on
exactly that (one build per worker per shape).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.api.registry import make_segmenter, register_segmenter
from repro.api.result import SegmentationResult, normalize_image
from repro.hdc.backend import HDCBackend, HVStorage, make_backend
from repro.hdc.hypervector import HypervectorSpace
from repro.imaging.image import Image, to_grayscale
from repro.seghdc.clusterer import HDKMeans
from repro.seghdc.color_encoder import ColorEncoder, make_color_encoder
from repro.seghdc.config import SegHDCConfig
from repro.seghdc.position_encoder import make_position_encoder

__all__ = ["SegHDCEngine"]


_INT64_MAX = int(np.iinfo(np.int64).max)
#: Keys are deduped by a table scatter while the key space is at most this
#: many times the pixel count, and by ``np.unique``'s sort above it.  At
#: 4096 pixels (2 cores) the table takes 27-85 us up to 2x against 175-390
#: us for the sort, ties it near 4x-8x, and loses beyond, because it costs
#: O(key space).
_KEY_TABLE_FACTOR = 2


@dataclass
class _EncoderBundle:
    """Everything the engine caches for one image shape.

    ``position_keys[p]`` numbers pixel ``p``'s position group (its row run
    times the column-run count plus its column run, see
    :func:`_identical_runs`); pixels with equal keys have bit-identical
    position HVs.  ``position_groups`` bounds the keys.
    """

    color_encoder: ColorEncoder
    position_grid: HVStorage
    color_tables: list[tuple[int, np.ndarray]]
    position_keys: np.ndarray
    position_groups: int


def _identical_runs(table: np.ndarray) -> np.ndarray:
    """Run number of every row: runs are stretches of bit-identical
    consecutive rows.  A non-adjacent repeat starts a new run, which only
    leaves identical HVs unmerged (slower, never inexact)."""
    changes = np.any(table[1:] != table[:-1], axis=1)
    return np.concatenate([[0], np.cumsum(changes)]).astype(np.int64)


def _pixel_keys(
    position_keys: np.ndarray,
    position_groups: int,
    level_indices: "list[np.ndarray]",
    levels: "list[int]",
) -> tuple[np.ndarray, int]:
    """One ``int64`` key per pixel from its position group and its level in
    every channel, and the key space (every key lies below it); equal keys
    mean bit-identical pixel HVs.

    The keys are mixed radix, ``key * levels + level`` per channel.  If a
    channel would overflow ``int64``, the keys so far are first renumbered
    densely (``np.unique``'s inverse), which keeps them below the pixel
    count.
    """
    keys = position_keys
    groups = position_groups
    for indices, count in zip(level_indices, levels):
        if groups * count > _INT64_MAX:
            keys = np.unique(keys, return_inverse=True)[1].astype(np.int64)
            groups = int(keys.max()) + 1
        keys = keys * count + indices
        groups *= count
    return keys, groups


def _distinct_keys(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)[1:]``.

    ``first`` holds the first pixel of every distinct key in ascending key
    order and ``rows[p]`` the rank of pixel ``p``'s key among them, both
    ``intp``.  While the key space (``0 <= keys < space``) is at most
    :data:`_KEY_TABLE_FACTOR` times the pixel count, one table indexed by
    key finds both without a sort: ``np.minimum.at`` keeps each key's first
    pixel, and the same table then maps each present key to its rank.
    """
    num_pixels = keys.size
    if space > _KEY_TABLE_FACTOR * num_pixels:
        _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
        return first, rows
    table = np.full(space, num_pixels, dtype=np.intp)
    np.minimum.at(table, keys, np.arange(num_pixels))
    first = table[table < num_pixels]
    # Distinct targets, so no store overwrites another.
    table[keys[first]] = np.arange(first.size)
    return first, table[keys]


class SegHDCEngine:
    """Batch-capable SegHDC segmentation with cached encoder grids.

    Usage::

        engine = SegHDCEngine(SegHDCConfig.paper_defaults("dsb2018"))
        results = engine.segment_batch(images)   # grids built once per shape
        engine.cache_info()                      # {'hits': 7, 'misses': 1, ...}

    Parameters
    ----------
    config:
        Pipeline hyper-parameters; ``config.backend`` selects the compute
        backend.
    """

    #: Maximum number of image shapes whose encoder grids are kept (LRU).
    cache_size = 4
    #: Byte budget for the cached position grids.  Least-recently-used
    #: entries beyond the budget are evicted, and a grid bigger than the
    #: whole budget is not retained at all (those shapes rebuild per call),
    #: so a long-lived engine never pins more than this much grid memory —
    #: relevant for the dense backend, whose grids are 8x larger than
    #: packed ones.
    max_cache_bytes = 512 * 1024 * 1024

    def __init__(self, config: SegHDCConfig | None = None) -> None:
        self._config = config or SegHDCConfig()
        # The config's tunable surface (counter_depth, bundle_chunk_rows for
        # the packed backend) reaches the kernels here, so a --config-json
        # or run-spec override configures the bit-sliced bundling kernel.
        self.backend: HDCBackend = make_backend(
            self._config.backend, **self._config.backend_options()
        )
        self._cache: OrderedDict[tuple[int, int, int], _EncoderBundle] = OrderedDict()
        # Temporal (video) mode: per-shape converged centroid bundles from
        # the most recent segmentation, used to seed the next same-shape
        # clustering run when ``config.warm_start`` is set.  An LRU of at
        # most ``cache_size`` shapes, like the grid cache, so a client
        # sending distinct shapes cannot grow it without bound.  Guarded by
        # the same lock as the grid cache; never pickled (history-dependent
        # state must not leak across process boundaries).
        self._warm_centroids: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "oversize_skips": 0,
            "position_grid_builds": 0,
        }

    def describe(self) -> dict:
        """Spec dict that :func:`make_segmenter` turns back into an
        equivalent (cold-cache) engine."""
        return {"segmenter": "seghdc", "config": self._config.to_dict()}

    def __reduce__(self):
        # Pickle-by-spec: locks, cached grids and warm-start centroids never
        # cross a process boundary; the copy rebuilds from the config.
        return (make_segmenter, (self.describe(),))

    @property
    def config(self) -> SegHDCConfig:
        """The engine's configuration (read-only: the cached grids and the
        backend are derived from it, so build a new engine to change it)."""
        return self._config

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict:
        """Copy of the cache counters plus current occupancy (thread-safe)."""
        with self._lock:
            info = dict(self._counters)
            info["entries"] = len(self._cache)
            info["cached_grid_bytes"] = sum(
                bundle.position_grid.nbytes for bundle in self._cache.values()
            )
            return info

    def clear_cache(self) -> None:
        """Drop all cached encoder grids (counters are kept)."""
        with self._lock:
            self._cache.clear()

    def reset_warm_state(self) -> None:
        """Forget the per-shape warm-start centroids (temporal mode).

        The next segmentation of every shape seeds from the intensity
        extremes again, exactly like a cold engine — the seam a video
        session uses at a scene cut or between independent sequences.
        """
        with self._lock:
            self._warm_centroids.clear()

    def warm(self, height: int, width: int, channels: int = 1) -> None:
        """Eagerly build (or touch) the encoder grids for one image shape.

        Equivalent to segmenting a first image of that shape, minus the
        per-image work: a cold shape counts one miss and one grid build, a
        warm shape counts a hit.  Use it to take a shape's grid build off
        the first request's latency.
        """
        self._encoders_for_shape(int(height), int(width), int(channels))

    def estimated_grid_nbytes(self, height: int, width: int) -> int:
        """Predicted byte size of one shape's cached position grid.

        Pure arithmetic (no allocation), so callers can tell whether a
        shape's grid would exceed :attr:`max_cache_bytes` — and therefore
        never be retained — before paying for the build.
        """
        return self.backend.storage_nbytes(
            int(height) * int(width), self._config.dimension
        )

    def _encoders_for_shape(
        self, height: int, width: int, channels: int
    ) -> _EncoderBundle:
        with self._lock:
            return self._encoders_for_shape_locked(height, width, channels)

    def _encoders_for_shape_locked(
        self, height: int, width: int, channels: int
    ) -> _EncoderBundle:
        key = (height, width, channels)
        bundle = self._cache.get(key)
        if bundle is not None:
            self._counters["hits"] += 1
            self._cache.move_to_end(key)
            return bundle
        self._counters["misses"] += 1
        config = self.config
        # Fresh seeded space, position encoder first, color encoder second —
        # one fixed construction order, so every build of a shape (cached,
        # evicted and rebuilt, or in another process) is bit-identical.
        space = HypervectorSpace(config.dimension, seed=config.seed)
        position_encoder = make_position_encoder(
            config.position_encoding,
            space,
            height,
            width,
            alpha=config.alpha,
            beta=config.beta,
        )
        color_encoder = make_color_encoder(
            config.color_encoding,
            space,
            channels,
            levels=config.color_levels,
            gamma=config.gamma,
        )
        row_hvs = position_encoder.row_hypervectors()
        column_hvs = position_encoder.column_hypervectors()
        position_grid = self.backend.bind_position_grid(row_hvs, column_hvs)
        self._counters["position_grid_builds"] += 1
        row_runs = _identical_runs(row_hvs)
        column_runs = _identical_runs(column_hvs)
        column_groups = int(column_runs[-1]) + 1
        bundle = _EncoderBundle(
            color_encoder,
            position_grid,
            self.backend.color_tables(color_encoder.level_tables()),
            (row_runs[:, None] * column_groups + column_runs).reshape(-1),
            (int(row_runs[-1]) + 1) * column_groups,
        )
        if position_grid.nbytes > self.max_cache_bytes:
            # A grid larger than the whole byte budget is never retained:
            # pinning it would keep gigabytes resident after ``segment``
            # returns (a 520x696 dense grid at d=10,000 is ~3.6 GB).  It is
            # also not allowed to flush the smaller, still-hot entries, so
            # such shapes simply fall back to the historical build-per-call
            # behavior — visible as repeated misses and ``oversize_skips``
            # in :meth:`cache_info`.
            self._counters["oversize_skips"] += 1
            return bundle
        self._cache[key] = bundle
        self._evict()
        return bundle

    def _evict(self) -> None:
        """Drop least-recently-used entries beyond the entry or byte budget."""
        def cached_bytes() -> int:
            return sum(b.position_grid.nbytes for b in self._cache.values())

        while self._cache and (
            len(self._cache) > self.cache_size
            or cached_bytes() > self.max_cache_bytes
        ):
            self._cache.popitem(last=False)
            self._counters["evictions"] += 1

    # ------------------------------------------------------------------ #
    # segmentation
    # ------------------------------------------------------------------ #
    def segment(self, image: Image | np.ndarray) -> SegmentationResult:
        """Segment one image into ``config.num_clusters`` clusters."""
        pixels, (height, width, channels) = normalize_image(image)
        config = self.config
        start = time.perf_counter()

        bundle = self._encoders_for_shape(height, width, channels)
        gray = to_grayscale(pixels)
        pixel_storage, rows = self._bind_distinct_pixels(
            bundle, gray if channels == 1 else pixels
        )

        clusterer = HDKMeans(
            config.num_clusters,
            config.num_iterations,
            record_history=config.record_history,
            backend=self.backend,
        )
        shape_key = (height, width, channels)
        initial_centroids = None
        if config.warm_start:
            with self._lock:
                initial_centroids = self._warm_centroids.get(shape_key)
        clustering = clusterer.fit(
            pixel_storage,
            gray,
            initial_centroids=initial_centroids,
            rows=rows,
        )
        if config.warm_start:
            with self._lock:
                self._warm_centroids[shape_key] = clustering.centroids
                self._warm_centroids.move_to_end(shape_key)
                while len(self._warm_centroids) > self.cache_size:
                    self._warm_centroids.popitem(last=False)
        elapsed = time.perf_counter() - start

        labels = clustering.labels.reshape(height, width)
        history = [step.reshape(height, width) for step in clustering.history]
        workload = {
            "height": height,
            "width": width,
            "channels": channels,
            "dimension": config.dimension,
            "num_clusters": config.num_clusters,
            "num_iterations": config.num_iterations,
            "iterations_run": clustering.iterations_run,
            "warm_started": clustering.warm_started,
            "num_pixels": height * width,
            "backend": self.backend.name,
            "backend_capabilities": self.backend.capabilities(),
            "hv_storage_bytes": pixel_storage.nbytes,
            "cache": self.cache_info(),
        }
        return SegmentationResult(
            labels=labels,
            elapsed_seconds=elapsed,
            num_clusters=config.num_clusters,
            history=history,
            workload=workload,
        )

    def _bind_distinct_pixels(
        self, bundle: _EncoderBundle, pixels: np.ndarray
    ) -> tuple[HVStorage, np.ndarray]:
        """Each distinct pixel HV of the image once, and every pixel's row.

        Pixels with equal :func:`_pixel_keys` have bit-identical HVs, so
        one :func:`_distinct_keys` dedupe yields a representative pixel per
        distinct HV (the rows :meth:`HDCBackend.bind_color` builds) and the
        pixel-to-row map :meth:`HDKMeans.fit` broadcasts labels back with.
        """
        level_indices = bundle.color_encoder.level_indices(pixels)
        keys, space = _pixel_keys(
            bundle.position_keys,
            bundle.position_groups,
            level_indices,
            [table.shape[0] for _, table in bundle.color_tables],
        )
        first, rows = _distinct_keys(keys, space)
        storage = self.backend.bind_color(
            bundle.position_grid,
            [indices[first] for indices in level_indices],
            bundle.color_tables,
            first,
        )
        return storage, rows

    def segment_batch(
        self, images: "list[Image | np.ndarray]"
    ) -> list[SegmentationResult]:
        """Segment a sequence of images, reusing cached grids per shape.

        Same-shape images share one position grid and one set of color level
        tables, so for a homogeneous batch the encoders are built exactly
        once; the per-image work is the level lookup, the distinct-pixel
        keys, the table-gather XOR bind, and the clustering.  Results come back in input order.
        """
        return [self.segment(image) for image in images]


register_segmenter(
    "seghdc",
    factory=SegHDCEngine,
    config_cls=SegHDCConfig,
    description="Binary-HDC unsupervised segmentation (the paper's method)",
    overwrite=True,  # module re-import (e.g. after a failed first import) is idempotent
)
