"""Reusable segmentation engine with cross-call encoder-grid caching.

:class:`SegHDCEngine` is the throughput-oriented entry point of the SegHDC
pipeline.  Where the one-shot :class:`repro.seghdc.pipeline.SegHDC` facade
used to rebuild the hypervector space, both encoders, and the full position
grid on every call, the engine builds them once per ``(height, width,
channels)`` image shape and reuses them for every subsequent image of that
shape:

* the **position grid** — the encoder's row and column HVs XOR-bound
  straight into backend storage by :meth:`HDCBackend.bind_position_grid`
  (bit-packed under the packed backend) — depends only on the
  configuration and the image shape, never on pixel values, so it is
  cached;
* the **color level tables** are cached next to it, backend-native
  (:meth:`HDCBackend.color_tables`);
* only the per-image level lookup, the table-gather XOR bind
  (:meth:`HDCBackend.bind_color`), and the clustering run per call.

The cache is a small LRU keyed by image shape; hit/miss/build counters are
exposed via :meth:`SegHDCEngine.cache_info` and recorded in every
``SegmentationResult.workload`` so callers can assert reuse.

Because the encoders are constructed from a freshly seeded
:class:`HypervectorSpace` exactly as the one-shot path did, cached and
uncached runs produce bit-identical label maps.

Concurrency
-----------

One engine may be shared by many threads: the LRU cache and its counters are
guarded by a lock, so concurrent :meth:`SegHDCEngine.segment` calls see exact
hit/miss/build counts and never build the same shape's grid twice.  The grid
build happens *under* the lock — deliberate, because a duplicate build costs
far more than the brief serialisation, and it keeps the counters exact for
tests.  The heavy per-image work (color bind, clustering) runs outside the
lock on shared read-only grids.

Across *processes* pickling an engine drops the cache and the lock, so a
freshly unpickled engine starts cold.  To stop cold-start grid builds from
scaling with worker count, the engine exposes an explicit **shared grid
cache** seam instead: :meth:`SegHDCEngine.export_shared_grids` snapshots
cached encoder bundles into a picklable payload and
:meth:`SegHDCEngine.import_shared_grids` installs such a payload into
another engine's cache *without* rebuilding (counted under
``shared_grid_imports``, with subsequent lookups that land on an imported
bundle also counted under ``shared_hits``).  The serving layer
(:mod:`repro.serving`) builds grids once in the parent and ships them to
process workers through this seam.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.api.result import SegmentationResult, normalize_image
from repro.hdc.backend import HDCBackend, HVStorage, make_backend
from repro.hdc.hypervector import HypervectorSpace
from repro.imaging.image import Image, to_grayscale
from repro.seghdc.clusterer import HDKMeans
from repro.seghdc.color_encoder import ColorEncoder, make_color_encoder
from repro.seghdc.config import SegHDCConfig
from repro.seghdc.position_encoder import make_position_encoder

__all__ = ["SegHDCEngine"]


@dataclass
class _EncoderBundle:
    """Everything the engine caches for one image shape."""

    color_encoder: ColorEncoder
    position_grid: HVStorage
    color_tables: list[tuple[int, np.ndarray]]


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
    cache_size:
        Maximum number of image shapes whose encoder grids are kept (LRU).
    max_cache_bytes:
        Byte budget for the cached position grids.  Least-recently-used
        entries beyond the budget are evicted, and a grid bigger than the
        whole budget is not retained at all (those shapes rebuild per call,
        like the historical pipeline), so a long-lived engine never pins
        more than this much grid memory — relevant for the dense backend,
        whose grids are 8x larger than packed ones.
    """

    def __init__(
        self,
        config: SegHDCConfig | None = None,
        *,
        cache_size: int = 4,
        max_cache_bytes: int = 512 * 1024 * 1024,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        if max_cache_bytes < 1:
            raise ValueError(
                f"max_cache_bytes must be positive, got {max_cache_bytes}"
            )
        self._config = config or SegHDCConfig()
        # The config's tunable surface (counter_depth, bundle_chunk_rows for
        # the packed backend) reaches the kernels here, so a --config-json
        # or run-spec override configures the bit-sliced bundling kernel.
        self.backend: HDCBackend = make_backend(
            self._config.backend, **self._config.backend_options()
        )
        self.cache_size = int(cache_size)
        self.max_cache_bytes = int(max_cache_bytes)
        self._cache: OrderedDict[tuple[int, int, int], _EncoderBundle] = OrderedDict()
        # Shape keys whose bundle arrived via import_shared_grids rather than
        # a local build; lookups landing on them count as shared_hits.
        self._imported_keys: set = set()
        # Temporal (video) mode: per-shape converged centroid bundles from
        # the most recent segmentation, used to seed the next same-shape
        # clustering run when ``config.warm_start`` is set.  Guarded by the
        # same lock as the grid cache; never pickled (history-dependent
        # state must not leak across process boundaries).
        self._warm_centroids: dict = {}
        self._lock = threading.RLock()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "oversize_skips": 0,
            "position_grid_builds": 0,
            "shared_grid_imports": 0,
            "shared_hits": 0,
        }

    def __getstate__(self) -> dict:
        """Pickle without the lock or the cached grids.

        Process pools ship engines (or configs that build them) to workers;
        locks are not picklable and a multi-hundred-MB grid cache should not
        ride along.  The unpickled engine starts with a cold cache and fresh
        counters — each worker process warms its own.
        """
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_cache"] = OrderedDict()
        state["_imported_keys"] = set()
        state["_warm_centroids"] = {}
        state["_counters"] = {key: 0 for key in self._counters}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

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
            self._imported_keys.clear()

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
        warm shape counts a hit.  The serving layer's shared grid cache uses
        this to build grids in the parent before exporting them to workers.
        """
        self._encoders_for_shape(int(height), int(width), int(channels))

    def estimated_grid_nbytes(self, height: int, width: int) -> int:
        """Predicted byte size of one shape's cached position grid.

        Pure arithmetic (no allocation), so callers can tell whether a
        shape's grid would exceed :attr:`max_cache_bytes` — and therefore
        never be retained or shareable — before paying for the build.
        """
        return self.backend.storage_nbytes(
            int(height) * int(width), self._config.dimension
        )

    # ------------------------------------------------------------------ #
    # cross-engine shared grid cache
    # ------------------------------------------------------------------ #
    def export_shared_grids(self, shapes=None) -> dict:
        """Picklable snapshot of cached encoder bundles, keyed by shape.

        Returns ``{"config": <this engine's config dict>, "grids": {(h, w,
        c): bundle, ...}}``.  ``shapes`` limits the export to the given
        ``(height, width, channels)`` keys (default: everything currently
        cached); shapes not in the cache — never built, evicted, or skipped
        as oversize — are silently absent from ``"grids"``, so callers can
        detect "not shareable" by the missing key.  The bundles are the
        cached objects themselves (grids are immutable once built);
        pickling them to another process copies the arrays, which is the
        intended use: build once in a parent engine, ship to worker engines
        via :meth:`import_shared_grids` so cold starts stop scaling with
        worker count.  The embedded config lets the importer verify the
        grids actually belong to its own hyper-parameters.
        """
        with self._lock:
            if shapes is None:
                keys = list(self._cache)
            else:
                keys = [tuple(shape) for shape in shapes]
            return {
                "config": self._config.to_dict(),
                "grids": {
                    key: self._cache[key] for key in keys if key in self._cache
                },
            }

    def import_shared_grids(self, state: dict) -> int:
        """Install exported encoder bundles into this engine's cache.

        The inverse of :meth:`export_shared_grids`: entries for shapes this
        engine has not built yet are adopted without a grid build (counted
        under ``shared_grid_imports``; later lookups that land on them also
        count under ``shared_hits``), entries already cached locally are
        ignored, and entries that exceed ``max_cache_bytes`` on their own
        are skipped like any oversize build.  The exporter's config must
        match this engine's exactly — grids encode the dimension, seed,
        and encoder hyper-parameters, so serving a mismatched grid would
        silently produce wrong labels; any differing field raises instead.
        Returns the number of entries actually installed.
        """
        exported_config = state.get("config")
        own_config = self._config.to_dict()
        if exported_config != own_config:
            mismatched = sorted(
                key
                for key in set(own_config) | set(exported_config or {})
                if (exported_config or {}).get(key) != own_config.get(key)
            )
            raise ValueError(
                "shared grids were exported by an engine with a different "
                f"config (mismatched field(s): {', '.join(mismatched)}); "
                "importing them would silently produce wrong labels"
            )
        installed = 0
        with self._lock:
            for raw_key, bundle in state["grids"].items():
                key = tuple(raw_key)
                if key in self._cache:
                    continue
                if bundle.position_grid.nbytes > self.max_cache_bytes:
                    self._counters["oversize_skips"] += 1
                    continue
                self._cache[key] = bundle
                self._imported_keys.add(key)
                self._counters["shared_grid_imports"] += 1
                installed += 1
            self._evict()
        return installed

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
            if key in self._imported_keys:
                # Served off a grid another engine built (shared cache).
                self._counters["shared_hits"] += 1
            self._cache.move_to_end(key)
            return bundle
        self._counters["misses"] += 1
        config = self.config
        # Fresh seeded space, position encoder first, color encoder second —
        # the exact construction order of the historical one-shot path, so
        # cached runs stay bit-identical to uncached ones.
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
        position_grid = self.backend.bind_position_grid(
            position_encoder.row_hypervectors(),
            position_encoder.column_hypervectors(),
        )
        self._counters["position_grid_builds"] += 1
        bundle = _EncoderBundle(
            color_encoder,
            position_grid,
            self.backend.color_tables(color_encoder.level_tables()),
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
            evicted_key, _ = self._cache.popitem(last=False)
            self._imported_keys.discard(evicted_key)
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
        pixel_storage = self.backend.bind_color(
            bundle.position_grid,
            bundle.color_encoder.level_indices(pixels),
            bundle.color_tables,
        )

        intensities = to_grayscale(pixels).astype(np.float64)
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
            pixel_storage, intensities, initial_centroids=initial_centroids
        )
        if config.warm_start:
            with self._lock:
                self._warm_centroids[shape_key] = clustering.centroids
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

    def segment_batch(
        self, images: "list[Image | np.ndarray]"
    ) -> list[SegmentationResult]:
        """Segment a sequence of images, reusing cached grids per shape.

        Same-shape images share one position grid and one set of color level
        tables, so for a homogeneous batch the encoders are built exactly
        once; the per-image work is the level lookup, the table-gather XOR
        bind, and the clustering.  Results come back in input order.
        """
        return [self.segment(image) for image in images]
