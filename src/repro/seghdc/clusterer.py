"""HD K-Means clusterer (component 4 of SegHDC).

A revised K-Means over pixel hypervectors:

* the distance between a pixel HV and a centroid is the **cosine distance**
  (Eq. 7) — centroids are element-wise *sums* (bundles) of their members, so
  their length grows with cluster size, and cosine distance ignores length;
* the initial centroids are the pixels with the **largest color difference**
  (most extreme mean intensities), not random picks;
* the loop runs for at most ``num_iterations`` passes (10 by default in the
  paper, 3 in the latency experiments) with an exact fixed-point stop: it
  quits as soon as an assignment pass reproduces the previous labels, which
  is bit-identical to running every pass (see :meth:`HDKMeans.fit`);
* once the centroids are bundles, each pass hands the previous pass's
  :class:`~repro.hdc.backend.DotBounds` back to the assignment, which
  recomputes dots only for rows whose label could change, and the centroid
  update re-bundles only the rows that switched.  Both are exact, so the
  labels and centroids equal those of full passes.

The storage may hold each distinct pixel HV once: :meth:`HDKMeans.fit`
takes ``rows=``, the storage row of every pixel.  Seeds are picked per
pixel and mapped through ``rows``, member sums weight each row by its
pixel count (one weighted :meth:`~repro.hdc.backend.HDCBackend.bundle_masked`
call per update), and labels and history come back per pixel as
``labels[rows]`` — exactly the clustering of the full per-pixel matrix.
:class:`~repro.seghdc.engine.SegHDCEngine` always clusters this way.

The clusterer also exposes a **warm-start seam**: :meth:`HDKMeans.fit`
accepts ``initial_centroids=`` to seed the loop from externally supplied
centroids (e.g. the previous video frame's converged bundles) instead of
the largest-color-difference pixels.

The distance and bundling arithmetic is delegated to a
:class:`repro.hdc.backend.HDCBackend`.  Backends supply only exact integers
(pixel-centroid dots and bundle sums) and the cosine rule is decided
exactly, once, in :meth:`HDCBackend.assign`, so the clusterer returns the
same labels on dense uint8 hypervectors and on bit-packed ``uint64`` words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hdc.backend import (
    DenseBackend,
    HDCBackend,
    HVStorage,
    _integer_centroids,
    make_backend,
)

__all__ = ["ClusteringResult", "HDKMeans", "select_initial_centroid_indices"]


def select_initial_centroid_indices(
    intensities: np.ndarray, num_clusters: int
) -> np.ndarray:
    """Pick ``num_clusters`` pixel indices with the largest color difference.

    The pixels whose mean intensities sit at evenly spaced quantile extremes
    (minimum, maximum, and intermediate quantiles for k > 2) are selected, so
    the seed centroids are maximally spread along the intensity axis.  The
    picks index the stable argsort of the intensities.  Integer intensities
    (the engine's uint8 gray) are sorted as they are, not as float64: for
    8- and 16-bit integers numpy's stable sort is an O(n) radix sort.  NaN
    has no place on the intensity axis and is refused.
    """
    flat = np.asarray(intensities).reshape(-1)
    if num_clusters < 2:
        raise ValueError(f"num_clusters must be at least 2, got {num_clusters}")
    if flat.size < num_clusters:
        raise ValueError(
            f"need at least {num_clusters} pixels, got {flat.size}"
        )
    if flat.dtype.kind not in "iu":
        flat = flat.astype(np.float64)
        if np.isnan(flat).any():
            raise ValueError("intensities must not contain NaN")
    order = np.argsort(flat, kind="stable")
    # Evenly spaced picks along the sorted intensity axis: first, last, and
    # interior quantiles.  With n >= k pixels their spacing (n-1)/(k-1) is
    # exactly 1 or above 1, so the rounded picks are distinct.
    positions = np.linspace(0, flat.size - 1, num_clusters).round().astype(int)
    return order[positions]


@dataclass
class ClusteringResult:
    """Labels and centroids produced by :class:`HDKMeans`.

    ``labels`` has one entry per pixel (flattened).  ``history`` holds the
    label assignment after each iteration when history recording is enabled
    (needed to reproduce Fig. 8); it always has ``num_iterations`` entries,
    the passes skipped after the fixed point repeating its labels.
    ``iterations_run`` is the number of assignment passes actually
    executed: the pass that reached the fixed point, or ``num_iterations``
    if the labels were still changing.
    ``centroids`` is the ``(k, d)`` ``int64`` array of exact cluster
    bundles the last pass assigned against (integer member sums, or the
    seed / warm-start rows of a cluster that never had members); divide a
    float copy of it, not the array in place.
    ``warm_started`` records whether the run was seeded from externally
    supplied centroids instead of the intensity-extreme pixels.
    """

    labels: np.ndarray
    centroids: np.ndarray
    iterations_run: int
    history: list[np.ndarray] = field(default_factory=list)
    warm_started: bool = False


class HDKMeans:
    """K-Means over binary hypervectors with cosine distance.

    Parameters
    ----------
    num_clusters:
        Number of clusters ``k``.
    num_iterations:
        Maximum number of assignment/update rounds; the loop stops earlier
        at an exact fixed point (see :meth:`fit`).
    record_history:
        When true, the label vector after every iteration is kept.
    backend:
        Compute backend (name or instance) used for the similarity and
        bundling kernels.  Defaults to the dense uint8 backend.  When
        :meth:`fit` receives an :class:`HVStorage`, the storage's own backend
        takes precedence.
    """

    def __init__(
        self,
        num_clusters: int,
        num_iterations: int = 10,
        *,
        record_history: bool = False,
        backend: str | HDCBackend | None = None,
    ) -> None:
        if num_clusters < 2:
            raise ValueError(f"num_clusters must be at least 2, got {num_clusters}")
        if num_iterations < 1:
            raise ValueError(
                f"num_iterations must be at least 1, got {num_iterations}"
            )
        self.num_clusters = int(num_clusters)
        self.num_iterations = int(num_iterations)
        self.record_history = bool(record_history)
        self.backend = make_backend(backend) if backend is not None else DenseBackend()

    def fit(
        self,
        pixel_hvs: np.ndarray | HVStorage,
        intensities: np.ndarray,
        *,
        initial_centroids: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> ClusteringResult:
        """Cluster ``pixel_hvs`` (shape ``(n, d)``) into ``num_clusters`` groups.

        ``pixel_hvs`` may be a raw uint8 matrix or backend storage produced
        by :meth:`HDCBackend.pack` / the pixel producer.  ``intensities``
        supplies the per-pixel mean color values used to seed the centroids
        with the largest-color-difference pixels.  ``initial_centroids``
        (shape ``(num_clusters, dimension)``, non-negative integer bundles;
        anything else raises ``ValueError``) overrides that seeding — the
        warm-start seam: a video session passes the previous frame's
        converged centroid bundles so the loop starts next to the fixed
        point instead of at the intensity extremes.  Centroids stay exact
        ``int64`` bundles throughout, as :meth:`HDCBackend.assign` takes
        them.

        ``rows`` (one storage row index per pixel, covering every storage
        row) lets the storage hold each distinct pixel HV once: pixel ``i``
        is row ``rows[i]``.  Seeds are picked from the per-pixel
        ``intensities`` and mapped through ``rows``, member sums weight each
        row by its number of pixels, and the labels and history come back
        per pixel as ``labels[rows]``.  Identical rows get identical dots
        and labels, and a weighted sum is the sum of the copies, so the
        result equals clustering the full per-pixel matrix.  Without
        ``rows`` storage row ``i`` is pixel ``i``.

        The loop breaks as soon as an assignment pass returns the same
        labels as the previous pass.  Unchanged labels mean unchanged
        member sets, whose bundles are the centroids that pass just used
        (an empty cluster keeps its centroid either way), so every later
        pass would reproduce the same labels and centroids: the result is
        bit-identical to running all ``num_iterations`` passes.

        Each pass is one ``backend.assign`` call on the full storage.  From
        the first pass whose centroids were already bundles (pass 1 of a
        warm start, pass 2 of a cold one) the previous pass's dot bounds
        ride along, so only rows whose label could change are recomputed;
        a single-HV seed is too far from its bundle for any bound to hold.
        The member sums are exact and kept apart from the centroids: after
        the first full bundle they move by ``sum(joined) - sum(left)`` over
        the switched rows only.
        """
        if isinstance(pixel_hvs, HVStorage):
            storage = pixel_hvs
            backend = storage.backend
        else:
            hvs = np.asarray(pixel_hvs)
            if hvs.ndim != 2:
                raise ValueError(f"pixel_hvs must be 2-D, got shape {hvs.shape}")
            # Backend packing casts to uint8 and bit-packs, which would
            # silently corrupt non-binary input (floats truncate, larger
            # values wrap or saturate to single bits); reject it instead so
            # callers get an error rather than garbage labels.  Integer and
            # boolean inputs validate with allocation-free min/max
            # reductions — the HV matrix is the memory-dominant object, so a
            # same-size boolean temporary would double peak memory.
            if hvs.size:
                if hvs.dtype.kind in "bu":
                    binary = int(hvs.max()) <= 1
                elif hvs.dtype.kind == "i":
                    binary = int(hvs.min()) >= 0 and int(hvs.max()) <= 1
                else:
                    binary = bool(np.isin(hvs, (0, 1)).all())
                if not binary:
                    raise ValueError(
                        "pixel_hvs must contain only 0/1 values "
                        f"(got dtype {hvs.dtype} with other values)"
                    )
            backend = self.backend
            storage = backend.pack(hvs)
        weights = None
        num_pixels = storage.num_rows
        if rows is not None:
            rows = np.asarray(rows)
            if rows.ndim != 1 or rows.dtype.kind not in "iu":
                raise ValueError("rows must be a 1-D integer array")
            weights = np.bincount(rows, minlength=storage.num_rows)
            if weights.size != storage.num_rows or not weights.all():
                raise ValueError(
                    f"rows must map pixels onto all {storage.num_rows} "
                    "storage rows"
                )
            num_pixels = rows.size
        flat_intensity = np.asarray(intensities).reshape(-1)
        if flat_intensity.size != num_pixels:
            raise ValueError(
                f"intensities size {flat_intensity.size} does not match "
                f"number of pixels {num_pixels}"
            )
        if num_pixels < self.num_clusters:
            raise ValueError(
                f"cannot form {self.num_clusters} clusters from {num_pixels} pixels"
            )
        warm_started = initial_centroids is not None
        if warm_started:
            centroids = _integer_centroids(initial_centroids)
            expected = (self.num_clusters, storage.dimension)
            if centroids.shape != expected:
                raise ValueError(
                    f"initial_centroids must have shape {expected}, "
                    f"got {centroids.shape}"
                )
        else:
            seed_indices = select_initial_centroid_indices(
                flat_intensity, self.num_clusters
            )
            if rows is not None:
                seed_indices = rows[seed_indices]
            centroids = backend.unpack(storage, seed_indices).astype(np.int64)
        previous_labels: np.ndarray | None = None
        member_sums: np.ndarray | None = None
        bounds = None
        history: list[np.ndarray] = []
        for iterations_run in range(1, self.num_iterations + 1):
            labels, pass_bounds = backend.assign(storage, centroids, bounds=bounds)
            if self.record_history:
                history.append(labels.copy())
            if previous_labels is not None and np.array_equal(labels, previous_labels):
                # Fixed point: the members of every cluster are unchanged,
                # so the centroid update below would rebuild the exact
                # centroids this assignment just used; skip it and stop.
                break
            member_sums = self._update_member_sums(
                backend, storage, labels, previous_labels, member_sums, weights
            )
            # An empty cluster keeps its previous centroid.
            occupied = np.bincount(labels, minlength=self.num_clusters) > 0
            centroids = np.where(occupied[:, None], member_sums, centroids)
            if warm_started or previous_labels is not None:
                bounds = pass_bounds
            previous_labels = labels
        if self.record_history:
            # Every skipped pass would have reproduced the fixed point.
            history.extend(
                labels.copy() for _ in range(self.num_iterations - len(history))
            )
        if rows is not None:
            labels = labels[rows]
            history = [step[rows] for step in history]
        return ClusteringResult(
            labels=labels,
            centroids=centroids,
            iterations_run=iterations_run,
            history=history,
            warm_started=warm_started,
        )

    def _update_member_sums(
        self,
        backend: HDCBackend,
        storage: HVStorage,
        labels: np.ndarray,
        previous_labels: np.ndarray | None,
        member_sums: np.ndarray | None,
        weights: np.ndarray | None,
    ) -> np.ndarray:
        """Exact ``(k, d)`` ``int64`` bundles of each cluster's members.

        Without previous labels every row counts as switched into a zero
        sum, so each cluster is bundled in full; otherwise ``member_sums``
        is updated in place by the rows that switched:
        ``S_c += sum(joined_c) - sum(left_c)``, each row counted ``weights``
        times (once without weights).
        """
        if previous_labels is None:
            member_sums = np.zeros(
                (self.num_clusters, storage.dimension), dtype=np.int64
            )
            previous_labels = np.full_like(labels, -1)
        switched = labels != previous_labels
        for cluster in range(self.num_clusters):
            joined = switched & (labels == cluster)
            if joined.any():
                member_sums[cluster] += backend.bundle_masked(
                    storage, joined, weights
                )
            left = switched & (previous_labels == cluster)
            if left.any():
                member_sums[cluster] -= backend.bundle_masked(
                    storage, left, weights
                )
        return member_sums
