"""Pluggable compute backends for binary hypervector kernels.

The SegHDC hot path needs exactly three kernels:

1. **XOR-bind** of the row/column position grids and of position HVs with
   color HVs (producing the per-pixel HV matrix);
2. **exact integer dots of pixel HVs against integer-valued centroids**,
   from which :meth:`HDCBackend.assign` makes the cosine assignment of the
   HD K-Means clusterer;
3. **masked bundling** (element-wise summation of the member HVs of one
   cluster, producing the next centroid).

A :class:`HDCBackend` owns the storage format of the pixel-HV matrix and the
implementation of these kernels, so the rest of the pipeline never touches
raw bits directly:

* :class:`DenseBackend` stores one byte per bit (``uint8`` 0/1 arrays) and
  computes the dots with a float64 matmul, exact because every partial sum
  is an integer far below ``2^53``.  It is the oracle.
* :class:`PackedBackend` (the default) stores hypervectors as ``uint64``
  words from ``np.packbits`` (~8x less memory).  Its dots decompose the
  centroids into binary bit-planes, ``x . c = sum_j 2^j * popcount(x &
  plane_j)``, and its masked bundling is a **bit-sliced vertical-count
  kernel** of word-wide 3:2 carry-save adders that never materialises the
  dense ``(n, d)`` matrix (see :meth:`PackedBackend.bundle_masked`).

**Small slabs.**  Those word kernels issue a numpy call per bit-plane,
cluster and weight level, so on a handful of rows their cost is Python
call overhead, not arithmetic: a 64x64 tile clusters about 16 distinct
rows.  A packed ``dots`` or ``bundle_masked`` call whose rows unpack to at
most :data:`SMALL_SLAB_BITS` bits (``rows x d``) is therefore unpacked once
and computed with the dense backend's exact arithmetic instead: one
float64 matmul for the dots and one integer ``weights @ bits`` product for
a weighted bundle.  Both are exact integers, so the results are
bit-identical to the word kernels; larger slabs keep the word kernels,
which win once the unpacked matrix outgrows the call overhead.

Backends supply only exact integers — dots and bundle sums.  The cosine
rule (normalisation, argmax, tie-break) exists once, in
:meth:`HDCBackend.assign`, so both backends produce identical label maps
for a fixed seed by construction.  The same method prunes later passes:
given the :class:`DotBounds` of the previous pass it dots only the rows
whose label the exact centroid drift leaves in doubt.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.hdc.hypervector import (
    packed_words_per_hv,
    pack_hvs,
    unpack_hvs,
)

__all__ = [
    "ASSIGN_CHUNK_ROWS",
    "DenseBackend",
    "DotBounds",
    "HDCBackend",
    "HVStorage",
    "PackedBackend",
    "SMALL_SLAB_BITS",
    "available_backends",
    "make_backend",
    "popcount_words",
    "popcount16_table",
    "validate_bundling_tunables",
]

#: Rows per chunk when :meth:`HDCBackend.dots` converts pixel HVs, bounding
#: the assignment's transient memory for large images.  The device cost
#: model imports it so the modelled peak memory matches the implementation.
ASSIGN_CHUNK_ROWS = 8192

#: Largest packed slab, in unpacked bits (``rows x d``), that
#: :class:`PackedBackend` computes by unpacking it once instead of with its
#: word kernels.  Set at the measured crossover for d in {256, 1024, 2000,
#: 10000} on 2 cores: up to 2^16 bits the unpack-once path wins the dots at
#: every d and the unit-weight bundles at every d but 10000, where they tie
#: (75 vs 71 us); at 2^17 bits the word kernels already win unit-weight
#: bundles at d = 1024 and 10000.
SMALL_SLAB_BITS = 1 << 16

#: Largest integer a float64 holds exactly; float64 dots are exact while
#: every partial sum stays at or below it.
_FLOAT64_EXACT = 1 << 53
#: float64 machine epsilon, for the cosine rule's rounding margin.
_FLOAT64_EPS = float(np.finfo(np.float64).eps)


def validate_bundling_tunables(
    counter_depth: int, bundle_chunk_rows: int
) -> tuple[int, int]:
    """Bounds-check the bit-sliced bundling tunables; returns them as ints.

    Single source of truth for the legal tunable ranges —
    :class:`PackedBackend`, ``SegHDCConfig``, and the device model's
    ``packed_bundle_cost`` all validate through here, so the kernel, the
    config layer, and the cost formula can never disagree about what is a
    valid ``counter_depth`` (the ``<= 62`` bound keeps every plane weight
    ``2^j`` representable in ``int64``).
    """
    for name, value in (
        ("counter_depth", counter_depth),
        ("bundle_chunk_rows", bundle_chunk_rows),
    ):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if not (1 <= counter_depth <= 62):
        raise ValueError(
            f"counter_depth must be in [1, 62], got {counter_depth}"
        )
    if bundle_chunk_rows < 1:
        raise ValueError(
            f"bundle_chunk_rows must be positive, got {bundle_chunk_rows}"
        )
    return int(counter_depth), int(bundle_chunk_rows)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCOUNT16: np.ndarray | None = None


def popcount16_table() -> np.ndarray:
    """The 16-bit popcount lookup table (built once, 64 KiB of ``uint8``).

    Entry ``i`` holds the number of set bits of ``i``.  Looking packed words
    up 16 bits at a time keeps the whole table inside L1/L2 cache, which is
    what makes this the standard software popcount on devices without a
    population-count instruction.
    """
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        values = np.arange(1 << 16, dtype=np.uint32)
        values = values - ((values >> 1) & 0x5555)
        values = (values & 0x3333) + ((values >> 2) & 0x3333)
        values = (values + (values >> 4)) & 0x0F0F
        _POPCOUNT16 = ((values + (values >> 8)) & 0x1F).astype(np.uint8)
    return _POPCOUNT16


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D array of ``uint64`` words, as ``int64``.

    Uses the hardware-backed ``np.bitwise_count`` ufunc when numpy provides
    it and the 16-bit lookup table otherwise; both return identical counts.
    """
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D word array, got shape {words.shape}")
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    table = popcount16_table()
    return table[np.ascontiguousarray(words).view(np.uint16)].sum(
        axis=1, dtype=np.int64
    )


def _integer_centroids(centroids: np.ndarray) -> np.ndarray:
    """Centroid bundles as ``int64``; refuses non-integer or negative ones."""
    values = np.asarray(centroids)
    integral = values.astype(np.int64)
    if values.dtype.kind not in "iu" and not (integral == values).all():
        raise ValueError(
            "cosine assignment needs integer-valued centroids (bundles)"
        )
    if integral.size and integral.min() < 0:
        raise ValueError("centroid bundles must be non-negative")
    return integral


def _exact_argmax(dots: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Per row, the lowest index maximising ``dot_j / ||c_j||``, exactly.

    Dots and norms are non-negative, so ``dot_a / ||c_a|| > dot_b / ||c_b||``
    iff ``dot_a^2 * ||c_b||^2 > dot_b^2 * ||c_a||^2``.  Both sides are Python
    ints (``||c||^2`` passes ``2^63`` near 30 Mpx at d = 10^4), and the
    strict comparison keeps the lower index on exact ties.
    """
    norms_sq = [max(1, sum(v * v for v in row)) for row in centroids.tolist()]
    labels = []
    for row in dots.tolist():
        best = 0
        for j in range(1, len(row)):
            if row[j] ** 2 * norms_sq[best] > row[best] ** 2 * norms_sq[j]:
                best = j
        labels.append(best)
    return np.array(labels, dtype=np.intp)


def _rank(
    dots: np.ndarray, centroids: np.ndarray, norms: np.ndarray, margin: float
) -> np.ndarray:
    """The cosine rule over exact dots: float64 ``dot / ||c||`` ranking,
    with rows whose runner-up key lies within ``margin`` (relative) of the
    best re-decided by :func:`_exact_argmax`."""
    keys = dots / norms
    labels = np.argmax(keys, axis=1)
    best = keys[np.arange(labels.size), labels]
    near = np.count_nonzero(keys >= (best * (1.0 - margin))[:, None], axis=1) > 1
    if near.any():
        labels[near] = _exact_argmax(dots[near], centroids)
    return labels


@dataclass(eq=False)
class DotBounds:
    """Per-row integer intervals ``lo <= x_i . c_j <= hi`` from one assign pass.

    ``lo`` and ``hi`` are ``(n, k)`` ``int64``, ``centroids`` the ``(k, d)``
    ``int64`` bundles they refer to, and ``rechecked`` the number of rows
    whose dots the pass computed exactly (those rows have ``lo == hi``; the
    others kept their widened intervals).  Nothing writes these arrays
    after construction, so ``lo`` and ``hi`` may share memory.
    """

    lo: np.ndarray
    hi: np.ndarray
    centroids: np.ndarray
    rechecked: int

    def widened(
        self, centroids: np.ndarray, popcounts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """New ``(lo, hi)`` valid against ``centroids``, integer-exact.

        For a binary row ``x`` with ``p`` set bits, ``x . delta`` (``delta``
        the centroid change) lies between the sum of the ``p`` smallest and
        the sum of the ``p`` largest entries of ``delta``: the exact worst
        case, read per row from prefix sums of the sorted ``delta``.  For
        binary rows this is never looser than Cauchy-Schwarz.
        """
        if centroids.shape != self.centroids.shape or self.lo.shape != (
            popcounts.size,
            centroids.shape[0],
        ):
            raise ValueError(
                f"bounds for {self.lo.shape[0]} rows x {self.centroids.shape} "
                f"centroids do not fit {popcounts.size} rows x {centroids.shape}"
            )
        ascending = np.sort(centroids - self.centroids, axis=1)
        start = np.zeros((centroids.shape[0], 1), dtype=np.int64)
        smallest = np.concatenate([start, np.cumsum(ascending, axis=1)], axis=1)
        largest = np.concatenate(
            [start, np.cumsum(ascending[:, ::-1], axis=1)], axis=1
        )
        return (
            self.lo + smallest[:, popcounts].T,
            self.hi + largest[:, popcounts].T,
        )


@dataclass(eq=False)
class HVStorage:
    """A batch of hypervectors in backend-native row storage.

    ``data`` is ``(n, d)`` ``uint8`` for the dense backend and
    ``(n, ceil(d/64))`` ``uint64`` for the packed backend; ``dimension`` is
    always the logical bit dimension ``d``.  Identity-compared (``eq=False``):
    a generated ``__eq__`` over ndarray fields would raise on use.
    """

    data: np.ndarray
    dimension: int
    backend: "HDCBackend"
    _row_popcounts: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_rows(self) -> int:
        """Number of hypervector rows stored."""
        return self.data.shape[0]

    @property
    def nbytes(self) -> int:
        """Backing-array footprint in bytes."""
        return int(self.data.nbytes)

    def row_popcounts(self) -> np.ndarray:
        """Number of set bits per row (cached; rows never mutate)."""
        if self._row_popcounts is None:
            self._row_popcounts = self.backend.count_row_bits(self)
        return self._row_popcounts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HVStorage(backend={self.backend.name!r}, rows={self.num_rows}, "
            f"dimension={self.dimension}, nbytes={self.nbytes})"
        )


class HDCBackend(ABC):
    """Storage format + the three HV kernels the SegHDC pipeline needs."""

    name: str = "abstract"
    #: HV bits per storage column (the unit :meth:`color_tables` pads to).
    column_bits: int = 1

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #
    @abstractmethod
    def pack(self, dense_hvs: np.ndarray) -> HVStorage:
        """Convert a ``(n, d)`` uint8 0/1 matrix into backend storage."""

    @abstractmethod
    def unpack(self, storage: HVStorage, indices: np.ndarray | None = None) -> np.ndarray:
        """Recover ``(m, d)`` uint8 0/1 rows (all rows, or ``indices``)."""

    @abstractmethod
    def count_row_bits(self, storage: HVStorage) -> np.ndarray:
        """Popcount of every row, as an ``int64`` vector."""

    @abstractmethod
    def storage_nbytes(self, num_rows: int, dimension: int) -> int:
        """Bytes a ``(num_rows, dimension)`` :class:`HVStorage` occupies.

        A pure size prediction — no allocation — so callers (the engine's
        cache budget) can decide whether a grid is worth retaining before
        paying for it.
        """

    # ------------------------------------------------------------------ #
    # kernel 1: XOR binding
    # ------------------------------------------------------------------ #
    @abstractmethod
    def bind_position_grid(
        self, row_hvs: np.ndarray, col_hvs: np.ndarray
    ) -> HVStorage:
        """XOR-bind per-row and per-column HVs into the flattened position
        grid ``p(i, j) = r_i ^ c_j``, shape ``(height * width, d)`` logical."""

    def color_tables(
        self, level_tables: "list[np.ndarray]"
    ) -> list[tuple[int, np.ndarray]]:
        """Each channel's ``(levels, d_c)`` uint8 level table, zero-padded
        out to :attr:`column_bits` boundaries and packed, as ``(start,
        table)``: the channel's bits sit inside storage columns
        ``start:start + table.shape[1]``, zeros elsewhere, so channels that
        share a boundary column XOR apart."""
        tables = []
        offset = 0
        for table in level_tables:
            table = np.asarray(table, dtype=np.uint8)
            start, lead = divmod(offset, self.column_bits)
            columns = -(-(lead + table.shape[1]) // self.column_bits)
            padded = np.zeros(
                (table.shape[0], columns * self.column_bits), dtype=np.uint8
            )
            padded[:, lead : lead + table.shape[1]] = table
            tables.append((start, self.pack(padded).data))
            offset += table.shape[1]
        return tables

    def bind_color(
        self,
        position_grid: HVStorage,
        level_indices: "list[np.ndarray]",
        tables: "list[tuple[int, np.ndarray]]",
        rows: np.ndarray,
    ) -> HVStorage:
        """XOR position-grid rows with their pixels' color HVs.

        Output row ``i`` is grid row ``rows[i]`` bound with the color HV
        whose level in channel ``c`` is ``level_indices[c][i]``, so the
        engine builds only the distinct pixel HVs of an image (pass
        ``np.arange(num_pixels)`` and every pixel's levels for the whole
        image).  A pixel's color HV is the concatenation of one level-table
        row per channel (Fig. 4), so binding is a gather from ``tables``
        (see :meth:`color_tables`).  Only one channel's gathered columns
        are alive at a time.
        """
        out = position_grid.data[rows]
        for (start, table), indices in zip(tables, level_indices):
            out[:, start : start + table.shape[1]] ^= table[indices]
        return HVStorage(out, position_grid.dimension, self)

    # ------------------------------------------------------------------ #
    # kernel 2: dots against centroids, and the one cosine rule over them
    # ------------------------------------------------------------------ #
    @abstractmethod
    def dots(self, storage: HVStorage, centroids: np.ndarray) -> np.ndarray:
        """Exact ``int64`` dot of every row with every centroid, ``(n, k)``.

        ``centroids`` is the ``(k, d)`` ``int64`` matrix of non-negative
        bundles; :data:`ASSIGN_CHUNK_ROWS` bounds the rows converted per
        pass.
        """

    def assign(
        self,
        storage: HVStorage,
        centroids: np.ndarray,
        *,
        bounds: DotBounds | None = None,
    ) -> tuple[np.ndarray, DotBounds]:
        """Nearest centroid per row by cosine similarity (Eq. 7), exactly.

        ``centroids`` is the ``(k, d)`` matrix of non-negative integer
        bundles (anything else raises ``ValueError``).  Clusters are ranked
        by the float64 key ``dot / ||c||`` (the row norm cancels; a zero
        centroid counts as norm 1), and rows whose runner-up lies within the
        keys' rounding margin of the best are re-decided by
        :func:`_exact_argmax`.

        ``bounds`` (the :class:`DotBounds` an earlier call returned for the
        same storage) lets the pass skip rows whose label is already
        certain.  Each row's dot interval is widened by the exact drift of
        the centroids since then (:meth:`DotBounds.widened`); a row whose
        best lower-bound key beats every other upper-bound key by twice the
        rounding margin takes that cluster, which is provably the exact
        winner.  Only the remaining rows are dotted, and they are decided by
        the same rule as a full pass, so the labels equal those of
        ``bounds=None``.  Returns ``(labels, DotBounds)``: the full
        ``(n,)`` label vector and the intervals for the next pass.
        """
        integral = _integer_centroids(centroids)
        # ``np.linalg.norm(integral, axis=1)``'s own float64 reduction,
        # without its per-call dispatch.
        floats = integral.astype(np.float64)
        norms = np.sqrt(np.add.reduce(floats * floats, axis=1))
        norms[norms == 0.0] = 1.0
        # Dots (<= d * n, far below 2^53) are exact in float64, so a key's
        # relative error is at most (d/2 + 2) unit roundoffs: the norm's
        # d-term sum, its sqrt and the division.  Keys farther apart than
        # twice that rank exactly like the cosines; the margin doubles it.
        margin = (storage.dimension + 4) * _FLOAT64_EPS
        if bounds is not None:
            lo, hi = bounds.widened(integral, storage.row_popcounts())
            lo_keys = lo / norms
            labels = np.argmax(lo_keys, axis=1)
            rows = np.arange(labels.size)
            rivals = hi / norms
            rivals[rows, labels] = -np.inf
            stale = lo_keys[rows, labels] * (1.0 - 2.0 * margin) <= rivals.max(
                axis=1
            )
        if bounds is None or stale.all():
            dots = self.dots(storage, integral)
            labels = _rank(dots, integral, norms, margin)
            return labels.astype(np.int32), DotBounds(
                dots, dots, integral, storage.num_rows
            )
        index = np.flatnonzero(stale)
        if index.size:
            subset = HVStorage(storage.data[index], storage.dimension, self)
            dots = self.dots(subset, integral)
            labels[index] = _rank(dots, integral, norms, margin)
            lo[index] = dots
            hi[index] = dots
        return labels.astype(np.int32), DotBounds(lo, hi, integral, index.size)

    # ------------------------------------------------------------------ #
    # kernel 3: masked bundling
    # ------------------------------------------------------------------ #
    @abstractmethod
    def bundle_masked(
        self,
        storage: HVStorage,
        mask: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Element-wise ``int64`` sum of the rows selected by ``mask``.

        This is the centroid-update kernel of the HD K-Means clusterer: the
        new centroid of a cluster is the bundle (per-dimension sum) of its
        member hypervectors.  ``weights`` (one non-negative integer per
        storage row, like ``mask``) counts each selected row that many
        times, as if it were stored that often — the clusterer stores each
        distinct pixel HV once and weights it by its multiplicity.  Both
        backends split the weights into their binary digits
        (:func:`_weight_digits`), so a row of weight ``w`` enters the sum
        of each set bit of ``w``.  All backends must return bit-identical
        sums for the same logical rows — the packed/dense parity contract
        covers bundling as well as assignment.
        """

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def capabilities(self) -> dict:
        """Machine-readable description of this backend's storage + tunables.

        Backends override this to declare their storage dtype under
        ``"storage"`` and their constructor tunables with current values
        under ``"tunables"``, so callers (the CLI ``list`` command,
        benchmark metadata, serving dashboards) can report the exact kernel
        configuration.  The base entry deliberately names no storage — that
        is a property of the concrete backend, not of the seam.
        """
        return {"name": self.name, "tunables": {}}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class DenseBackend(HDCBackend):
    """One byte per bit; bit-exact with the historical SegHDC implementation."""

    name = "dense"

    def capabilities(self) -> dict:
        """uint8 storage, no tunables."""
        return {"name": self.name, "storage": "uint8", "tunables": {}}

    def storage_nbytes(self, num_rows: int, dimension: int) -> int:
        """One uint8 byte per HV bit."""
        return int(num_rows) * int(dimension)

    def pack(self, dense_hvs: np.ndarray) -> HVStorage:
        """Validate and wrap a ``(n, d)`` uint8 matrix as-is."""
        arr = np.asarray(dense_hvs, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected a (n, d) matrix, got shape {arr.shape}")
        return HVStorage(arr, arr.shape[1], self)

    def unpack(self, storage: HVStorage, indices: np.ndarray | None = None) -> np.ndarray:
        """Rows are already dense; return (a view of) them."""
        if indices is None:
            return storage.data
        return storage.data[indices]

    def count_row_bits(self, storage: HVStorage) -> np.ndarray:
        """Per-row sums of the 0/1 bytes."""
        return storage.data.sum(axis=1, dtype=np.int64)

    def bind_position_grid(self, row_hvs: np.ndarray, col_hvs: np.ndarray) -> HVStorage:
        """Broadcast XOR of row HVs against column HVs."""
        rows = np.asarray(row_hvs, dtype=np.uint8)
        cols = np.asarray(col_hvs, dtype=np.uint8)
        height, dimension = rows.shape
        width = cols.shape[0]
        grid = np.bitwise_xor(rows[:, None, :], cols[None, :, :])
        return HVStorage(grid.reshape(height * width, dimension), dimension, self)

    def dots(self, storage: HVStorage, centroids: np.ndarray) -> np.ndarray:
        """Chunked float64 matmul, exact: every partial sum is an integer
        ``<= d * n``, far below ``2^53``.  Chunks of ``ASSIGN_CHUNK_ROWS //
        2`` rows keep the float64 transient the size of an
        ``ASSIGN_CHUNK_ROWS``-row float32 chunk."""
        hvs = storage.data
        centroids_t = centroids.T.astype(np.float64)
        out = np.empty((hvs.shape[0], centroids.shape[0]), dtype=np.int64)
        step = max(1, ASSIGN_CHUNK_ROWS // 2)
        for start in range(0, hvs.shape[0], step):
            out[start : start + step] = _matmul_dots(
                hvs[start : start + step], centroids_t
            )
        return out

    def bundle_masked(
        self,
        storage: HVStorage,
        mask: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fancy-index the member rows of each weight digit and sum them into
        ``int64``, shifted by the digit (the reduction casts in small
        buffers, never an ``(m, d)`` int64 copy)."""
        total = np.zeros(storage.dimension, dtype=np.int64)
        for bit, rows in _weight_digits(np.flatnonzero(mask), weights):
            total += storage.data[rows].sum(axis=0, dtype=np.int64) << bit
        return total


class PackedBackend(HDCBackend):
    """Bit-packed ``uint64`` storage with integer-only kernels.

    A ``dots`` or ``bundle_masked`` call on a *small slab* — rows that
    unpack to at most :data:`SMALL_SLAB_BITS` bits — unpacks them once and
    uses the dense backend's exact arithmetic (a float64 matmul, an integer
    ``weights @ bits`` product) instead of the word kernels, whose per-plane
    and per-level numpy calls dominate on a few rows.  The results are the
    same exact integers either way; the limit is the measured crossover,
    a module constant rather than a tunable.

    Parameters
    ----------
    counter_depth:
        Maximum bit-width ``k`` of the vertical (per-dimension) counters the
        bit-sliced bundling kernel accumulates before flushing into the
        ``int64`` totals.  One accumulation block holds at most ``2^k - 1``
        member rows, so no distributed counter ever needs more than ``k``
        bit-planes (see :meth:`bundle_masked` for the invariant).  Must be
        in ``[1, 62]`` so plane weights stay representable in ``int64``.
    bundle_chunk_rows:
        Member rows gathered per numpy slab while bundling; bounds the
        transient packed working set of the kernel.  The effective block
        size is ``min(bundle_chunk_rows, 2^counter_depth - 1)``.
    """

    name = "packed"
    column_bits = 64

    def __init__(
        self,
        *,
        counter_depth: int = 16,
        bundle_chunk_rows: int = 16384,
    ) -> None:
        self.counter_depth, self.bundle_chunk_rows = validate_bundling_tunables(
            counter_depth, bundle_chunk_rows
        )

    def capabilities(self) -> dict:
        """Packed storage + the bit-sliced bundling tunables."""
        return {
            "name": self.name,
            "storage": "uint64",
            "tunables": {
                "counter_depth": self.counter_depth,
                "bundle_chunk_rows": self.bundle_chunk_rows,
            },
        }

    def storage_nbytes(self, num_rows: int, dimension: int) -> int:
        """Eight bytes per ``ceil(d / 64)`` uint64 words per row."""
        return int(num_rows) * packed_words_per_hv(int(dimension)) * 8

    def pack(self, dense_hvs: np.ndarray) -> HVStorage:
        """Bit-pack a ``(n, d)`` uint8 matrix into uint64 words."""
        arr = np.asarray(dense_hvs, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected a (n, d) matrix, got shape {arr.shape}")
        return HVStorage(pack_hvs(arr), arr.shape[1], self)

    def unpack(self, storage: HVStorage, indices: np.ndarray | None = None) -> np.ndarray:
        """Recover dense 0/1 rows from the packed words."""
        words = storage.data if indices is None else storage.data[indices]
        return unpack_hvs(words, storage.dimension)

    def count_row_bits(self, storage: HVStorage) -> np.ndarray:
        """Per-row popcounts of the packed words."""
        return popcount_words(storage.data)

    def bind_position_grid(self, row_hvs: np.ndarray, col_hvs: np.ndarray) -> HVStorage:
        """Word-wide XOR of packed row HVs against packed column HVs.

        packbits(a ^ b) == packbits(a) ^ packbits(b): pack the small per-row
        and per-column tables first and XOR words, never materialising the
        dense (H, W, d) grid.
        """
        rows = pack_hvs(np.asarray(row_hvs, dtype=np.uint8))
        cols = pack_hvs(np.asarray(col_hvs, dtype=np.uint8))
        height, words = rows.shape
        width = cols.shape[0]
        grid = np.bitwise_xor(rows[:, None, :], cols[None, :, :])
        return HVStorage(
            grid.reshape(height * width, words), row_hvs.shape[1], self
        )

    @staticmethod
    def centroid_bit_planes(centroids: np.ndarray, dimension: int) -> np.ndarray:
        """Decompose integer centroids into packed binary bit-planes.

        Returns a ``(num_planes, k, words)`` uint64 array with
        ``centroids[c, i] = sum_j 2^j * plane[j, c, i]``, which turns the
        float matmul of the assignment into AND + popcount word kernels.
        """
        integral = _integer_centroids(centroids)
        top = int(integral.max())
        # Mask each plane out of the narrowest dtype that holds the values.
        narrow = integral.astype(np.min_scalar_type(top))
        weights = (1 << np.arange(max(1, top.bit_length()))).astype(narrow.dtype)
        return pack_hvs((narrow & weights[:, None, None]) != 0, dimension=dimension)

    def dots(self, storage: HVStorage, centroids: np.ndarray) -> np.ndarray:
        """Integer dots via AND + popcount over the centroid bit-planes.

        A small slab (see :data:`SMALL_SLAB_BITS`) whose dots provably stay
        within float64's exact integers (``d * max(c) <= 2^53``) is
        unpacked once and dotted with one float64 matmul instead.
        """
        step = ASSIGN_CHUNK_ROWS
        words = storage.data
        if (
            _is_small_slab(words.shape[0], storage.dimension)
            and int(centroids.max(initial=0)) * storage.dimension
            <= _FLOAT64_EXACT
        ):
            return _matmul_dots(
                self.unpack(storage), centroids.T.astype(np.float64)
            )
        planes = self.centroid_bit_planes(centroids, storage.dimension)
        num_clusters = planes.shape[1]
        out = np.zeros((words.shape[0], num_clusters), dtype=np.int64)
        for start in range(0, words.shape[0], step):
            chunk = words[start : start + step]
            block = out[start : start + step]
            for plane_index in range(planes.shape[0]):
                for cluster in range(num_clusters):
                    block[:, cluster] += (
                        popcount_words(chunk & planes[plane_index, cluster])
                        << plane_index
                    )
        return out

    def bundle_masked(
        self,
        storage: HVStorage,
        mask: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Bit-sliced vertical-count bundle of the rows selected by ``mask``.

        The kernel sums the selected packed rows per dimension without ever
        unpacking them to the dense ``(m, d)`` uint8 matrix.

        **Bit-plane layout.**  A packed row is ``w = ceil(d / 64)`` uint64
        words; bit ``b`` of word ``i`` of every member row forms one
        *vertical* bit column, and the per-dimension member count is the sum
        of that column.  The kernel represents partial counts as *weighted
        bit-planes*: a plane of weight ``2^j`` is a ``(w,)`` word row whose
        set bits each contribute ``2^j`` to their dimension's count.  The
        member rows themselves enter as planes of weight ``2^0`` — or, with
        ``weights``, a row of weight ``w`` enters as one plane of weight
        ``2^j`` for every set bit ``j`` of ``w`` — and the plane set of one
        block is exactly a binary counter per dimension, distributed across
        planes (the "vertical counter").

        **Word-wide carry-save adds.**  Three planes of equal weight ``2^j``
        are compressed into two with one full-adder step applied to all 64
        columns of a word at once::

            sum   = a ^ b ^ c                    # weight 2^j
            carry = (a & b) | ((a ^ b) & c)      # weight 2^(j+1)

        Each 3:2 pass removes a third of the planes at a weight level, so
        reducing ``m`` member rows costs ~``5 * m * w`` word operations in
        total (a geometric series over passes) and is vectorised across
        planes.  When at most two planes remain at a weight level they are
        unpacked — ``2 * ceil(log2(m))`` single rows, not ``m`` — scaled by
        their weight, and added to the ``int64`` totals.

        **Invariants and overflow bounds.**  One accumulation block holds at
        most ``min(bundle_chunk_rows, 2^counter_depth - 1)`` member rows, so
        with unit weights every per-dimension count inside a block is below
        ``2^counter_depth`` and no vertical counter ever needs a plane of
        weight ``>= 2^counter_depth``; with ``counter_depth <= 62`` every
        plane weight is an exact ``int64``.  Weighted rows raise a block's
        counts to at most its summed weights, and a plane of weight ``2^j``
        only exists while some count reaches ``2^j``, so planes stay exact
        below ``2^63`` summed weights.  Larger member sets are split
        across blocks and flushed into the ``int64`` accumulator, which
        cannot overflow before ``2^63`` total member rows.  Padding bits of
        the last word are zero in every stored row, stay zero through XOR /
        AND / OR, and are truncated by the flush unpack, so ``d`` not being
        a multiple of 64 never perturbs the counts.

        **Small slabs.**  When the selected rows unpack to at most
        :data:`SMALL_SLAB_BITS` bits they are unpacked once and summed
        directly (one integer ``weights @ bits`` product when weighted),
        which refuses bad weights with the same errors as the kernel.

        **Parity contract.**  The kernel is exact integer arithmetic, so its
        output is bit-identical to :meth:`DenseBackend.bundle_masked` for
        the same logical rows — asserted per kernel by the bundling tests
        and end-to-end by the dense/packed parity sweep and golden fixtures.
        """
        indices = np.flatnonzero(np.asarray(mask))
        if _is_small_slab(indices.size, storage.dimension):
            bits = self.unpack(storage, indices)
            if weights is None:
                return bits.sum(axis=0, dtype=np.int64)
            return _selected_weights(indices, weights).astype(np.int64) @ bits
        total = np.zeros(storage.dimension, dtype=np.int64)
        block = min(self.bundle_chunk_rows, (1 << self.counter_depth) - 1)
        for start in range(0, indices.size, block):
            buckets = {
                bit: storage.data[rows]
                for bit, rows in _weight_digits(
                    indices[start : start + block], weights
                )
            }
            self._accumulate_block(buckets, total, storage.dimension)
        return total

    @staticmethod
    def _accumulate_block(
        buckets: "dict[int, np.ndarray]", total: np.ndarray, dimension: int
    ) -> None:
        """Flush one block of packed rows into ``total`` (in place).

        ``buckets`` maps the weight exponent ``j`` to the stack of pending
        planes of weight ``2^j``; 3:2 carry-save passes drain each level and
        push carries one level up until every level holds at most two
        planes, which are unpacked and added with their weight.
        """
        while buckets:
            weight = min(buckets)
            stack = buckets.pop(weight)
            carries: list[np.ndarray] = []
            while stack.shape[0] >= 3:
                full = (stack.shape[0] // 3) * 3
                a, b, c = stack[0:full:3], stack[1:full:3], stack[2:full:3]
                half = a ^ b
                carries.append((a & b) | (half & c))
                compressed = half ^ c
                tail = stack[full:]
                stack = (
                    np.concatenate([compressed, tail])
                    if tail.shape[0]
                    else compressed
                )
            # At most two planes survive per level; one unpack flushes them.
            flushed = unpack_hvs(stack, dimension).sum(axis=0, dtype=np.int64)
            total += flushed << weight
            if carries:
                merged = (
                    carries[0] if len(carries) == 1 else np.concatenate(carries)
                )
                pending = buckets.get(weight + 1)
                buckets[weight + 1] = (
                    merged
                    if pending is None
                    else np.concatenate([pending, merged])
                )


def _is_small_slab(rows: int, dimension: int) -> bool:
    """Whether ``rows`` packed rows of ``dimension`` bits are a small slab."""
    return rows * dimension <= SMALL_SLAB_BITS


def _matmul_dots(bits: np.ndarray, centroids_t: np.ndarray) -> np.ndarray:
    """``int64`` dots of 0/1 rows with the float64 ``(d, k)`` centroid
    transpose, by one float64 matmul: exact while every partial sum is an
    integer at most ``2^53``, whatever order the matmul adds in."""
    return (bits.astype(np.float64) @ centroids_t).astype(np.int64)


def _selected_weights(indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weights of the selected rows; refuses non-integer or negative
    ones, the same way for every bundling path."""
    selected = np.asarray(weights)[indices]
    if selected.dtype.kind not in "iu":
        raise ValueError(f"bundle weights must be integers, got {selected.dtype}")
    if selected.min(initial=0) < 0:
        raise ValueError("bundle weights must be non-negative")
    return selected


def _weight_digits(
    indices: np.ndarray, weights: np.ndarray | None
) -> list[tuple[int, np.ndarray]]:
    """``(j, rows)`` for every bit ``j`` set in some selected row's weight.

    ``rows`` are the entries of ``indices`` (storage rows) whose weight has
    bit ``j`` set, in order; without ``weights`` every row has weight 1,
    which is the single digit ``(0, indices)``.  Summing each digit's rows
    shifted by ``j`` equals summing every row ``weight`` times.
    """
    if weights is None:
        return [(0, indices)]
    selected = _selected_weights(indices, weights)
    digits = []
    for bit in range(int(selected.max(initial=0)).bit_length()):
        rows = indices[((selected >> bit) & 1).astype(bool)]
        if rows.size:
            digits.append((bit, rows))
    return digits


_BACKENDS = {
    "dense": DenseBackend,
    "packed": PackedBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_backend` (and ``SegHDCConfig.backend``)."""
    return tuple(sorted(_BACKENDS))


def make_backend(name: str | HDCBackend, **options) -> HDCBackend:
    """Build a compute backend by name (``"dense"`` or ``"packed"``).

    Keyword ``options`` are forwarded to the backend's constructor — the
    tunable surface each backend documents in its ``capabilities()`` (for
    ``"packed"``: ``counter_depth``, ``bundle_chunk_rows``).  An option the
    backend does not accept raises ``ValueError`` naming the backend, so a
    typo in a config or spec fails loudly instead of silently running
    defaults.  Passing an already-built
    backend instance returns it unchanged and rejects options (the instance
    already fixed its tunables).
    """
    if isinstance(name, HDCBackend):
        if options:
            raise ValueError(
                f"cannot apply options {sorted(options)} to an already-built "
                f"{name.name!r} backend instance"
            )
        return name
    key = str(name).lower()
    if key not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    cls = _BACKENDS[key]
    if options:
        # Reject unknown option *names* before calling the constructor, so
        # a bad value for a supported tunable surfaces as the constructor's
        # own validation error, not as a bogus "option does not exist".
        parameters = inspect.signature(cls.__init__).parameters
        accepted = {
            param_name
            for param_name, param in parameters.items()
            if param_name != "self"
            and param.kind
            in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
        }
        unknown = sorted(set(options) - accepted)
        if unknown:
            raise ValueError(
                f"backend {key!r} does not accept options {unknown}; "
                f"see its capabilities() for the supported tunables"
            )
    return cls(**options)
