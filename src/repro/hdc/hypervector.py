"""Binary hypervector primitives.

A binary hypervector (HV) is represented as a 1-D ``numpy.ndarray`` with dtype
``uint8`` containing only the values 0 and 1.  All functions in this module
are pure: they never mutate their inputs and always return new arrays.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "HypervectorSpace",
    "flip_prefix_table",
    "pack_hvs",
    "packed_words_per_hv",
    "random_hv",
    "unpack_hvs",
]


def random_hv(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a random binary hypervector with ~50% ones.

    Random HVs of high dimension are pseudo-orthogonal: their normalized
    Hamming distance concentrates around 0.5 (Lemma 1 of the paper).
    """
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    return rng.integers(0, 2, size=dimension, dtype=np.uint8)


def flip_prefix_table(
    base: np.ndarray, flips: Sequence[int], *, offset: int = 0
) -> np.ndarray:
    """Stack flip-prefix levels of ``base`` into a ``(len(flips), d)`` table.

    Row ``i`` is ``base`` with elements ``[offset, offset + flips[i])``
    flipped.  This is the one construction behind the paper's position
    (Fig. 3, Eq. 5) and color (Fig. 4) encoders: because the flipped runs
    are nested prefixes, rows ``i`` and ``j`` are exactly
    ``|flips[i] - flips[j]|`` apart in Hamming distance.  Callers clip the
    flip counts to their region; ``base`` is never mutated.
    """
    table = np.tile(base, (len(flips), 1))
    for row, count in enumerate(flips):
        table[row, offset : offset + count] ^= 1
    return table


def packed_words_per_hv(dimension: int) -> int:
    """Number of ``uint64`` words one ``dimension``-bit HV packs into."""
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    return (dimension + 63) // 64


def pack_hvs(hvs: np.ndarray, *, dimension: int | None = None) -> np.ndarray:
    """Pack a ``(..., d)`` uint8 0/1 array into ``(..., ceil(d/64))`` uint64.

    Bits are packed MSB-first per byte (``np.packbits`` order) and the tail
    of the final word is zero-padded, so XOR/AND on packed words commute with
    the same operations on the unpacked bits and padding never contributes to
    popcounts.  :func:`unpack_hvs` is the exact inverse.
    """
    arr = np.asarray(hvs, dtype=np.uint8)
    if arr.ndim == 0:
        raise ValueError("cannot pack a scalar")
    d = arr.shape[-1] if dimension is None else int(dimension)
    if arr.shape[-1] != d:
        raise ValueError(
            f"last axis {arr.shape[-1]} does not match dimension {d}"
        )
    packed_bytes = np.packbits(arr, axis=-1)
    words = packed_words_per_hv(d)
    pad = words * 8 - packed_bytes.shape[-1]
    if pad:
        packed_bytes = np.concatenate(
            [
                packed_bytes,
                np.zeros(arr.shape[:-1] + (pad,), dtype=np.uint8),
            ],
            axis=-1,
        )
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def unpack_hvs(words: np.ndarray, dimension: int) -> np.ndarray:
    """Inverse of :func:`pack_hvs`: recover the ``(..., dimension)`` bits."""
    arr = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
    expected = packed_words_per_hv(dimension)
    if arr.shape[-1] != expected:
        raise ValueError(
            f"expected {expected} words for dimension {dimension}, "
            f"got {arr.shape[-1]}"
        )
    return np.unpackbits(arr.view(np.uint8), axis=-1, count=dimension)


class HypervectorSpace:
    """A seeded factory for hypervectors of a fixed dimension.

    The space owns a ``numpy.random.Generator`` so that every HV drawn from it
    is reproducible given the seed.  It is the single entry point the rest of
    the code base uses to create base/random hypervectors.
    """

    def __init__(self, dimension: int, *, seed: int | None = 0) -> None:
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def random(self) -> np.ndarray:
        """Draw one random binary HV."""
        return random_hv(self.dimension, self._rng)

    def random_batch(self, count: int) -> np.ndarray:
        """Draw ``count`` random binary HVs as a ``(count, d)`` array."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._rng.integers(0, 2, size=(count, self.dimension), dtype=np.uint8)

    def zeros(self) -> np.ndarray:
        """An all-zero HV (identity element of XOR binding)."""
        return np.zeros(self.dimension, dtype=np.uint8)

    def subspace(self, dimension: int) -> "HypervectorSpace":
        """A new space of a different dimension sharing this space's RNG stream.

        Used by the 3-channel color encoder, which allocates ``d/3`` dimensions
        per channel.
        """
        child = HypervectorSpace(dimension, seed=None)
        child._rng = self._rng
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HypervectorSpace(dimension={self.dimension}, seed={self.seed})"
