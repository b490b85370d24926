"""Hyperdimensional computing (HDC) substrate.

This package provides the binary-hypervector primitives that the SegHDC
framework is built on: seeded random hypervector generation
(:class:`HypervectorSpace`), the one flip-prefix table builder behind every
level encoder (:func:`flip_prefix_table`), bit packing, the distance metrics
used by the paper (Hamming, normalized Hamming, cosine, Manhattan), and the
dense / bit-packed compute backends that bind, bundle and assign.

The representation is deliberately simple: a binary hypervector is a 1-D
``numpy.ndarray`` of dtype ``uint8`` holding only 0/1 values.  Bundled
(integer-valued) hypervectors are ``int64`` arrays.
"""

from repro.hdc.hypervector import (
    HypervectorSpace,
    flip_prefix_table,
    pack_hvs,
    packed_words_per_hv,
    random_hv,
    unpack_hvs,
)
from repro.hdc.backend import (
    DenseBackend,
    DotBounds,
    HDCBackend,
    HVStorage,
    PackedBackend,
    available_backends,
    make_backend,
    popcount_words,
)
from repro.hdc.distances import (
    cosine_distance,
    cosine_similarity,
    hamming_distance,
    manhattan_distance,
    normalized_hamming,
)

__all__ = [
    "DenseBackend",
    "DotBounds",
    "HDCBackend",
    "HVStorage",
    "HypervectorSpace",
    "PackedBackend",
    "available_backends",
    "cosine_distance",
    "cosine_similarity",
    "flip_prefix_table",
    "hamming_distance",
    "make_backend",
    "manhattan_distance",
    "normalized_hamming",
    "pack_hvs",
    "packed_words_per_hv",
    "popcount_words",
    "random_hv",
    "unpack_hvs",
]
