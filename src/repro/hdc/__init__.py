"""Hyperdimensional computing (HDC) substrate.

This package provides the binary-hypervector primitives that the SegHDC
framework is built on: random hypervector generation, XOR binding, bundling
(element-wise summation), the distance metrics used by the paper (Hamming,
normalized Hamming, cosine, Manhattan), flip-based level encoders, and item
memories.

The representation is deliberately simple: a binary hypervector is a 1-D
``numpy.ndarray`` of dtype ``uint8`` holding only 0/1 values.  Bundled
(integer-valued) hypervectors are ``int64`` arrays.
"""

from repro.hdc.hypervector import (
    HypervectorSpace,
    bind,
    bundle,
    flip_prefix,
    flip_range,
    pack_hvs,
    packed_words_per_hv,
    random_hv,
    unpack_hvs,
    validate_binary_hv,
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
from repro.hdc.encoding import LevelEncoder, PrefixFlipEncoder
from repro.hdc.item_memory import ItemMemory

__all__ = [
    "DenseBackend",
    "DotBounds",
    "HDCBackend",
    "HVStorage",
    "HypervectorSpace",
    "ItemMemory",
    "LevelEncoder",
    "PackedBackend",
    "PrefixFlipEncoder",
    "available_backends",
    "bind",
    "bundle",
    "cosine_distance",
    "cosine_similarity",
    "flip_prefix",
    "flip_range",
    "hamming_distance",
    "make_backend",
    "manhattan_distance",
    "normalized_hamming",
    "pack_hvs",
    "packed_words_per_hv",
    "popcount_words",
    "random_hv",
    "unpack_hvs",
    "validate_binary_hv",
]
