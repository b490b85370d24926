"""Analytical operation / memory cost models.

Both models take the workload description (image size, hyper-parameters) and
return a :class:`WorkloadCost` with three numbers: floating-point (or integer)
operations performed, bytes moved through memory, and the peak working set in
bytes.  The executor turns these into latency with a roofline-style rule and
into an OOM verdict by comparing the working set against the device's usable
memory.

The counts are first-principles estimates of what the respective reference
implementations actually allocate and execute, documented inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hdc.backend import (
    ASSIGN_CHUNK_ROWS,
    available_backends,
    validate_bundling_tunables,
)
from repro.hdc.hypervector import packed_words_per_hv

__all__ = [
    "WorkloadCost",
    "cnn_baseline_cost",
    "packed_bundle_cost",
    "seghdc_cost",
]

_FLOAT_BYTES = 4  # float32 element size
_HV_BYTES = 1  # dense binary hypervectors are stored as uint8
_WORD_BYTES = 8  # the packed backend stores 64 HV bits per uint64 word


@dataclass(frozen=True)
class WorkloadCost:
    """Operation count, traffic, and peak working set of one run."""

    operations: float
    bytes_moved: float
    peak_memory_bytes: float
    kind: str

    def __post_init__(self) -> None:
        if self.operations < 0 or self.bytes_moved < 0 or self.peak_memory_bytes < 0:
            raise ValueError("cost components must be non-negative")


def packed_bundle_cost(
    num_rows: int,
    dimension: int,
    *,
    counter_depth: int = 16,
    bundle_chunk_rows: int = 16384,
) -> WorkloadCost:
    """Cost of one bit-sliced bundle of ``num_rows`` packed member HVs.

    Mirrors :meth:`repro.hdc.backend.PackedBackend.bundle_masked`, with
    ``w = ceil(d / 64)`` words per row:

    * **Carry-save compression**: every 3:2 pass spends 5 word operations
      (two XORs, two ANDs, one OR) per group of three planes and removes a
      third of the planes at a weight level, so reducing ``m`` rows costs
      ``5 * w * m * (1 + 2/3 + (2/3)^2 + ...) ~= 5 * m * w`` word
      operations in total.
    * **Flush**: at most two planes per weight level survive per block; a
      block of ``min(bundle_chunk_rows, 2^counter_depth - 1)`` rows has at
      most ``counter_depth`` levels, so each flush unpacks
      ``<= 2 * counter_depth`` single rows of ``d`` bits.
    * **Traffic**: the gather reads the ``m * w * 8`` packed member bytes
      once and the compression touches each intermediate plane a
      geometrically decaying number of times, ~3x the member bytes in
      total; the dense ``(m, d)`` round-trip of the replaced unpack path
      (``9 * m * d / 8`` bytes written + re-read) never happens.
    """
    if num_rows < 0:
        raise ValueError(f"num_rows must be non-negative, got {num_rows}")
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    validate_bundling_tunables(counter_depth, bundle_chunk_rows)
    words = packed_words_per_hv(dimension)
    block = min(bundle_chunk_rows, (1 << counter_depth) - 1)
    num_blocks = math.ceil(num_rows / block) if num_rows else 0
    compress_ops = 5.0 * num_rows * words
    flush_ops = num_blocks * 2.0 * counter_depth * dimension
    packed_bytes = num_rows * words * _WORD_BYTES
    block_rows = min(num_rows, block)
    return WorkloadCost(
        operations=compress_ops + flush_ops,
        bytes_moved=3.0 * packed_bytes,
        # One gathered block plus its shrinking compression planes (the
        # geometric series sums to ~2x the block) is resident at a time.
        peak_memory_bytes=2.0 * block_rows * words * _WORD_BYTES
        + dimension * 8,  # the int64 totals
        kind="hdc",
    )


def seghdc_cost(
    height: int,
    width: int,
    *,
    dimension: int,
    num_clusters: int,
    num_iterations: int,
    channels: int = 3,
    backend: str = "dense",
    counter_depth: int = 16,
    bundle_chunk_rows: int = 16384,
) -> WorkloadCost:
    """Cost of one SegHDC run under the chosen compute backend.

    Dense backend (one byte per HV bit):

    * Encoding: one XOR per hypervector element to bind rows with columns and
      one more to bind the position HV with the color HV -> ``2 * N * d``
      element operations, plus the level-table construction (negligible).
    * Clustering, per iteration: the cosine-distance assignment is a
      ``(N, d) x (d, k)`` product (``2 * N * d * k`` operations) plus the
      norms (``2 * N * d``), and the centroid update re-reads the member HVs
      once more (``N * d``).
    * Memory: the position grid and the pixel-HV matrix (``N * d`` bytes
      each as uint8) plus the largest transient of three phases: the color
      bind's, the assignment's float64 half-chunk (``chunk / 2`` rows of
      ``d`` float64), or the member rows one bundle gathers (up to
      ``N * d`` bytes).

    Packed backend (64 HV bits per uint64 word, ``w = ceil(d / 64)`` words):

    * Encoding: the row/column bind and the color bind (a gather from
      pre-packed level tables) are word-wide XORs -> ``2 * N * w``.
    * Clustering, per iteration: the assignment decomposes the integer
      centroids into ``p ~ ceil(log2(N))`` bit-planes and performs an AND +
      popcount per word per plane per cluster -> ``2 * N * w * p * k`` word
      operations; the centroid update runs the bit-sliced vertical-count
      bundle over every member row once per iteration — see
      :func:`packed_bundle_cost` for the formula (~``5 * N * w`` word
      operations plus the per-block flush, instead of the replaced
      ``N * d / 8`` dense unpack round-trip).
    * Memory: the packed pixel matrix and position grid are ``N * w * 8``
      bytes each (8x smaller than dense), plus the larger of the color
      bind's transient and one bundling block.

    The color bind's transient is the ``channels * N`` int64 level indices
    plus one channel's gather: ``N`` rows of ``ceil(d / channels)`` bits in
    native storage (plus a word on packed, for a straddled boundary).  Both
    backends also hold the color level tables (256 levels of ``d`` uint8
    bits) and their native copies, the float64 intensities, int32 labels
    and int64 row popcounts, a pass's ``(N, k)`` int64 dots and float64
    keys, the persistent ``(N, k)`` int64 ``lo``/``hi`` dot bounds the
    assignment carries between passes
    (``16 * N * k`` bytes), and a few ``(k, d)`` 8-byte centroid arrays
    (bundles, member sums, the bounds' reference centroids, the drift's
    sorted prefix sums).

    The engine stores each distinct pixel HV once.  Finding them costs
    ``int64`` per-pixel transients: the key, ``np.unique``'s sort
    permutation, the pixel-to-row inverse and the representative indices
    (``32 * N`` bytes), next to the cached per-pixel position keys
    (``8 * N``).

    ``counter_depth`` / ``bundle_chunk_rows`` mirror the packed backend's
    bundling tunables and only affect the packed formula.

    The operation and traffic counts, and the pixel-matrix terms of peak
    memory, model the worst case where every pixel HV is distinct, so they
    stay upper bounds when repeated HVs are stored once (a flat image, or
    pixels sharing a ``beta`` block and color levels).  The counts also
    charge every iteration a full assignment and a full bundle, so they
    are upper bounds twice over: the HD K-Means loop stops at its exact
    fixed point, often well before ``num_iterations``, and the passes
    after the first bundle pass recompute dots only for rows whose dot
    bound fails and re-bundle only the rows that switched.  Peak memory
    does not depend on the iteration count.
    """
    if height <= 0 or width <= 0 or channels <= 0:
        raise ValueError("image dimensions must be positive")
    num_pixels = height * width
    channel_bits = -(-dimension // channels)
    index_bytes = channels * num_pixels * 8  # int64 level indices
    resident_bytes = (
        256 * dimension * _HV_BYTES  # color level tables
        + num_pixels * 20  # intensities, labels, row popcounts
        + num_pixels * 40  # position keys; key, sort, inverse, representatives
        + num_pixels * num_clusters * 32  # dots + keys, lo/hi dot bounds
        + 8 * num_clusters * dimension * 8  # (k, d) centroid arrays
    )
    if backend == "dense":
        encode_ops = 2.0 * num_pixels * dimension
        assign_ops = (
            2.0 * num_pixels * dimension * num_clusters
        ) + 2.0 * num_pixels * dimension
        update_ops = 1.0 * num_pixels * dimension
        operations = encode_ops + num_iterations * (assign_ops + update_ops)

        hv_matrix_bytes = num_pixels * dimension * _HV_BYTES
        # Every iteration streams the HV matrix for the assignment and again
        # for the centroid update.
        bytes_moved = hv_matrix_bytes * (1 + 2 * num_iterations)
        half_chunk_rows = min(num_pixels, ASSIGN_CHUNK_ROWS // 2)
        peak_memory = (
            2.0 * hv_matrix_bytes  # position grid + bound pixel grid
            + 256 * dimension * _HV_BYTES  # native color tables
            + max(
                index_bytes + num_pixels * channel_bits * _HV_BYTES,
                half_chunk_rows * dimension * 8,  # float64 half-chunk
                hv_matrix_bytes,  # the member rows of one bundle
            )
            + resident_bytes
        )
    elif backend == "packed":
        words = packed_words_per_hv(dimension)
        bit_planes = max(1, math.ceil(math.log2(max(2, num_pixels))))
        encode_ops = 2.0 * num_pixels * words
        assign_ops = 2.0 * num_pixels * words * bit_planes * num_clusters
        # Every pixel row is bundled into exactly one centroid per
        # iteration, so the per-iteration bundling cost is one bit-sliced
        # bundle over all N rows regardless of the cluster count.
        bundle = packed_bundle_cost(
            num_pixels,
            dimension,
            counter_depth=counter_depth,
            bundle_chunk_rows=bundle_chunk_rows,
        )
        operations = encode_ops + num_iterations * (assign_ops + bundle.operations)

        hv_matrix_bytes = num_pixels * words * _WORD_BYTES
        # The assignment is cache-blocked: one packed chunk (a few MB) stays
        # resident across all plane/cluster passes, so each iteration streams
        # the packed matrix once for the assignment; the bit-sliced update
        # touches ~3x the packed member bytes (see packed_bundle_cost).
        bytes_moved = hv_matrix_bytes * (1 + num_iterations) + (
            num_iterations * bundle.bytes_moved
        )
        peak_memory = (
            2.0 * hv_matrix_bytes  # packed position grid + packed pixel matrix
            + 256 * (words + channels) * _WORD_BYTES  # native color tables
            + max(
                index_bytes
                + num_pixels * (-(-channel_bits // 64) + 1) * _WORD_BYTES,
                bundle.peak_memory_bytes,
            )
            + resident_bytes
        )
    else:
        # Fail loudly for backends registered without a cost formula.
        raise ValueError(
            f"unknown backend {backend!r}; cost models exist for 'dense' and "
            f"'packed' (registered backends: {available_backends()})"
        )
    return WorkloadCost(
        operations=operations,
        bytes_moved=bytes_moved,
        peak_memory_bytes=peak_memory,
        kind="hdc",
    )


def cnn_baseline_cost(
    height: int,
    width: int,
    *,
    channels: int = 3,
    num_features: int = 100,
    num_layers: int = 2,
    iterations: int = 1000,
    kernel_size: int = 3,
) -> WorkloadCost:
    """Cost of one CNN-baseline (Kim et al.) self-training run.

    * Arithmetic per training iteration: each 3x3 convolution costs
      ``2 * N * C_in * C_out * k^2`` FLOPs forward; the backward pass costs
      roughly twice the forward (gradients w.r.t. weights and inputs), so each
      conv contributes ``~6x`` its forward MACs per iteration.  Batch norm,
      ReLU and the losses are linear in ``N * C`` and are included with a
      small constant.
    * Peak memory: the activations of every layer (input, conv outputs, batch
      norm outputs) must be retained for the backward pass, each
      ``N * num_features`` float32; their gradients double that; and the
      im2col-style workspace of the widest 3x3 convolution adds
      ``N * num_features * k^2`` float32.  This is what exhausts a 4 GB
      Raspberry Pi for a 520 x 696 image.
    """
    if height <= 0 or width <= 0:
        raise ValueError("image dimensions must be positive")
    num_pixels = height * width
    conv_forward = 2.0 * num_pixels * channels * num_features * kernel_size**2
    for _ in range(num_layers - 1):
        conv_forward += 2.0 * num_pixels * num_features * num_features * kernel_size**2
    conv_forward += 2.0 * num_pixels * num_features * num_features  # 1x1 head
    elementwise = 10.0 * num_pixels * num_features * (num_layers + 1)
    per_iteration = 3.0 * conv_forward + elementwise  # forward + ~2x backward
    operations = per_iteration * iterations

    activation_bytes = num_pixels * num_features * _FLOAT_BYTES
    # Retained for backward: per conv block the input, conv output, ReLU mask
    # and BN output (~4 tensors), plus the head block (~3 tensors), plus
    # gradients of the same size while backprop runs.
    retained_tensors = 4 * num_layers + 3
    col_buffer = num_pixels * num_features * kernel_size**2 * _FLOAT_BYTES
    peak_memory = 2.0 * retained_tensors * activation_bytes + col_buffer
    bytes_moved = iterations * (retained_tensors * activation_bytes * 3 + col_buffer)
    return WorkloadCost(
        operations=operations,
        bytes_moved=bytes_moved,
        peak_memory_bytes=peak_memory,
        kind="tensor",
    )
