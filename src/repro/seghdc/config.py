"""Configuration for the SegHDC pipeline.

The defaults follow Section IV-A of the paper: clustering runs for 10
iterations, ``alpha = 0.2`` and ``gamma = 1``, ``beta = 21`` on BBBC005 and
``beta = 26`` on DSB2018 / MoNuSeg, two clusters for the fluorescence
datasets and three for MoNuSeg, and a hypervector dimension of 10,000 (the
latency experiments in Table II use 800 / 2000 dimensions instead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hdc.backend import available_backends, validate_bundling_tunables

__all__ = ["SegHDCConfig"]

_POSITION_VARIANTS = ("uniform", "manhattan", "decay", "block_decay", "random")
_COLOR_VARIANTS = ("manhattan", "random")


@dataclass(frozen=True)
class SegHDCConfig:
    """Hyper-parameters of the SegHDC pipeline.

    Attributes
    ----------
    dimension:
        Hypervector dimension ``d``.
    num_clusters:
        ``k`` of the HD K-Means clusterer (2 for BBBC005/DSB2018, 3 for MoNuSeg).
    num_iterations:
        Maximum number of K-Means refinement iterations; the loop stops
        earlier at an exact fixed point with bit-identical results.
    alpha:
        Decay factor of the position encoding (Eq. 5): the fraction of each
        half hypervector that the row/column flips may span.
    beta:
        Block size of the block-decay position encoding: ``beta`` consecutive
        rows (columns) share one position hypervector.
    gamma:
        Color/position balance factor (Fig. 5): the color flip run length is
        multiplied by ``gamma``.
    position_encoding / color_encoding:
        Which encoder variant to use.  ``"block_decay"`` + ``"manhattan"`` is
        the full SegHDC; ``"random"`` selects the RPos / RColor ablations.
    color_levels:
        Number of quantisation levels for the color encoder (256 in the
        paper, and at most 256: 8-bit intensities never select a level past
        the 256th).  It is automatically reduced when the per-channel
        dimension cannot resolve that many levels.
    seed:
        Seed of the hypervector space; fixes all random base HVs.
    backend:
        Compute backend for HV storage and kernels: ``"packed"`` (the
        default: uint64 bit-packing, ~8x less memory, integer-only dots and
        bit-sliced bundling) or ``"dense"`` (one byte per bit, the oracle
        that goldens and the parity sweep compare against).  Both backends
        feed exact integer dots and bundle sums to one exact cosine rule
        (:meth:`repro.hdc.backend.HDCBackend.assign`), so they produce
        identical label maps by construction.
    counter_depth:
        Packed-backend tunable: bit-width ``k`` of the vertical counters of
        the bit-sliced bundling kernel; one accumulation block holds at
        most ``2^k - 1`` member rows before flushing (see
        :meth:`repro.hdc.backend.PackedBackend.bundle_masked`).  Ignored by
        the dense backend.  Reachable from the CLI via ``--config-json
        '{"counter_depth": 8}'``.
    bundle_chunk_rows:
        Packed-backend tunable: member rows gathered per numpy slab while
        bundling, bounding the kernel's transient working set.  Ignored by
        the dense backend.
    warm_start:
        Temporal mode (video): when true, the engine remembers each image
        shape's converged centroid bundles and seeds the next same-shape
        clustering run from them instead of the intensity-extreme pixels.
        Consecutive similar frames then start next to the fixed point, so
        the loop reaches it in fewer passes and the per-frame iteration
        count (``iterations_run``) drops.  The warm state lives inside one
        engine instance and never crosses a pickle boundary (process-pool
        workers each keep their own), so warm sessions are served from
        thread-mode servers.  Off by default:
        warm-started runs are history-dependent, which would break the
        bit-exact golden fixtures.
    """

    dimension: int = 10_000
    num_clusters: int = 2
    num_iterations: int = 10
    alpha: float = 0.2
    beta: int = 26
    gamma: int = 1
    position_encoding: str = "block_decay"
    color_encoding: str = "manhattan"
    color_levels: int = 256
    seed: int = 0
    record_history: bool = False
    backend: str = "packed"
    counter_depth: int = 16
    bundle_chunk_rows: int = 16384
    warm_start: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 6:
            raise ValueError(f"dimension must be at least 6, got {self.dimension}")
        if self.num_clusters < 2:
            raise ValueError(
                f"num_clusters must be at least 2, got {self.num_clusters}"
            )
        if self.num_iterations < 1:
            raise ValueError(
                f"num_iterations must be at least 1, got {self.num_iterations}"
            )
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.beta < 1:
            raise ValueError(f"beta must be at least 1, got {self.beta}")
        if self.gamma < 1:
            raise ValueError(f"gamma must be at least 1, got {self.gamma}")
        if not 2 <= self.color_levels <= 256:
            raise ValueError(
                f"color_levels must be in [2, 256], got {self.color_levels}"
            )
        if self.position_encoding not in _POSITION_VARIANTS:
            raise ValueError(
                f"unknown position encoding {self.position_encoding!r}; "
                f"expected one of {_POSITION_VARIANTS}"
            )
        if self.color_encoding not in _COLOR_VARIANTS:
            raise ValueError(
                f"unknown color encoding {self.color_encoding!r}; "
                f"expected one of {_COLOR_VARIANTS}"
            )
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {available_backends()}"
            )
        validate_bundling_tunables(self.counter_depth, self.bundle_chunk_rows)

    def backend_options(self) -> dict:
        """Constructor options for :func:`repro.hdc.backend.make_backend`.

        Only the packed backend has tunables today; the dense backend takes
        none, so its options dict is empty and the tunable fields of this
        config are inert under ``backend="dense"``.
        """
        if self.backend == "packed":
            return {
                "counter_depth": self.counter_depth,
                "bundle_chunk_rows": self.bundle_chunk_rows,
            }
        return {}

    def with_overrides(self, **kwargs) -> "SegHDCConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-ready dict of every hyper-parameter (see :meth:`from_dict`)."""
        # Deferred import: a module-level edge into repro.api would close an
        # import cycle (repro.api -> registry -> this package) that
        # deadlocks concurrent first imports on the module locks.
        from repro.api.spec import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data) -> "SegHDCConfig":
        """Validated inverse of :meth:`to_dict`.

        Accepts a partial dict (missing fields keep their defaults); unknown
        keys and bad values raise naming the offending field.
        """
        from repro.api.spec import config_from_dict

        return config_from_dict(cls, data)

    def scaled_for_shape(self, height: int, width: int) -> "SegHDCConfig":
        """A copy with ``beta`` rescaled to an image of the given size.

        The paper tunes the block-decay block size at roughly 1000-pixel
        images (``beta = 21`` on BBBC005, ``26`` on DSB2018 / MoNuSeg); for
        smaller or larger inputs the block must shrink or grow with the
        image so blocks keep their relative footprint:
        ``beta' = max(1, beta * min(height, width) // 1000 + 1)``.

        Scaling starts from the config's *own* ``beta``.  (The historical
        CLI helper this replaces hard-coded 26 for every dataset, so CLI
        runs on BBBC005 — whose paper beta is 21 — now get a slightly
        smaller, dataset-faithful block size.)
        """
        if height < 1 or width < 1:
            raise ValueError(
                f"image size must be positive, got {height}x{width}"
            )
        beta = max(1, self.beta * min(height, width) // 1000 + 1)
        return self.with_overrides(beta=beta)

    @classmethod
    def paper_defaults(cls, dataset: str) -> "SegHDCConfig":
        """The per-dataset hyper-parameters from Section IV-A of the paper."""
        key = dataset.lower()
        if key == "bbbc005":
            return cls(num_clusters=2, alpha=0.2, beta=21, gamma=1)
        if key == "dsb2018":
            return cls(num_clusters=2, alpha=0.2, beta=26, gamma=1)
        if key == "monuseg":
            return cls(num_clusters=3, alpha=0.2, beta=26, gamma=1)
        raise KeyError(f"no paper defaults for dataset {dataset!r}")
