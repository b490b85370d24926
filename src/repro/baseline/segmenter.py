"""The CNN-based unsupervised segmentation baseline (Kim et al., TIP 2020).

For every image, a fresh :class:`KimSegmentationNet` is trained against its
own argmax pseudo-labels:

1. forward the normalised image, obtain the response map;
2. pseudo-target = channel-wise argmax of the responses;
3. loss = cross-entropy(responses, pseudo-target)
          + ``continuity_weight`` * spatial-continuity loss;
4. SGD step; stop after ``max_iterations`` steps or once the number of
   surviving clusters has dropped to ``min_labels``.

The final argmax map is the segmentation.  This reproduces the behaviour the
paper benchmarks against (its Table I "BL" column and the Table II latency
rows).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api.registry import make_segmenter, register_segmenter
from repro.api.result import SegmentationResult
from repro.baseline.losses import softmax_cross_entropy, spatial_continuity_loss
from repro.baseline.model import KimSegmentationNet
from repro.baseline.optim import SGD
from repro.imaging.image import Image, to_float

__all__ = ["CNNBaselineConfig", "CNNUnsupervisedSegmenter"]


@dataclass(frozen=True)
class CNNBaselineConfig:
    """Hyper-parameters of the Kim et al. baseline.

    The reference implementation's defaults are ``num_features = 100``,
    ``num_layers = 2``, learning rate 0.1 with momentum 0.9, continuity
    weight 1.0, up to 1000 iterations and a minimum of 3 surviving labels.
    ``max_iterations`` is the knob the experiment harness scales down to keep
    the pure-numpy training loop laptop-feasible (documented per experiment).
    """

    num_features: int = 100
    num_layers: int = 2
    learning_rate: float = 0.1
    momentum: float = 0.9
    continuity_weight: float = 1.0
    max_iterations: int = 1000
    min_labels: int = 3
    seed: int = 0
    record_history: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if self.min_labels < 1:
            raise ValueError(f"min_labels must be at least 1, got {self.min_labels}")
        if self.continuity_weight < 0:
            raise ValueError(
                f"continuity_weight must be non-negative, got {self.continuity_weight}"
            )

    def to_dict(self) -> dict:
        """JSON-ready dict of every hyper-parameter (see :meth:`from_dict`)."""
        # Deferred import: see SegHDCConfig.to_dict — avoids a module-level
        # import cycle through repro.api that deadlocks threaded imports.
        from repro.api.spec import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data) -> "CNNBaselineConfig":
        """Validated inverse of :meth:`to_dict`.

        Accepts a partial dict (missing fields keep their defaults); unknown
        keys and bad values raise naming the offending field.
        """
        from repro.api.spec import config_from_dict

        return config_from_dict(cls, data)


class CNNUnsupervisedSegmenter:
    """Per-image self-trained CNN segmenter.

    Implements the :class:`repro.api.Segmenter` protocol and is registered
    as ``"cnn_baseline"``, so it plugs into the serving layer, experiments,
    and run-spec files exactly like SegHDC.  The segmenter is stateless
    between calls (every image trains a fresh net), hence trivially
    thread-safe and cheap to pickle by spec.
    """

    def __init__(self, config: CNNBaselineConfig | None = None) -> None:
        self.config = config or CNNBaselineConfig()

    def describe(self) -> dict:
        """Spec dict that :func:`make_segmenter` turns back into an
        equivalent segmenter."""
        return {"segmenter": "cnn_baseline", "config": self.config.to_dict()}

    def __reduce__(self):
        # Pickle-by-spec, same seam as SegHDC: the config is the whole state.
        return (make_segmenter, (self.describe(),))

    def segment_batch(
        self, images: "list[Image | np.ndarray]"
    ) -> list[SegmentationResult]:
        """Segment a sequence of images (each trains its own net); results
        come back in input order."""
        return [self.segment(image) for image in images]

    def segment(self, image: Image | np.ndarray) -> SegmentationResult:
        """Train on the single image and return its argmax segmentation."""
        pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
        if pixels.ndim == 2:
            pixels = pixels[:, :, None]
        if pixels.ndim != 3:
            raise ValueError(f"expected (H, W[, C]) image, got shape {pixels.shape}")
        config = self.config
        height, width, channels = pixels.shape
        start = time.perf_counter()

        batch = to_float(pixels).transpose(2, 0, 1)[None, :, :, :]
        model = KimSegmentationNet(
            channels,
            num_features=config.num_features,
            num_layers=config.num_layers,
            seed=config.seed,
        )
        optimizer = SGD(
            model.parameters(),
            learning_rate=config.learning_rate,
            momentum=config.momentum,
        )
        labels = np.zeros((height, width), dtype=np.int32)
        history: list[np.ndarray] = []
        for _ in range(config.max_iterations):
            responses = model.forward(batch)
            targets = np.argmax(responses, axis=1)
            labels = targets[0].astype(np.int32)
            if config.record_history:
                history.append(labels.copy())
            ce_loss, ce_grad = softmax_cross_entropy(responses, targets)
            grad = ce_grad
            if config.continuity_weight:
                _, continuity_grad = spatial_continuity_loss(responses)
                grad = grad + config.continuity_weight * continuity_grad
            model.backward(grad)
            optimizer.step(model.gradients())
            del ce_loss
            if np.unique(labels).size <= config.min_labels:
                break
        # Final assignment with the trained weights.
        labels = model.predict_labels(batch)[0].astype(np.int32)
        elapsed = time.perf_counter() - start
        workload = {
            "height": height,
            "width": width,
            "channels": channels,
            "num_features": config.num_features,
            "num_layers": config.num_layers,
            "max_iterations": config.max_iterations,
            "num_pixels": height * width,
            "parameter_count": model.parameter_count(),
        }
        return SegmentationResult(
            labels=labels,
            elapsed_seconds=elapsed,
            num_clusters=int(np.unique(labels).size),
            history=history,
            workload=workload,
        )


def _make_cnn_baseline(
    config: CNNBaselineConfig | None = None,
) -> CNNUnsupervisedSegmenter:
    return CNNUnsupervisedSegmenter(config)


register_segmenter(
    "cnn_baseline",
    factory=_make_cnn_baseline,
    config_cls=CNNBaselineConfig,
    description="Kim et al. per-image self-trained CNN (the paper's baseline)",
    overwrite=True,  # module re-import (e.g. after a failed first import) is idempotent
)

