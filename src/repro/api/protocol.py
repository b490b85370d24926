"""The :class:`Segmenter` protocol every registered algorithm implements.

A segmenter is anything that turns images into
:class:`repro.api.result.SegmentationResult` objects.  The protocol is
structural (``typing.Protocol``), so existing classes qualify without
inheriting from anything; it is also ``runtime_checkable``, so the serving
layer can verify an instance before accepting it.

Contract
--------

* ``segment(image)`` — one ``Image`` or numpy array in, one
  :class:`SegmentationResult` out.
* ``segment_batch(images)`` — many images in, results back in input order.
* ``describe()`` — a JSON-ready spec dict (``{"segmenter": <registered
  name>, "config": <config dict>}``, exactly those two keys) that
  reconstructs an equivalent segmenter through
  :func:`repro.api.registry.make_segmenter`.  This is the
  *pickle-by-spec* seam: process pools ship the spec, not the object, so
  heavyweight state (cached encoder grids, locks) never crosses a process
  boundary.  The built-in segmenters additionally implement ``__reduce__``
  in terms of ``describe()`` so plain ``pickle`` works too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.api.result import SegmentationResult
    from repro.imaging.image import Image

__all__ = ["Segmenter"]


@runtime_checkable
class Segmenter(Protocol):
    """Structural interface of every segmentation algorithm."""

    def segment(self, image: "Image | np.ndarray") -> "SegmentationResult":
        """Segment one image."""
        ...

    def segment_batch(
        self, images: "list[Image | np.ndarray]"
    ) -> "list[SegmentationResult]":
        """Segment many images; results come back in input order."""
        ...

    def describe(self) -> dict:
        """JSON-ready spec that ``make_segmenter`` turns back into an
        equivalent segmenter (the pickle-by-spec seam for process pools)."""
        ...
