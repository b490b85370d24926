"""Unified segmentation API: protocol, registry, and declarative run-specs.

This package is the seam between algorithms and consumers:

* :class:`Segmenter` — the structural protocol every algorithm implements
  (``segment`` / ``segment_batch`` / ``describe``, pickle-by-spec);
* :class:`SegmentationResult` — the one result type every segmenter
  returns;
* the registry — :func:`register_segmenter`, :func:`available_segmenters`,
  :func:`make_segmenter` — with SegHDC and the CNN baseline built in;
* :class:`RunSpec` / :class:`ServingOptions` — validated, JSON-serialisable
  configuration so a whole run is one spec file, executed by
  :func:`execute_run_spec` (the ``seghdc run`` subcommand).

The submodules here are loaded lazily (PEP 562).  That laziness is
load-bearing, not an optimisation: the algorithm packages import
``repro.api.registry`` at module level to self-register, so an eager
``repro.api`` package init holds this package's import lock across the
whole submodule chain and deadlocks concurrent first imports of e.g.
``repro.api.registry`` and ``repro.seghdc.engine`` on the module locks
(reproducible deterministically with two threads; Python's deadlock
breaker then surfaces partially initialized modules).  It does not make a
bare ``import repro`` cheap — ``repro/__init__`` eagerly re-exports from
here and from the algorithm packages.
"""

_EXPORTS = {
    "SegmentationResult": "repro.api.result",
    "normalize_image": "repro.api.result",
    "Segmenter": "repro.api.protocol",
    "SegmenterEntry": "repro.api.registry",
    "available_segmenters": "repro.api.registry",
    "make_segmenter": "repro.api.registry",
    "register_segmenter": "repro.api.registry",
    "segmenter_entry": "repro.api.registry",
    "RunSpec": "repro.api.spec",
    "ServingOptions": "repro.api.spec",
    "config_from_dict": "repro.api.spec",
    "config_to_dict": "repro.api.spec",
    "registered_configs": "repro.api.spec",
    "execute_run_spec": "repro.api.runner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache so the next access skips __getattr__
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
