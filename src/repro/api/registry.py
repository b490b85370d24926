"""Central segmenter registry: one name per algorithm, one spec per run.

The registry maps a short name (``"seghdc"``, ``"cnn_baseline"``) to a
factory and a config class, so serving, experiments, and the CLI can build
any algorithm from a declarative spec instead of importing concrete classes:

>>> from repro.api import make_segmenter, available_segmenters
>>> available_segmenters()
['cnn_baseline', 'seghdc', 'threshold', 'tiled']
>>> segmenter = make_segmenter({"segmenter": "seghdc",
...                             "config": {"dimension": 800}})

Registration is done by the packages that own the algorithms
(``repro.seghdc.engine`` and ``repro.baseline.segmenter`` register
themselves at import time); the registry lazily imports both on first use so
``import repro.api`` stays light and free of import cycles.  Third-party
algorithms call :func:`register_segmenter` with their own factory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = [
    "SegmenterEntry",
    "available_segmenters",
    "make_segmenter",
    "register_segmenter",
    "segmenter_entry",
]

_SPEC_KEYS = ("segmenter", "config")


@dataclass(frozen=True)
class SegmenterEntry:
    """One registered algorithm: how to build it and how to configure it."""

    name: str
    factory: Callable  # factory(config) -> Segmenter
    config_cls: type
    description: str = ""

    def build(self, config=None):
        """Instantiate the segmenter from a config (instance, dict, or None)."""
        if isinstance(config, Mapping):
            from_dict = getattr(self.config_cls, "from_dict", None)
            config = (
                from_dict(config) if from_dict is not None
                else self.config_cls(**config)
            )
        elif config is not None and not isinstance(config, self.config_cls):
            raise TypeError(
                f"segmenter {self.name!r} expects a {self.config_cls.__name__} "
                f"config (or a dict), got {type(config).__name__}"
            )
        return self.factory(config)


_REGISTRY: dict[str, SegmenterEntry] = {}
_BUILTINS_LOADED = False
_LOADING_BUILTINS = False
# Reentrant so the built-in modules can call register_segmenter during their
# own import; other threads block until the first loader finishes instead of
# racing past a half-populated registry.
_BUILTINS_LOCK = threading.RLock()


def _ensure_builtins() -> None:
    """Import the packages that self-register the built-in segmenters."""
    global _BUILTINS_LOADED, _LOADING_BUILTINS
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED or _LOADING_BUILTINS:
            # _LOADING_BUILTINS is only visible here to the loading thread
            # itself (reentrant registration during the imports below).
            return
        _LOADING_BUILTINS = True
        try:
            # Latch only after both imports succeed: a failed import must
            # propagate again on the next call, not leave the registry
            # silently empty.
            import repro.baseline.segmenter  # noqa: F401 - registers "cnn_baseline"
            import repro.baseline.threshold  # noqa: F401 - registers "threshold"
            import repro.seghdc.engine  # noqa: F401 - registers "seghdc"
            import repro.tiling.segmenter  # noqa: F401 - registers "tiled"

            _BUILTINS_LOADED = True
        finally:
            _LOADING_BUILTINS = False


def register_segmenter(
    name: str,
    *,
    factory: Callable,
    config_cls: type,
    description: str = "",
    overwrite: bool = False,
) -> SegmenterEntry:
    """Register an algorithm under ``name`` and return its entry.

    ``factory(config)`` must return a :class:`Segmenter`;
    ``config_cls`` is the dataclass the spec layer validates ``"config"``
    dicts against (it should provide ``to_dict`` / ``from_dict``, see
    :func:`repro.api.spec.config_from_dict`).  Re-registering an existing
    name raises unless ``overwrite=True``.
    """
    # Load the built-ins first so the duplicate-name check sees them: without
    # this, registering e.g. "seghdc" before any lookup would silently
    # succeed and then be clobbered by the lazy built-in import.
    _ensure_builtins()
    key = str(name).strip().lower()
    if not key:
        raise ValueError("segmenter name must be a non-empty string")
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"segmenter {key!r} is already registered")
    entry = SegmenterEntry(
        name=key, factory=factory, config_cls=config_cls, description=description
    )
    _REGISTRY[key] = entry
    return entry


def available_segmenters() -> list[str]:
    """Sorted names accepted by :func:`make_segmenter` (and the CLI)."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def segmenter_entry(name: str) -> SegmenterEntry:
    """The registry entry for ``name``; raises with the available list."""
    _ensure_builtins()
    key = str(name).strip().lower()
    entry = _REGISTRY.get(key)
    if entry is None:
        raise ValueError(
            f"unknown segmenter {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return entry


def make_segmenter(spec, *, config=None):
    """Build a segmenter from a name or a declarative spec dict.

    ``spec`` is either a registered name (``"seghdc"``) — optionally with a
    ``config`` instance/dict keyword — or a spec dict of the shape
    ``describe()`` returns::

        {"segmenter": "seghdc",
         "config": {...}}  # optional, validated against the config class

    The dict form is what JSON run-spec files and process-pool initializers
    ship around; both forms raise with the available names on an unknown
    segmenter and name the offending field on a malformed spec.
    """
    if isinstance(spec, Mapping):
        if config is not None:
            raise TypeError(
                "pass the config inside the spec dict, not as a keyword, "
                "when spec is a mapping"
            )
        unknown = sorted(set(spec) - set(_SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"unknown spec field(s) {', '.join(repr(k) for k in unknown)}; "
                f"expected one of: {', '.join(_SPEC_KEYS)}"
            )
        if "segmenter" not in spec:
            raise ValueError(
                "spec dict is missing the required 'segmenter' field; "
                f"available segmenters: {', '.join(available_segmenters())}"
            )
        name = spec["segmenter"]
        config = spec.get("config")
    elif isinstance(spec, str):
        name = spec
    else:
        raise TypeError(
            f"spec must be a registered name or a spec dict, got "
            f"{type(spec).__name__}"
        )
    return segmenter_entry(name).build(config)
