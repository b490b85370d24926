"""Declarative, JSON-serialisable configuration: config dicts and run-specs.

Every config dataclass in the repo (``SegHDCConfig``, ``CNNBaselineConfig``,
:class:`ServingOptions`) round-trips through validated ``to_dict`` /
``from_dict`` built on the two helpers here, and :class:`RunSpec` composes
them into one JSON file that describes a whole run — which segmenter, its
hyper-parameters, the dataset, and (optionally) the serving topology::

    {"segmenter": "seghdc",
     "config": {"dimension": 800, "num_iterations": 3},
     "dataset": "dsb2018",
     "num_images": 4,
     "image_shape": [48, 64],
     "serving": {"mode": "thread", "num_workers": 2},
     "output": "results/run.json"}

Validation is strict and names the offending field: unknown keys, wrong
scalar types, and out-of-range values (via each dataclass's
``__post_init__``) all raise with the field spelled out, so a typo in a spec
file fails loudly instead of silently running the defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.api.registry import available_segmenters, segmenter_entry

__all__ = [
    "RunSpec",
    "ServingOptions",
    "config_from_dict",
    "config_to_dict",
    "registered_configs",
]

#: Scalar annotations (string form under ``from __future__ import
#: annotations`` plus the live types) mapped to accepted runtime types.
_SCALAR_TYPES = {
    "int": int,
    int: int,
    "float": (int, float),
    float: (int, float),
    "str": str,
    str: str,
    "bool": bool,
    bool: bool,
}
_BOOL_ANNOTATIONS = ("bool", bool)
_FLOAT_ANNOTATIONS = ("float", float)


def _is_tuple_annotation(annotation) -> bool:
    """True for tuple-typed fields in either string or live-type form."""
    if isinstance(annotation, str):
        return annotation.startswith(("tuple", "Tuple", "typing.Tuple"))
    origin = getattr(annotation, "__origin__", annotation)
    return isinstance(origin, type) and issubclass(origin, tuple)


def config_to_dict(config) -> dict:
    """JSON-ready dict of a config dataclass (tuples become lists)."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise TypeError(
            f"expected a config dataclass instance, got {config!r}"
        )
    return {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in dataclasses.asdict(config).items()
    }


def config_from_dict(cls: type, data: Mapping) -> object:
    """Validated inverse of :func:`config_to_dict` for dataclass ``cls``.

    Unknown keys and scalar type mismatches raise ``ValueError`` naming the
    offending field; range checks are delegated to the dataclass's own
    ``__post_init__`` (which also names fields).  Ints are accepted — and
    widened — for float fields; bools are rejected for numeric fields.
    """
    if not isinstance(data, Mapping):
        raise TypeError(
            f"{cls.__name__} spec must be a mapping, got {type(data).__name__}"
        )
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(
            f"unknown field(s) {', '.join(repr(k) for k in unknown)} for "
            f"{cls.__name__}; expected one of: {', '.join(sorted(fields))}"
        )
    kwargs = {}
    for key, value in data.items():
        annotation = fields[key].type
        expected = _SCALAR_TYPES.get(annotation)
        if expected is not None:
            is_bool = isinstance(value, bool)
            if not isinstance(value, expected) or (
                is_bool and annotation not in _BOOL_ANNOTATIONS
            ):
                raise ValueError(
                    f"field {key!r} of {cls.__name__} expects {annotation}, "
                    f"got {value!r}"
                )
            if annotation in _FLOAT_ANNOTATIONS:
                value = float(value)
        elif isinstance(value, list) and _is_tuple_annotation(annotation):
            # Inverse of config_to_dict's tuple->list JSON conversion, so
            # the round-trip contract holds for tuple-typed fields too;
            # element validation stays with the dataclass's __post_init__.
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class ServingOptions:
    """Declarative :class:`repro.serving.SegmentationServer` topology.

    Mirrors the server's keyword arguments so a JSON spec can describe the
    whole serving setup; ``SegmentationServer.from_options`` consumes it.
    """

    mode: str = "thread"
    num_workers: int = 2
    max_queue_depth: int = 64
    max_batch_size: int = 8
    latency_window: int = 4096

    def __post_init__(self) -> None:
        if self.mode not in ("thread", "process"):
            raise ValueError(
                f"mode must be 'thread' or 'process', got {self.mode!r}"
            )
        for name in (
            "num_workers", "max_queue_depth", "max_batch_size", "latency_window",
        ):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    def to_dict(self) -> dict:
        """JSON-ready dict of the serving options."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServingOptions":
        """Validated inverse of :meth:`to_dict`."""
        return config_from_dict(cls, data)

    def with_overrides(self, **overrides) -> "ServingOptions":
        """A copy with ``overrides`` applied on top of the current values.

        This is the diff seam the live control plane uses: a partial dict
        (e.g. ``{"num_workers": 4}``) is merged over the current options and
        the merged whole re-validated through :func:`config_from_dict`, so
        an unknown or mistyped field is rejected **by name** before any
        worker pool is built.  Empty overrides return an equal copy.
        """
        merged = self.to_dict()
        merged.update(overrides)
        return config_from_dict(type(self), merged)

    def server_kwargs(self) -> dict:
        """The keyword arguments ``SegmentationServer`` accepts.

        Every field mirrors a server keyword one-for-one, so a new option
        added here reaches ``SegmentationServer.from_options`` without a
        hand-maintained mapping.
        """
        return self.to_dict()


def registered_configs() -> dict[str, type]:
    """Every spec-able config class, keyed by the name a spec file uses.

    One entry per registered segmenter (its config class) plus the serving
    options; the spec round-trip tests iterate this so a newly registered
    algorithm is automatically held to the same serialization contract.
    """
    configs = {
        name: segmenter_entry(name).config_cls for name in available_segmenters()
    }
    configs["serving"] = ServingOptions
    return configs


_RUNSPEC_FIELDS = (
    "segmenter", "config", "dataset", "num_images", "image_shape", "seed",
    "serving", "output",
)


@dataclass(frozen=True)
class RunSpec:
    """One whole run as data: segmenter + config + dataset + serving.

    ``config`` holds overrides for the registered segmenter's config class
    and is normalised to the full validated config dict on construction, so
    two specs that mean the same run compare equal.  ``serving=None`` means
    run serially through ``segment_batch``; otherwise the run goes through a
    :class:`SegmentationServer` built from the options.
    """

    segmenter: str = "seghdc"
    config: dict = field(default_factory=dict)
    dataset: str = "dsb2018"
    num_images: int = 2
    image_shape: tuple[int, int] = (48, 64)
    seed: int = 0
    serving: ServingOptions | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        entry = segmenter_entry(self.segmenter)  # raises with available list
        object.__setattr__(self, "segmenter", entry.name)
        if not isinstance(self.config, Mapping):
            raise ValueError(
                f"field 'config' must be a mapping of "
                f"{entry.config_cls.__name__} overrides, got {self.config!r}"
            )
        parsed = config_from_dict(entry.config_cls, dict(self.config))
        object.__setattr__(self, "config", config_to_dict(parsed))
        if not isinstance(self.dataset, str) or not self.dataset:
            raise ValueError(
                f"field 'dataset' must be a non-empty string, got {self.dataset!r}"
            )
        from repro.datasets import available_datasets

        if self.dataset.lower() not in available_datasets():
            raise ValueError(
                f"field 'dataset' names unknown dataset {self.dataset!r}; "
                f"available: {', '.join(available_datasets())}"
            )
        if not isinstance(self.num_images, int) or isinstance(self.num_images, bool) \
                or self.num_images < 1:
            raise ValueError(
                f"field 'num_images' must be a positive int, got {self.num_images!r}"
            )
        if not isinstance(self.image_shape, (list, tuple)):
            raise ValueError(
                f"field 'image_shape' must be two positive ints (height, width), "
                f"got {self.image_shape!r}"
            )
        shape = tuple(self.image_shape)
        if len(shape) != 2 or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in shape
        ):
            raise ValueError(
                f"field 'image_shape' must be two positive ints (height, width), "
                f"got {self.image_shape!r}"
            )
        object.__setattr__(self, "image_shape", shape)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"field 'seed' must be an int, got {self.seed!r}")
        if isinstance(self.serving, Mapping):
            object.__setattr__(
                self, "serving", ServingOptions.from_dict(self.serving)
            )
        elif self.serving is not None and not isinstance(self.serving, ServingOptions):
            raise ValueError(
                f"field 'serving' must be ServingOptions (or a dict), "
                f"got {self.serving!r}"
            )
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(
                f"field 'output' must be a string path or null, got {self.output!r}"
            )

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def build_config(self):
        """The validated config instance this spec describes."""
        return config_from_dict(
            segmenter_entry(self.segmenter).config_cls, dict(self.config)
        )

    def build_segmenter(self):
        """Instantiate the spec's segmenter through the registry."""
        from repro.api.registry import make_segmenter

        return make_segmenter({"segmenter": self.segmenter, "config": dict(self.config)})

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-ready dict of the spec (optional fields only when set)."""
        data = {
            "segmenter": self.segmenter,
            "config": dict(self.config),
            "dataset": self.dataset,
            "num_images": self.num_images,
            "image_shape": list(self.image_shape),
            "seed": self.seed,
        }
        if self.serving is not None:
            data["serving"] = self.serving.to_dict()
        if self.output is not None:
            data["output"] = self.output
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Validated spec from a mapping; unknown keys raise."""
        if not isinstance(data, Mapping):
            raise TypeError(
                f"RunSpec must be built from a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_RUNSPEC_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown field(s) {', '.join(repr(k) for k in unknown)} for "
                f"RunSpec; expected one of: {', '.join(_RUNSPEC_FIELDS)}"
            )
        # __post_init__ validates and normalises every field (including
        # list->tuple for image_shape), so no pre-checks are needed here.
        return cls(**dict(data))

    def to_json(self, *, indent: int = 2) -> str:
        """The spec as an indented JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse and validate a spec from JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: "str | Path") -> Path:
        """Write the spec as JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "RunSpec":
        """Load and validate a spec from a JSON file."""
        return cls.from_json(Path(path).read_text())
