"""Tests for the unified segmentation API (repro.api).

Covers the Segmenter protocol (structural compliance, describe round-trips,
pickle-by-spec), the central registry (names, error messages, custom
registration), validated config dict round-trips for every registered
config, the declarative RunSpec layer (JSON round-trips, field-naming
errors), and the end-to-end run-spec executor.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.api import (
    RunSpec,
    SegmentationResult,
    Segmenter,
    ServingOptions,
    available_segmenters,
    execute_run_spec,
    make_segmenter,
    register_segmenter,
    registered_configs,
    segmenter_entry,
)
from repro.api.registry import _REGISTRY
from repro.baseline import CNNBaselineConfig, CNNUnsupervisedSegmenter
from repro.seghdc import SegHDCConfig, SegHDCEngine


def _image(shape=(16, 20), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _seghdc_config(**overrides):
    base = SegHDCConfig(dimension=300, num_iterations=2, beta=3, seed=0)
    return base.with_overrides(**overrides)


def _cnn_config(**overrides):
    base = dict(num_features=8, num_layers=1, max_iterations=3, seed=0)
    base.update(overrides)
    return CNNBaselineConfig(**base)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = available_segmenters()
        assert "seghdc" in names
        assert "cnn_baseline" in names
        assert names == sorted(names)

    def test_make_by_name_with_default_config(self):
        segmenter = make_segmenter("seghdc")
        assert isinstance(segmenter, SegHDCEngine)
        assert segmenter.config == SegHDCConfig()

    def test_make_by_name_with_config_instance_and_dict(self):
        config = _seghdc_config()
        from_instance = make_segmenter("seghdc", config=config)
        from_dict = make_segmenter("seghdc", config=config.to_dict())
        assert from_instance.config == from_dict.config == config

    def test_make_from_spec_dict(self):
        segmenter = make_segmenter(
            {"segmenter": "cnn_baseline", "config": {"max_iterations": 7}}
        )
        assert isinstance(segmenter, CNNUnsupervisedSegmenter)
        assert segmenter.config.max_iterations == 7

    def test_registering_a_builtin_name_errors_even_before_lazy_load(
        self, monkeypatch
    ):
        """register_segmenter must load the built-ins first: a user entry
        under a built-in name would otherwise silently succeed and then be
        clobbered by the lazy built-in import (which uses overwrite=True)."""
        import sys

        from repro.api import registry as registry_module

        # Simulate a fresh interpreter where only repro.api was imported:
        # empty registry, built-ins not yet lazily loaded (their modules
        # must leave sys.modules so the lazy import re-registers them).
        monkeypatch.setattr(registry_module, "_REGISTRY", {})
        monkeypatch.setattr(registry_module, "_BUILTINS_LOADED", False)
        for mod in ("repro.baseline.segmenter", "repro.seghdc.engine"):
            monkeypatch.delitem(sys.modules, mod, raising=False)
        with pytest.raises(ValueError, match="already registered"):
            register_segmenter(
                "cnn_baseline",
                factory=lambda config=None, **kw: None,
                config_cls=SegHDCConfig,
            )
        # The built-in entry is intact and resolvable (compare by name: the
        # re-import created a fresh class object).
        assert (
            type(make_segmenter("cnn_baseline")).__name__
            == "CNNUnsupervisedSegmenter"
        )

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="cnn_baseline.*seghdc"):
            make_segmenter("watershed")
        with pytest.raises(ValueError, match="unknown segmenter"):
            segmenter_entry("gpu9000")

    def test_spec_dict_errors_name_the_field(self):
        with pytest.raises(ValueError, match="'algorithm'"):
            make_segmenter({"algorithm": "seghdc"})
        with pytest.raises(ValueError, match="segmenter"):
            make_segmenter({"config": {}})
        with pytest.raises(TypeError, match="config inside the spec"):
            make_segmenter({"segmenter": "seghdc"}, config=_seghdc_config())

    @pytest.mark.parametrize("key", ["options", "capabilities"])
    def test_retired_spec_keys_are_refused_by_name(self, key):
        # A spec is exactly {"segmenter", "config"}: the retired factory
        # options channel and the capabilities entry are unknown fields.
        with pytest.raises(ValueError, match=f"'{key}'"):
            make_segmenter({"segmenter": "seghdc", key: {}})

    def test_wrong_config_type_is_rejected(self):
        with pytest.raises(TypeError, match="SegHDCConfig"):
            make_segmenter("seghdc", config=_cnn_config())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_segmenter(
                "seghdc", factory=lambda c: None, config_cls=SegHDCConfig
            )

    def test_custom_registration_builds_through_registry(self):
        class ToySegmenter:
            def __init__(self, config):
                self.config = config

            def segment(self, image):
                pixels = np.asarray(image)
                return SegmentationResult(
                    labels=np.zeros(pixels.shape[:2], dtype=np.int32),
                    elapsed_seconds=0.0,
                    num_clusters=1,
                )

            def segment_batch(self, images):
                return [self.segment(image) for image in images]

            def describe(self):
                return {"segmenter": "toy-test", "config": self.config.to_dict()}

        try:
            register_segmenter(
                "toy-test", factory=ToySegmenter, config_cls=CNNBaselineConfig
            )
            segmenter = make_segmenter("toy-test")
            assert isinstance(segmenter, Segmenter)
            assert "toy-test" in available_segmenters()
            result = segmenter.segment(_image())
            assert result.labels.shape == (16, 20)
        finally:
            _REGISTRY.pop("toy-test", None)


class TestConcurrentImports:
    def test_concurrent_first_imports_do_not_deadlock(self):
        """repro.api's lazy (PEP 562) package init is load-bearing: with
        eager submodule imports, two threads cold-importing
        repro.api.registry and repro.seghdc.engine deadlock on the module
        locks and Python's deadlock breaker surfaces partially initialized
        modules (ImportError / KeyError).  Probe in a fresh interpreter."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        probe = (
            "import threading\n"
            "errors = []\n"
            "def a():\n"
            "    try:\n"
            "        import repro.api.registry as r\n"
            "        assert {'cnn_baseline', 'seghdc'} <= set(r.available_segmenters())\n"
            "    except Exception as e:\n"
            "        errors.append(repr(e))\n"
            "def b():\n"
            "    try:\n"
            "        import repro.seghdc.engine\n"
            "    except Exception as e:\n"
            "        errors.append(repr(e))\n"
            "ta = threading.Thread(target=a); tb = threading.Thread(target=b)\n"
            "ta.start(); tb.start(); ta.join(30); tb.join(30)\n"
            "assert not errors, errors\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


class TestSegmenterProtocol:
    @pytest.mark.parametrize(
        "segmenter",
        [SegHDCEngine(_seghdc_config()), CNNUnsupervisedSegmenter(_cnn_config())],
        ids=["seghdc", "cnn_baseline"],
    )
    def test_builtins_satisfy_the_protocol(self, segmenter):
        assert isinstance(segmenter, Segmenter)

    @pytest.mark.parametrize(
        "segmenter",
        [SegHDCEngine(_seghdc_config()), CNNUnsupervisedSegmenter(_cnn_config())],
        ids=["seghdc", "cnn_baseline"],
    )
    def test_describe_rebuilds_an_equivalent_segmenter(self, segmenter):
        image = _image()
        expected = segmenter.segment(image).labels
        rebuilt = make_segmenter(segmenter.describe())
        assert type(rebuilt) is type(segmenter)
        assert np.array_equal(rebuilt.segment(image).labels, expected)

    def test_describe_survives_json(self):
        segmenter = SegHDCEngine(_seghdc_config(backend="packed"))
        spec = json.loads(json.dumps(segmenter.describe()))
        rebuilt = make_segmenter(spec)
        assert rebuilt.config == segmenter.config

    @pytest.mark.parametrize(
        "segmenter",
        [SegHDCEngine(_seghdc_config()), CNNUnsupervisedSegmenter(_cnn_config())],
        ids=["seghdc", "cnn_baseline"],
    )
    def test_pickle_by_spec_round_trip(self, segmenter):
        image = _image()
        expected = segmenter.segment(image).labels
        clone = pickle.loads(pickle.dumps(segmenter))
        assert clone.config == segmenter.config
        assert np.array_equal(clone.segment(image).labels, expected)

    def test_pickled_seghdc_starts_with_a_cold_cache(self):
        segmenter = SegHDCEngine(_seghdc_config())
        segmenter.segment(_image())
        assert segmenter.cache_info()["entries"] == 1
        clone = pickle.loads(pickle.dumps(segmenter))
        assert clone.cache_info()["entries"] == 0

    def test_segment_batch_matches_sequential_segment(self):
        images = [_image(seed=i) for i in range(3)]
        segmenter = CNNUnsupervisedSegmenter(_cnn_config())
        batch = segmenter.segment_batch(images)
        for image, result in zip(images, batch):
            assert np.array_equal(
                result.labels, segmenter.segment(image).labels
            )


class TestConfigRoundTrips:
    @pytest.mark.parametrize(
        "name", sorted(registered_configs()), ids=sorted(registered_configs())
    )
    def test_default_config_round_trips(self, name):
        cls = registered_configs()[name]
        config = cls()
        assert cls.from_dict(config.to_dict()) == config
        # ... and survives JSON serialization unchanged.
        assert cls.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_non_default_seghdc_round_trip(self):
        config = SegHDCConfig(
            dimension=800,
            num_clusters=3,
            num_iterations=4,
            alpha=0.5,
            beta=7,
            gamma=2,
            position_encoding="decay",
            color_encoding="random",
            color_levels=64,
            seed=11,
            record_history=True,
            backend="packed",
        )
        assert SegHDCConfig.from_dict(config.to_dict()) == config

    def test_partial_dict_keeps_defaults(self):
        config = SegHDCConfig.from_dict({"dimension": 500})
        assert config.dimension == 500
        assert config.beta == SegHDCConfig().beta

    def test_unknown_key_names_the_field(self):
        with pytest.raises(ValueError, match="'dimenson'"):
            SegHDCConfig.from_dict({"dimenson": 500})
        # A retired option is refused like any other unknown key.
        with pytest.raises(ValueError, match="'early_stop'"):
            SegHDCConfig.from_dict({"early_stop": True})
        with pytest.raises(ValueError, match="'learning_rte'"):
            CNNBaselineConfig.from_dict({"learning_rte": 0.1})
        with pytest.raises(ValueError, match="'workers'"):
            ServingOptions.from_dict({"workers": 4})

    @pytest.mark.parametrize("key", ["use_shared_memory", "shm_slot_bytes"])
    def test_retired_shm_keys_are_refused_by_name(self, key):
        value = False if key == "use_shared_memory" else 1 << 20
        with pytest.raises(ValueError, match=f"'{key}'"):
            ServingOptions.from_dict({key: value})
        with pytest.raises(ValueError, match=f"'{key}'"):
            ServingOptions.from_dict({"mode": "process", key: value})

    def test_retired_share_grid_cache_is_refused_by_name(self):
        with pytest.raises(ValueError, match="'share_grid_cache'"):
            ServingOptions.from_dict({"share_grid_cache": False})
        with pytest.raises(ValueError, match="'share_grid_cache'"):
            ServingOptions.from_dict({"mode": "process", "share_grid_cache": True})

    def test_bad_value_type_names_the_field(self):
        with pytest.raises(ValueError, match="'dimension'"):
            SegHDCConfig.from_dict({"dimension": "big"})
        with pytest.raises(ValueError, match="'alpha'"):
            SegHDCConfig.from_dict({"alpha": "0.2"})
        with pytest.raises(ValueError, match="'record_history'"):
            SegHDCConfig.from_dict({"record_history": 1})
        # bools are not ints for numeric fields.
        with pytest.raises(ValueError, match="'num_workers'"):
            ServingOptions.from_dict({"num_workers": True})

    def test_bad_value_range_names_the_field(self):
        with pytest.raises(ValueError, match="dimension"):
            SegHDCConfig.from_dict({"dimension": 2})
        with pytest.raises(ValueError, match="max_iterations"):
            CNNBaselineConfig.from_dict({"max_iterations": 0})
        with pytest.raises(ValueError, match="mode"):
            ServingOptions.from_dict({"mode": "fiber"})

    def test_int_widens_to_float_fields(self):
        config = SegHDCConfig.from_dict({"alpha": 1})
        assert config.alpha == 1.0
        assert isinstance(config.alpha, float)

    def test_tuple_fields_round_trip(self):
        """to_dict turns tuples into JSON lists; from_dict must turn them
        back so the round-trip equality holds for a config that gains a
        tuple-typed field."""
        from dataclasses import dataclass

        from repro.api.spec import config_from_dict, config_to_dict

        @dataclass(frozen=True)
        class TupleConfig:
            shape: tuple = (4, 8)
            name: str = "x"

        config = TupleConfig(shape=(16, 20))
        data = config_to_dict(config)
        assert data["shape"] == [16, 20]
        rebuilt = config_from_dict(TupleConfig, json.loads(json.dumps(data)))
        assert rebuilt == config
        assert isinstance(rebuilt.shape, tuple)


class TestScaledForShape:
    def test_matches_paper_scaling_formula(self):
        config = SegHDCConfig.paper_defaults("dsb2018")  # beta = 26
        assert config.scaled_for_shape(128, 160).beta == 26 * 128 // 1000 + 1
        assert config.scaled_for_shape(1000, 1200).beta == 27

    def test_tiny_images_floor_at_one(self):
        assert SegHDCConfig(beta=26).scaled_for_shape(20, 24).beta == 1

    def test_scales_the_configs_own_beta(self):
        assert SegHDCConfig.paper_defaults("bbbc005").scaled_for_shape(
            500, 600
        ).beta == 21 * 500 // 1000 + 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="positive"):
            SegHDCConfig().scaled_for_shape(0, 10)


class TestServingOptions:
    def test_round_trip_and_server_kwargs(self):
        options = ServingOptions(mode="process", num_workers=3, max_batch_size=2)
        assert ServingOptions.from_dict(options.to_dict()) == options
        kwargs = options.server_kwargs()
        assert kwargs["mode"] == "process"
        assert kwargs["num_workers"] == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ServingOptions(mode="fiber")
        with pytest.raises(ValueError, match="num_workers"):
            ServingOptions(num_workers=0)
        with pytest.raises(ValueError, match="latency_window"):
            ServingOptions(latency_window=0)


class TestRunSpec:
    def _spec(self, **overrides):
        base = dict(
            segmenter="seghdc",
            config={"dimension": 300, "num_iterations": 2, "beta": 3},
            dataset="dsb2018",
            num_images=2,
            image_shape=(24, 32),
            seed=0,
        )
        base.update(overrides)
        return RunSpec(**base)

    def test_dict_and_json_round_trip(self):
        spec = self._spec(serving={"mode": "thread", "num_workers": 2})
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_config_is_normalised_to_the_full_dict(self):
        spec = self._spec()
        assert spec.config["dimension"] == 300
        # Unspecified fields are spelled out with their defaults.
        assert spec.config["color_levels"] == SegHDCConfig().color_levels
        assert spec.build_config() == SegHDCConfig(
            dimension=300, num_iterations=2, beta=3
        )

    def test_build_segmenter_matches_direct_construction(self):
        spec = self._spec()
        image = _image((24, 32))
        via_spec = spec.build_segmenter().segment(image).labels
        direct = SegHDCEngine(spec.build_config()).segment(image).labels
        assert np.array_equal(via_spec, direct)

    def test_unknown_top_level_field_is_named(self):
        with pytest.raises(ValueError, match="'datset'"):
            RunSpec.from_dict({"segmenter": "seghdc", "datset": "dsb2018"})

    def test_bad_nested_config_field_is_named(self):
        with pytest.raises(ValueError, match="'dimenson'"):
            RunSpec.from_dict(
                {"segmenter": "seghdc", "config": {"dimenson": 100}}
            )

    def test_unknown_segmenter_lists_available(self):
        with pytest.raises(ValueError, match="cnn_baseline.*seghdc"):
            RunSpec.from_dict({"segmenter": "watershed"})

    def test_field_validation_names_the_field(self):
        with pytest.raises(ValueError, match="num_images"):
            self._spec(num_images=0)
        with pytest.raises(ValueError, match="image_shape"):
            self._spec(image_shape=(24,))
        with pytest.raises(ValueError, match="image_shape"):
            RunSpec.from_dict({"segmenter": "seghdc", "image_shape": 24})
        with pytest.raises(ValueError, match="output"):
            self._spec(output=7)
        with pytest.raises(ValueError, match="serving"):
            self._spec(serving="thread")

    def test_nested_serving_options_validated(self):
        with pytest.raises(ValueError, match="mode"):
            self._spec(serving={"mode": "fiber"})

    def test_save_and_load(self, tmp_path):
        spec = self._spec(output="results/out.json")
        path = spec.save(tmp_path / "spec.json")
        assert RunSpec.load(path) == spec

    def test_example_spec_file_is_valid(self):
        from pathlib import Path

        path = Path(__file__).parent.parent / "examples" / "run_spec.json"
        spec = RunSpec.load(path)
        assert spec.segmenter == "seghdc"
        assert spec.serving is not None
        assert spec.output is not None


class TestExecuteRunSpec:
    def test_serial_run_produces_scored_payload(self, tmp_path):
        spec = RunSpec(
            segmenter="seghdc",
            config={"dimension": 300, "num_iterations": 2, "beta": 3},
            dataset="dsb2018",
            num_images=2,
            image_shape=(24, 32),
        )
        payload = execute_run_spec(spec, output=tmp_path / "out.json")
        assert payload["num_images"] == 2
        assert len(payload["per_image"]) == 2
        assert 0.0 <= payload["mean_iou"] <= 1.0
        assert "serving" not in payload
        written = json.loads((tmp_path / "out.json").read_text())
        assert written["spec"] == spec.to_dict()

    def test_served_run_matches_serial_run_bit_exactly(self):
        config = {"dimension": 300, "num_iterations": 2, "beta": 3}
        serial = execute_run_spec(
            RunSpec(config=config, num_images=3, image_shape=(24, 32))
        )
        served = execute_run_spec(
            RunSpec(
                config=config,
                num_images=3,
                image_shape=(24, 32),
                serving={"mode": "thread", "num_workers": 2},
            )
        )
        assert served["serving"]["completed"] == 3
        for a, b in zip(serial["per_image"], served["per_image"]):
            assert a["iou"] == b["iou"]

    def test_accepts_dict_and_path_inputs(self, tmp_path):
        data = {
            "segmenter": "cnn_baseline",
            "config": {"num_features": 8, "num_layers": 1, "max_iterations": 2},
            "num_images": 1,
            "image_shape": [16, 20],
        }
        from_dict = execute_run_spec(data)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        from_path = execute_run_spec(path)
        assert from_dict["per_image"][0]["iou"] == from_path["per_image"][0]["iou"]


class TestDescribe:
    @pytest.mark.parametrize(
        "name", ["seghdc", "cnn_baseline", "threshold", "tiled"]
    )
    def test_every_builtin_describes_segmenter_and_config(self, name):
        spec = make_segmenter(name).describe()
        assert set(spec) == {"segmenter", "config"}
        rebuilt = make_segmenter(json.loads(json.dumps(spec)))
        assert rebuilt.describe() == spec
