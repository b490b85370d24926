"""The seeded wire fuzzer (``tools/fuzz_wire.py``) at a tier-1 budget.

CI runs the same fuzzer for a million iterations; here 20k mutants (about a
second) guard the decoder properties, and a second test proves the
properties have teeth by handing the fuzzer a validator that lets empty and
NaN images through.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.serving import http as http_module
from repro.serving.http import HTTPRequestError

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fuzz_wire.py"
_spec = importlib.util.spec_from_file_location("fuzz_wire", _TOOL)
fuzz_wire = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz_wire)


def _validated_without_refusals(array):
    """Image validation that serves zero-length and NaN images."""
    if array.ndim not in (2, 3) or array.dtype.kind not in "uif":
        raise HTTPRequestError("not an image")
    if array.dtype != np.uint8:
        array = np.clip(np.asarray(array, dtype=np.float64), 0, 255).astype(np.uint8)
    return array


def test_twenty_thousand_mutants_hold_every_property():
    outcomes = fuzz_wire.fuzz(seed=0, iterations=20_000)
    assert outcomes["ok"] + outcomes["refused"] == 20_000
    # Some mutants must still decode, or the served-image checks are idle.
    assert outcomes["ok"] > 0


def test_fuzzer_catches_a_validator_that_serves_empty_and_nan_images(monkeypatch):
    monkeypatch.setattr(http_module, "_validated_image", _validated_without_refusals)
    with pytest.raises(fuzz_wire.WireFuzzFailure, match="shape|invalid value"):
        fuzz_wire.fuzz(seed=0, iterations=20_000)
