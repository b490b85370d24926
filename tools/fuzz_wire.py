#!/usr/bin/env python
"""Seeded mutation fuzzer for the HTTP wire decoders.

Starts from valid seed bodies — raw ``.npy`` images, framed (SHDC) batches
and JSON envelopes carrying nested-list images — and
stacks random byte-level mutations on them with a stdlib
:class:`random.Random`, so one ``--seed`` always replays the same inputs.
Every mutant goes through :func:`repro.serving.http.array_from_npy_bytes`,
:func:`repro.serving.http.unpack_frames` and
:func:`repro.serving.http.decode_segment_request` with numpy's
``RuntimeWarning`` turned into an error, and three properties must hold:

* every input yields a result or :class:`HTTPRequestError`, nothing else;
* every image ``decode_segment_request`` returns has all axes > 0;
* the returned images' total ``nbytes`` is at most ``len(body)``.

Usage::

    PYTHONPATH=src python tools/fuzz_wire.py --seed 0 --iterations 1000000

Prints one JSON summary line and exits 0, or exits 1 on the first
violation with the seed, the iteration and the offending body in hex.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
import warnings

import numpy as np

from repro.serving.http import (
    FRAME_MAGIC,
    MAX_IMAGES_PER_REQUEST,
    HTTPRequestError,
    RawRequest,
    array_from_npy_bytes,
    decode_segment_request,
    npy_bytes,
    pack_frames,
    unpack_frames,
)

__all__ = ["WireFuzzFailure", "fuzz", "main", "seed_bodies"]

_OCTET = "application/octet-stream"
_JSON = "application/json"

#: Byte strings spliced into bodies: JSON literals numpy cannot cast
#: cleanly, ``.npy`` header fragments (shapes, dtypes) and container magic.
_TOKENS = (
    b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1", b"0", b"255",
    b"[]", b"[[]]", b"{}", b"null", b"true", b'"', b",",
    b"(0,", b"0)", b"(0, 64)", b"(8, 0, 3)", b"()", b"True",
    b"'<f8'", b"'<f4'", b"'<f2'", b"'|u1'", b"'<i8'", b"'>u2'", b"'|b1'",
    b"\x93NUMPY", FRAME_MAGIC, b"\x00\x00\x00\x00", b"\xff\xff\xff\xff",
    b"\x00\x00\x00\x00\x00\x00\xf8\x7f",  # float64 NaN, little-endian
    b"\x00\x00\x80\x7f",  # float32 +inf, little-endian
)
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?")


class WireFuzzFailure(AssertionError):
    """A mutant broke one of the decoder properties."""


def seed_bodies() -> list:
    """Valid ``(content_type, body)`` pairs the mutations start from."""
    rng = np.random.default_rng(0)
    gray = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    rgb = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    floats = np.array([[0.5, 128.0], [300.0, -2.0]])
    wide = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int16)
    return [
        (_OCTET, npy_bytes(gray)),
        (_OCTET, npy_bytes(rgb)),
        (_OCTET, npy_bytes(floats)),
        (_OCTET, npy_bytes(np.asfortranarray(wide))),
        (_OCTET, pack_frames([(0, gray), (1, floats)])),
        (_OCTET, pack_frames([(0, rgb)])),
        (_JSON, json.dumps({"image": {"pixels": [[0, 128], [255, 3]]}}).encode()),
        (_JSON, json.dumps({"image": [[1.5, 2.0, 250.0]]}).encode()),
        (
            _JSON,
            json.dumps(
                {
                    "images": [
                        {"pixels": gray.tolist()},
                        [[1, 2], [3, 4]],
                    ],
                    "response_encoding": "list",
                }
            ).encode(),
        ),
    ]


def _mutate(rng: random.Random, body: bytes, seeds: list) -> bytes:
    """Stack one to four random byte-level edits on ``body``."""
    data = bytearray(body)
    for _ in range(rng.randint(1, 4)):
        size = len(data)
        position = rng.randrange(size + 1)
        choice = rng.randrange(9)
        if choice == 0 and size:
            data[min(position, size - 1)] ^= 1 << rng.randrange(8)
        elif choice == 1 and size:
            data[min(position, size - 1)] = rng.choice((0, 0x7F, 0x80, 0xFF, rng.randrange(256)))
        elif choice == 2:
            data[position:position] = rng.choice(_TOKENS)
        elif choice == 3:
            token = rng.choice(_TOKENS)
            data[position : position + len(token)] = token
        elif choice == 4:
            del data[position : position + rng.randint(1, 8)]
        elif choice == 5:
            data[position:position] = data[position : position + rng.randint(1, 16)]
        elif choice == 6:
            del data[position:]
        elif choice == 7:
            numbers = list(_NUMBER.finditer(data))
            if numbers:
                number = rng.choice(numbers)
                data[number.start() : number.end()] = rng.choice(_TOKENS)
        else:
            other = rng.choice(seeds)[1]
            data[position:] = other[rng.randrange(len(other) + 1) :]
    return bytes(data)


def _check(body: bytes, content_type: str) -> str:
    """Run every decoder on ``body``; ``"ok"`` or ``"refused"`` per the
    request decoder, raising :class:`WireFuzzFailure` on a violation."""
    for decoder in (array_from_npy_bytes, unpack_frames):
        try:
            decoded = decoder(body)
        except HTTPRequestError:
            continue
        arrays = [decoded] if isinstance(decoded, np.ndarray) else [a for _, a in decoded]
        if sum(array.nbytes for array in arrays) > len(body):
            raise WireFuzzFailure(f"{decoder.__name__} decoded more bytes than the body")
    request = RawRequest(body=body, content_type=content_type, accept="")
    try:
        images = decode_segment_request(request, MAX_IMAGES_PER_REQUEST)["images"]
    except HTTPRequestError:
        return "refused"
    for image in images:
        if 0 in image.shape:
            raise WireFuzzFailure(f"served an image of shape {image.shape}")
    if sum(image.nbytes for image in images) > len(body):
        raise WireFuzzFailure("decoded images hold more bytes than the body")
    return "ok"


def fuzz(seed: int, iterations: int) -> dict:
    """Run ``iterations`` mutants from ``seed``; returns outcome counts.

    Raises :class:`WireFuzzFailure` naming the seed, the iteration and the
    body (hex) on the first violation, including any exception other than
    :class:`HTTPRequestError` and any numpy ``RuntimeWarning``.
    """
    rng = random.Random(seed)
    seeds = seed_bodies()
    outcomes = {"ok": 0, "refused": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # ast.literal_eval warns on mangled .npy headers it then refuses.
        warnings.simplefilter("ignore", SyntaxWarning)
        for iteration in range(iterations):
            content_type, body = rng.choice(seeds)
            if rng.random() < 0.1:
                content_type = _JSON if content_type == _OCTET else _OCTET
            mutant = _mutate(rng, body, seeds)
            try:
                outcomes[_check(mutant, content_type)] += 1
            except Exception as exc:  # noqa: BLE001 - any escape is the finding
                raise WireFuzzFailure(
                    f"seed={seed} iteration={iteration} content_type={content_type}: "
                    f"{type(exc).__name__}: {exc}\nbody={mutant.hex()}"
                ) from exc
    return outcomes


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=100_000)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        outcomes = fuzz(args.seed, args.iterations)
    except WireFuzzFailure as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    summary = {
        "seed": args.seed,
        "iterations": args.iterations,
        **outcomes,
        "seconds": round(time.perf_counter() - start, 2),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
