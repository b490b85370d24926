"""Tests for the bit-sliced vertical-count bundling kernel and its plumbing.

The kernel itself (``PackedBackend.bundle_masked``) is held to bit-exactness
against two independent oracles — ``DenseBackend.bundle_masked`` and a plain
numpy sum of the member rows — across the edge cases that stress its
invariants: empty and all-member masks, dimensions that are not multiples of
64 (padding bits), single-row storage, and member counts that cross the
``2^counter_depth - 1`` block capacity (counter overflow boundary).  Those
cases are small slabs, so they run with the small-slab limit at 0 to reach
the carry-save kernel; ``TestSmallSlabs`` covers the limit itself.  The
plumbing tests cover the tunable surface: ``make_backend`` options,
``SegHDCConfig.backend_options``, the engine threading, the CLI, and the
device-model bundling formula.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.hdc import DenseBackend, PackedBackend, make_backend
from repro.hdc import backend as backend_module
from repro.hdc.backend import SMALL_SLAB_BITS
from repro.seghdc import SegHDCConfig, SegHDCEngine


def _random_hvs(rng, rows, dimension):
    return rng.integers(0, 2, size=(rows, dimension), dtype=np.uint8)


def _assert_bundle_exact(packed, hvs, mask):
    """The bit-sliced kernel must match both oracles bit for bit."""
    dense_total = DenseBackend().bundle_masked(DenseBackend().pack(hvs), mask)
    storage = packed.pack(hvs)
    sliced_total = packed.bundle_masked(storage, mask)
    assert sliced_total.dtype == np.int64
    assert np.array_equal(sliced_total, dense_total)
    assert np.array_equal(sliced_total, hvs[mask].sum(0))


@pytest.fixture
def word_kernels(monkeypatch):
    """Send every packed call to the word kernels, however small."""
    monkeypatch.setattr(backend_module, "SMALL_SLAB_BITS", 0)


@pytest.mark.usefixtures("word_kernels")
class TestBitSlicedKernel:
    @pytest.mark.parametrize("dimension", [64, 65, 100, 333, 1000])
    def test_random_masks_match_oracles(self, rng, dimension):
        hvs = _random_hvs(rng, 57, dimension)
        mask = rng.integers(0, 2, size=57).astype(bool)
        _assert_bundle_exact(PackedBackend(), hvs, mask)

    def test_empty_mask_is_zero(self, rng):
        packed = PackedBackend()
        storage = packed.pack(_random_hvs(rng, 10, 100))
        total = packed.bundle_masked(storage, np.zeros(10, dtype=bool))
        assert total.shape == (100,)
        assert total.dtype == np.int64
        assert not total.any()

    def test_all_member_mask(self, rng):
        hvs = _random_hvs(rng, 40, 130)
        mask = np.ones(40, dtype=bool)
        _assert_bundle_exact(PackedBackend(), hvs, mask)
        packed = PackedBackend()
        total = packed.bundle_masked(packed.pack(hvs), mask)
        assert np.array_equal(total, hvs.astype(np.int64).sum(axis=0))

    def test_single_row_storage(self, rng):
        hvs = _random_hvs(rng, 1, 77)
        packed = PackedBackend()
        total = packed.bundle_masked(packed.pack(hvs), np.array([True]))
        assert np.array_equal(total, hvs[0].astype(np.int64))
        _assert_bundle_exact(packed, hvs, np.array([False]))

    def test_padding_bits_never_leak(self):
        # d = 65: the second word carries 63 padding bits.  All-ones rows
        # make any padding leak visible as a count > the member count.
        hvs = np.ones((9, 65), dtype=np.uint8)
        packed = PackedBackend()
        total = packed.bundle_masked(packed.pack(hvs), np.ones(9, dtype=bool))
        assert total.shape == (65,)
        assert (total == 9).all()

    @pytest.mark.parametrize("members", [7, 8, 9, 20, 63])
    def test_counter_overflow_boundary(self, rng, members):
        """counter_depth=3 caps a block at 2^3 - 1 = 7 members; member sets
        at, just above, and far above the capacity must all stay exact."""
        packed = PackedBackend(counter_depth=3)
        hvs = np.ones((members, 70), dtype=np.uint8)  # worst case: every
        mask = np.ones(members, dtype=bool)           # counter saturates
        total = packed.bundle_masked(packed.pack(hvs), mask)
        assert (total == members).all()
        random_hvs = _random_hvs(rng, members, 70)
        _assert_bundle_exact(packed, random_hvs, mask)

    def test_chunk_boundary_splits_are_exact(self, rng):
        hvs = _random_hvs(rng, 23, 90)
        mask = rng.integers(0, 2, size=23).astype(bool)
        baseline = PackedBackend().bundle_masked(PackedBackend().pack(hvs), mask)
        for chunk_rows in (1, 2, 5, 23, 1000):
            packed = PackedBackend(bundle_chunk_rows=chunk_rows)
            total = packed.bundle_masked(packed.pack(hvs), mask)
            assert np.array_equal(total, baseline), f"chunk_rows={chunk_rows}"

    @pytest.mark.parametrize("depth", [1, 2, 5, 62])
    def test_every_counter_depth_is_exact(self, rng, depth):
        hvs = _random_hvs(rng, 31, 128)
        mask = rng.integers(0, 2, size=31).astype(bool)
        _assert_bundle_exact(PackedBackend(counter_depth=depth), hvs, mask)

    def test_integer_mask_accepted(self, rng):
        hvs = _random_hvs(rng, 12, 64)
        labels = rng.integers(0, 2, size=12)
        packed = PackedBackend()
        total = packed.bundle_masked(packed.pack(hvs), labels == 1)
        assert np.array_equal(total, hvs[labels == 1].astype(np.int64).sum(axis=0))


def _weighted_oracle(hvs, mask, weights):
    """The weighted bundle spelled out: every selected row repeated
    ``weights[i]`` times, then summed."""
    repeated = np.repeat(hvs[mask], weights[mask], axis=0)
    return repeated.astype(np.int64).sum(axis=0)


@pytest.mark.usefixtures("word_kernels")
class TestWeightedBundle:
    """``bundle_masked(storage, mask, weights)`` equals the plain sum of the
    selected rows repeated ``weights`` times, on both backends."""

    BACKENDS = [DenseBackend(), PackedBackend(), PackedBackend(counter_depth=2)]

    @pytest.mark.parametrize("backend", BACKENDS, ids=["dense", "packed", "depth2"])
    @pytest.mark.parametrize("dimension", [63, 64, 65, 1000])
    def test_weights_match_repeated_rows(self, rng, backend, dimension):
        hvs = _random_hvs(rng, 24, dimension)
        mask = rng.integers(0, 2, size=24).astype(bool)
        mask[:4] = True
        weights = rng.choice([1, 2, 3, 255], size=24)
        total = backend.bundle_masked(backend.pack(hvs), mask, weights)
        assert total.dtype == np.int64
        assert np.array_equal(total, _weighted_oracle(hvs, mask, weights))

    @pytest.mark.parametrize("weight", [1, 2, 3, 4, 7, 255])
    def test_weight_above_the_block_capacity(self, rng, weight):
        """counter_depth=2 caps a block at 3 rows (counts below 4 with unit
        weights); weights at and past that, over several blocks, stay
        exact.  All-ones rows make every counter saturate."""
        packed = PackedBackend(counter_depth=2)
        dense = DenseBackend()
        for hvs in (np.ones((10, 70), dtype=np.uint8), _random_hvs(rng, 10, 70)):
            mask = np.ones(10, dtype=bool)
            weights = np.full(10, weight)
            weights[3] = 5
            expected = _weighted_oracle(hvs, mask, weights)
            assert np.array_equal(
                packed.bundle_masked(packed.pack(hvs), mask, weights), expected
            )
            assert np.array_equal(
                dense.bundle_masked(dense.pack(hvs), mask, weights), expected
            )

    @pytest.mark.parametrize("backend", BACKENDS, ids=["dense", "packed", "depth2"])
    @pytest.mark.parametrize("dimension", [63, 64, 65, 1000])
    def test_unit_weights_equal_the_unweighted_sum(self, rng, backend, dimension):
        hvs = _random_hvs(rng, 30, dimension)
        mask = rng.integers(0, 2, size=30).astype(bool)
        storage = backend.pack(hvs)
        assert np.array_equal(
            backend.bundle_masked(storage, mask, np.ones(30, dtype=np.int64)),
            backend.bundle_masked(storage, mask),
        )

    @pytest.mark.parametrize("backend", [DenseBackend(), PackedBackend()])
    def test_only_selected_weights_count(self, rng, backend):
        """Unselected rows' weights play no part; a selected weight of 0
        adds nothing."""
        hvs = _random_hvs(rng, 6, 100)
        mask = np.array([True, False, True, False, True, True])
        weights = np.array([2, 9, 3, 9, 0, 1])
        total = backend.bundle_masked(backend.pack(hvs), mask, weights)
        expected = 2 * hvs[0].astype(np.int64) + 3 * hvs[2] + hvs[5]
        assert np.array_equal(total, expected)

    @pytest.mark.parametrize("backend", [DenseBackend(), PackedBackend()])
    def test_bad_weights_are_refused(self, rng, backend):
        storage = backend.pack(_random_hvs(rng, 4, 64))
        mask = np.ones(4, dtype=bool)
        with pytest.raises(ValueError, match="non-negative"):
            backend.bundle_masked(storage, mask, np.array([1, -1, 1, 1]))
        with pytest.raises(ValueError, match="integers"):
            backend.bundle_masked(storage, mask, np.array([1.0, 2.0, 1.0, 1.0]))


def _count_kernel_blocks(monkeypatch):
    """Count the carry-save blocks ``PackedBackend`` flushes from now on."""
    calls = []
    kernel = PackedBackend._accumulate_block

    def counted(buckets, total, dimension):
        calls.append(dimension)
        kernel(buckets, total, dimension)

    monkeypatch.setattr(PackedBackend, "_accumulate_block", staticmethod(counted))
    return calls


class TestSmallSlabs:
    """Selections that unpack to at most ``SMALL_SLAB_BITS`` bits are summed
    unpacked, larger ones by the carry-save kernel; both are exact."""

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["under", "at", "over"])
    @pytest.mark.parametrize("dimension", [1024, 1001, 65])
    def test_weighted_bundle_across_the_limit(
        self, rng, monkeypatch, dimension, offset
    ):
        members = SMALL_SLAB_BITS // dimension + offset
        hvs = _random_hvs(rng, members + 5, dimension)
        mask = np.ones(members + 5, dtype=bool)
        mask[rng.choice(members + 5, size=5, replace=False)] = False
        weights = rng.integers(0, 1 << 20, size=members + 5)
        weights[::7] = 0
        weights[np.flatnonzero(mask)[0]] = 1 << 20
        blocks = _count_kernel_blocks(monkeypatch)
        packed = PackedBackend()
        total = packed.bundle_masked(packed.pack(hvs), mask, weights)
        assert bool(blocks) == (members * dimension > SMALL_SLAB_BITS)
        expected = weights[mask] @ hvs[mask].astype(np.int64)
        assert total.dtype == np.int64
        assert np.array_equal(total, expected)
        dense = DenseBackend()
        assert np.array_equal(
            dense.bundle_masked(dense.pack(hvs), mask, weights), expected
        )
        assert np.array_equal(
            packed.bundle_masked(packed.pack(hvs), mask),
            hvs[mask].sum(axis=0, dtype=np.int64),
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_empty_mask_is_zero(self, rng, weighted):
        hvs = _random_hvs(rng, 6, 1001)
        weights = np.arange(6) if weighted else None
        total = PackedBackend().bundle_masked(
            PackedBackend().pack(hvs), np.zeros(6, dtype=bool), weights
        )
        assert total.dtype == np.int64
        assert np.array_equal(total, np.zeros(1001, dtype=np.int64))

    @pytest.mark.parametrize("offset", [-1, 1], ids=["under", "over"])
    @pytest.mark.parametrize(
        "bad, message",
        [(-1, "non-negative"), (1.0, "integers, got float64")],
        ids=["negative", "float"],
    )
    def test_bad_weights_are_refused_on_both_sides(
        self, rng, monkeypatch, offset, bad, message
    ):
        dimension = 1001
        members = SMALL_SLAB_BITS // dimension + offset
        weights = np.ones(members, dtype=type(bad))
        weights[members // 2] = bad
        hvs = _random_hvs(rng, members, dimension)
        blocks = _count_kernel_blocks(monkeypatch)
        refusals = []
        for backend in (PackedBackend(), DenseBackend()):
            with pytest.raises(ValueError, match=message) as refused:
                backend.bundle_masked(
                    backend.pack(hvs), np.ones(members, dtype=bool), weights
                )
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert not blocks


class TestTunableSurface:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="counter_depth"):
            PackedBackend(counter_depth=0)
        with pytest.raises(ValueError, match="counter_depth"):
            PackedBackend(counter_depth=63)
        with pytest.raises(ValueError, match="bundle_chunk_rows"):
            PackedBackend(bundle_chunk_rows=0)

    def test_make_backend_forwards_options(self):
        packed = make_backend("packed", counter_depth=4, bundle_chunk_rows=32)
        assert packed.counter_depth == 4
        assert packed.bundle_chunk_rows == 32

    def test_make_backend_rejects_unknown_options(self):
        with pytest.raises(ValueError, match="does not accept"):
            make_backend("packed", lane_width=9)
        with pytest.raises(ValueError, match="does not accept"):
            make_backend("dense", counter_depth=8)

    def test_make_backend_reports_bad_values_not_bad_names(self):
        """A wrong-typed value for a *supported* tunable must surface as the
        constructor's validation error, not as 'option does not exist'."""
        with pytest.raises(ValueError, match="counter_depth must be an int"):
            make_backend("packed", counter_depth="8")

    def test_make_backend_rejects_options_on_instances(self):
        with pytest.raises(ValueError, match="already-built"):
            make_backend(PackedBackend(), counter_depth=8)

    def test_capabilities_report_tunables(self):
        caps = PackedBackend(counter_depth=5, bundle_chunk_rows=99).capabilities()
        assert caps["name"] == "packed"
        assert caps["storage"] == "uint64"
        assert caps["tunables"]["counter_depth"] == 5
        assert caps["tunables"]["bundle_chunk_rows"] == 99
        dense_caps = DenseBackend().capabilities()
        assert dense_caps == {"name": "dense", "storage": "uint8", "tunables": {}}

    def test_pickle_preserves_bundling_tunables(self):
        clone = pickle.loads(
            pickle.dumps(PackedBackend(counter_depth=7, bundle_chunk_rows=11))
        )
        assert clone.counter_depth == 7
        assert clone.bundle_chunk_rows == 11


class TestConfigPlumbing:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="counter_depth"):
            SegHDCConfig(counter_depth=0)
        with pytest.raises(ValueError, match="bundle_chunk_rows"):
            SegHDCConfig(bundle_chunk_rows=-1)

    def test_backend_options_only_for_packed(self):
        dense = SegHDCConfig(dimension=64, backend="dense", counter_depth=4)
        assert dense.backend_options() == {}
        packed = SegHDCConfig(
            dimension=64, backend="packed", counter_depth=4, bundle_chunk_rows=7
        )
        assert packed.backend_options() == {
            "counter_depth": 4,
            "bundle_chunk_rows": 7,
        }

    def test_engine_threads_tunables_to_backend(self):
        config = SegHDCConfig(
            dimension=64,
            backend="packed",
            counter_depth=6,
            bundle_chunk_rows=123,
        )
        engine = SegHDCEngine(config)
        assert engine.backend.counter_depth == 6
        assert engine.backend.bundle_chunk_rows == 123

    def test_tunables_roundtrip_through_spec(self):
        config = SegHDCConfig(
            dimension=64, backend="packed", counter_depth=9, bundle_chunk_rows=50
        )
        data = config.to_dict()
        assert data["counter_depth"] == 9
        assert data["bundle_chunk_rows"] == 50
        assert SegHDCConfig.from_dict(data) == config

    def test_tunables_do_not_change_labels(self, rng):
        """The tunables only trade throughput; label maps must not move."""
        image = rng.integers(0, 256, size=(12, 14), dtype=np.uint8)
        base = SegHDCConfig(
            dimension=128, num_iterations=3, beta=2, seed=0, backend="packed"
        )
        reference = SegHDCEngine(base).segment(image).labels
        tuned = base.with_overrides(counter_depth=3, bundle_chunk_rows=5)
        assert np.array_equal(
            SegHDCEngine(tuned).segment(image).labels, reference
        )

    def test_workload_records_backend_capabilities(self, rng):
        image = rng.integers(0, 256, size=(8, 9), dtype=np.uint8)
        config = SegHDCConfig(
            dimension=64, num_iterations=1, beta=2, backend="packed",
            counter_depth=5,
        )
        workload = SegHDCEngine(config).segment(image).workload
        caps = workload["backend_capabilities"]
        assert caps["name"] == "packed"
        assert caps["tunables"]["counter_depth"] == 5

    def test_config_json_reaches_kernel_through_registry(self):
        from repro.api import make_segmenter

        segmenter = make_segmenter(
            {
                "segmenter": "seghdc",
                "config": {
                    "dimension": 64,
                    "backend": "packed",
                    "counter_depth": 4,
                },
            }
        )
        assert segmenter.backend.counter_depth == 4


class TestBundleCostModel:
    def test_formula_validation(self):
        from repro.device import packed_bundle_cost

        with pytest.raises(ValueError, match="num_rows"):
            packed_bundle_cost(-1, 64)
        with pytest.raises(ValueError, match="counter_depth"):
            packed_bundle_cost(10, 64, counter_depth=0)
        assert packed_bundle_cost(0, 64).operations == 0.0

    def test_cost_scales_with_rows_and_dimension(self):
        from repro.device import packed_bundle_cost

        small = packed_bundle_cost(1000, 1024)
        more_rows = packed_bundle_cost(4000, 1024)
        wider = packed_bundle_cost(1000, 4096)
        assert more_rows.operations > small.operations
        assert wider.operations > small.operations
        assert more_rows.bytes_moved > small.bytes_moved

    def test_shallow_counters_flush_more(self):
        from repro.device import packed_bundle_cost

        deep = packed_bundle_cost(10_000, 2048, counter_depth=16)
        shallow = packed_bundle_cost(10_000, 2048, counter_depth=2)
        assert shallow.operations > deep.operations

    def test_bitsliced_update_is_cheaper_than_unpack_roundtrip(self):
        """The modelled packed bundle must undercut the replaced dense
        round-trip's traffic (the win the kernel was built for)."""
        from repro.device import packed_bundle_cost

        rows, dimension = 10_000, 4096
        cost = packed_bundle_cost(rows, dimension)
        unpack_roundtrip_bytes = 2 * rows * dimension  # dense write + re-read
        assert cost.bytes_moved < unpack_roundtrip_bytes

    def test_seghdc_cost_accepts_bundle_tunables(self):
        from repro.device import seghdc_cost

        base = seghdc_cost(
            64, 64, dimension=1024, num_clusters=2, num_iterations=3,
            backend="packed",
        )
        shallow = seghdc_cost(
            64, 64, dimension=1024, num_clusters=2, num_iterations=3,
            backend="packed", counter_depth=2,
        )
        assert shallow.operations > base.operations


class TestCLISurface:
    def test_list_shows_backend_capabilities(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out
        assert "counter_depth=16" in out

    def test_config_json_sets_counter_depth(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "segment",
                "--dataset",
                "dsb2018",
                "--height",
                "16",
                "--width",
                "20",
                "--config-json",
                '{"dimension": 64, "num_iterations": 1, "backend": "packed",'
                ' "counter_depth": 4}',
            ]
        )
        assert exit_code == 0
        assert "backend=packed" in capsys.readouterr().out
