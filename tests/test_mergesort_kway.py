"""Tests for the true k-way merge kernel family (`repro.mergesort.kway`).

Covers the kernel's correctness and stability contracts, the staged
schedule's zero-conflict claim for coprime (E, w), the fused schedule's
reduction to Algorithm 1 at k = 2, the log_k level count of the sort
pipeline, and the removed ``merge_runs`` alias's guided failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.mergesort.kway import (
    KWAY_SCHEDULES,
    kway_level_count,
    kway_merge_block,
    kway_merge_path_search,
    kway_sort,
)
from repro.numtheory import gcd
from repro.sim.trace import AccessTrace


def _random_runs(rng, k, total, high=10**6):
    """k sorted runs with random (possibly zero) lengths summing to total."""
    lens = rng.multinomial(total, np.ones(k) / k)
    vals = rng.integers(0, high, total)
    offs = np.concatenate(([0], np.cumsum(lens)))
    return [np.sort(vals[offs[r]:offs[r + 1]]) for r in range(k)]


class TestKwayMergePathSearch:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cuts_partition_the_stable_merge(self, k):
        rng = np.random.default_rng(k)
        runs = _random_runs(rng, k, 200, high=50)  # heavy duplicates
        flat = np.concatenate(runs)
        for diagonal in (0, 1, 57, 100, 199, 200):
            cuts = kway_merge_path_search(runs, diagonal)
            assert sum(cuts) == diagonal
            prefix = np.concatenate(
                [runs[r][:c] for r, c in enumerate(cuts)]
            )
            assert np.array_equal(np.sort(prefix), np.sort(flat)[:diagonal])

    def test_stability_ties_go_to_lower_run_index(self):
        # Both runs are all-fives; the stable cut takes run 0 first.
        runs = [np.full(4, 5), np.full(4, 5)]
        assert kway_merge_path_search(runs, 3) == (3, 0)
        assert kway_merge_path_search(runs, 6) == (4, 2)

    def test_diagonal_out_of_range(self):
        with pytest.raises(ParameterError):
            kway_merge_path_search([np.arange(3)], 4)


class TestKwayLevelCount:
    @pytest.mark.parametrize(
        "n_runs,k,expected",
        [(16, 2, 4), (16, 4, 2), (16, 3, 3), (1, 4, 0), (5, 4, 2), (64, 4, 3)],
    )
    def test_iterated_ceil_division(self, n_runs, k, expected):
        assert kway_level_count(n_runs, k) == expected

    def test_k_below_two_rejected(self):
        with pytest.raises(ParameterError):
            kway_level_count(8, 1)


class TestKwayMergeBlock:
    @pytest.mark.parametrize("variant", ["thrust", "cf"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_merges_correctly(self, variant, k):
        rng = np.random.default_rng(10 * k)
        runs = _random_runs(rng, k, 32 * 5)
        merged, stats = kway_merge_block(runs, 5, 8, variant=variant)
        assert np.array_equal(merged, np.sort(np.concatenate(runs)))
        assert stats.search.compute_ops > 0

    def test_empty_and_tiny_runs(self):
        runs = [
            np.array([], dtype=np.int64),
            np.arange(100),
            np.array([3], dtype=np.int64),
            np.arange(59),
        ]
        merged, _ = kway_merge_block(runs, 5, 8, variant="cf")
        assert np.array_equal(merged, np.sort(np.concatenate(runs)))

    def test_duplicate_heavy_runs(self):
        rng = np.random.default_rng(5)
        runs = _random_runs(rng, 4, 32 * 5, high=3)
        for schedule in KWAY_SCHEDULES:
            merged, _ = kway_merge_block(
                runs, 5, 8, variant="cf", schedule=schedule
            )
            assert np.array_equal(merged, np.sort(np.concatenate(runs)))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("E,w", [(5, 8), (7, 8), (3, 32)])
    def test_staged_schedule_zero_conflicts_when_coprime(self, k, E, w):
        assert gcd(w, E) == 1
        rng = np.random.default_rng(k * E * w)
        runs = _random_runs(rng, k, w * E)
        _, stats = kway_merge_block(
            runs, E, w, variant="cf", schedule="staged", simulate_search=False
        )
        assert stats.merge.shared_replays == 0
        assert stats.merge.shared_excess == 0

    @pytest.mark.parametrize("E,w", [(6, 8), (6, 4), (4, 32)])
    def test_noncoprime_geometry_measured_not_asserted(self, E, w):
        # The rho staging permutation absorbs the non-coprime stride; the
        # schedule stays well-defined and correct, and conflicts — if the
        # partition shift ever fails to absorb them — are measured, not
        # silently ignored.  We pin correctness and non-negative counts.
        assert gcd(w, E) > 1
        rng = np.random.default_rng(E * w)
        runs = _random_runs(rng, 4, 2 * w * E)
        merged, stats = kway_merge_block(
            runs, E, w, variant="cf", schedule="staged", simulate_search=False
        )
        assert np.array_equal(merged, np.sort(np.concatenate(runs)))
        assert stats.merge.shared_replays >= 0

    def test_fused_schedule_reduces_to_algorithm1_at_k2(self):
        rng = np.random.default_rng(2)
        runs = _random_runs(rng, 2, 32 * 15)
        _, stats = kway_merge_block(
            runs, 15, 32, variant="cf", schedule="fused", simulate_search=False
        )
        assert stats.merge.shared_replays == 0

    def test_fused_schedule_conflicts_reappear_beyond_k2(self):
        # The CRS trick is a statement about TWO interleaved sequences;
        # at k = 4 the fused rounds mix same-residue addresses and the
        # conflicts come back — the measurement the docs table cites.
        runs = [np.arange(r, 32 * 15, 4) for r in range(4)]
        _, stats = kway_merge_block(
            runs, 15, 32, variant="cf", schedule="fused", simulate_search=False
        )
        assert stats.merge.shared_replays > 0

    def test_trace_phases_are_labeled(self):
        rng = np.random.default_rng(3)
        runs = _random_runs(rng, 3, 8 * 5)
        trace = AccessTrace()
        kway_merge_block(runs, 5, 8, variant="cf", trace=trace)
        phases = {event.phase for event in trace.events}
        assert {"search", "gather", "scatter"} <= phases

    def test_validation(self):
        with pytest.raises(ParameterError):
            kway_merge_block([np.arange(5)], 5, 8)  # k < 2
        with pytest.raises(ParameterError):
            kway_merge_block([np.arange(5), np.array([2, 1])], 5, 8)
        with pytest.raises(ParameterError):
            kway_merge_block([np.arange(5), np.arange(6)], 5, 8)  # total % E
        with pytest.raises(ParameterError):
            kway_merge_block([np.arange(20), np.arange(20)], 5, 8, variant="x")
        with pytest.raises(ParameterError):
            kway_merge_block([np.arange(20), np.arange(20)], 5, 8, schedule="x")


class TestKwaySort:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sorted_with_logk_levels(self, k):
        rng = np.random.default_rng(k)
        n_tiles = 16
        data = rng.integers(0, 1 << 40, n_tiles * 32 * 5)
        result = kway_sort(data, k, 5, 32, 8, variant="cf")
        assert np.array_equal(result.data, np.sort(data))
        assert result.merge_level_count == kway_level_count(n_tiles, k)
        assert result.merge_replays == 0  # gcd(5, 8) = 1

    def test_k4_halves_the_pairwise_level_count(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 1 << 30, 16 * 32 * 5)
        result = kway_sort(data, 4, 5, 32, 8)
        assert result.merge_level_count == 2
        assert kway_level_count(16, 2) == 4

    def test_unpadded_input_and_single_tile(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 100, 777)
        result = kway_sort(data, 4, 5, 32, 8)
        assert np.array_equal(result.data, np.sort(data))
        small = kway_sort(data[:40], 4, 5, 32, 8)
        assert np.array_equal(small.data, np.sort(data[:40]))
        assert small.merge_level_count == 0

    def test_thrust_variant_conflicts(self):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1 << 30, 4 * 32 * 5)
        result = kway_sort(data, 4, 5, 32, 8, variant="thrust")
        assert np.array_equal(result.data, np.sort(data))
        assert result.merge_replays > 0

    def test_empty(self):
        result = kway_sort([], 4, 5, 32, 8)
        assert len(result.data) == 0
        assert result.merge_level_count == 0


class TestTournamentCompat:
    def test_merge_runs_is_removed_with_a_pointer(self):
        import repro.mergesort.kway as kway_module

        with pytest.raises(AttributeError):
            kway_module.merge_runs
        with pytest.raises(ImportError):
            from repro.mergesort.kway import merge_runs  # noqa: F401

    def test_other_missing_attributes_fail_normally(self):
        import repro.mergesort.kway as kway_module

        with pytest.raises(AttributeError, match="no attribute"):
            kway_module.definitely_not_a_symbol
