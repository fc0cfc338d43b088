"""Cross-validation of the batched engine lane against the simulator.

The batched vectorized lane (:mod:`repro.engine.batch`) must report, per
tile, *bit-identical* counters to a one-tile (T=1) call of the same
profile — batching never mixes tiles — and to the lockstep simulator
(:class:`~repro.sim.BankModel`, ``serial_merge_block``,
``cf_merge_block``, ``blocksort_tile``) — on every workload generator,
the Section 4 adversary, the full int64 value range, and non-coprime
geometries.  Sorted outputs are checked where the lane sorts (the
odd-even row sort).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.batch import (
    BatchCounters,
    batched_blocksort_phases,
    batched_blocksort_profile,
    batched_search_profile,
    batched_serial_merge_profile,
    fusion_stats,
    odd_even_sort_rows,
    pad_and_stack,
)
from repro.engine.lane import EngineStats, profile_blocksorts, profile_searches
from repro.errors import ParameterError
from repro.mergesort import blocksort_tile, cf_merge_block, serial_merge_block
from repro.sim import BankModel
from repro.sim.counters import Counters
from repro.workloads.generators import WORKLOADS, adversarial

GEOMETRIES = [(5, 32, 8), (15, 64, 32), (16, 64, 32), (6, 16, 8)]  # last two non-coprime

SHARED_FIELDS = [f for f in Counters().as_dict() if f.startswith(("shared_", "broadcast"))]


def _shared(c: Counters) -> dict[str, int]:
    """The shared-memory fields, the ones the lane models."""
    return {f: getattr(c, f) for f in SHARED_FIELDS}


def _bank_model_round(addr, act, w, counters: Counters) -> None:
    """Charge one tile's read round warp by warp through ``BankModel``."""
    bm = BankModel(w)
    for s in range(0, len(addr), w):
        cost = bm.round_cost(addr[s : s + w][act[s : s + w]])
        if cost.requests:
            counters.shared_read_rounds += 1
            counters.shared_requests += cost.requests
            counters.shared_cycles += cost.cycles
            counters.shared_replays += cost.replays
            counters.shared_excess += cost.excess
            counters.broadcast_reads += cost.broadcasts


def _tile_pairs(tile_len, seed, n_pairs=4):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        vals = np.sort(rng.integers(0, 1 << 30, tile_len, dtype=np.int64))
        mask = rng.random(tile_len) < 0.5
        pairs.append((vals[mask], vals[~mask]))
    return pairs


class TestBatchCounters:
    def test_matches_scalar_count_round_with_partial_warps(self):
        rng = np.random.default_rng(7)
        u, w, tiles = 20, 8, 3  # u % w != 0: a partial trailing warp
        bc = BatchCounters(tiles, u, w)
        singles = [Counters() for _ in range(tiles)]
        for _ in range(10):
            addr = rng.integers(0, 64, (tiles, u))
            act = rng.random((tiles, u)) < 0.7
            bc.round(addr, act)
            for t in range(tiles):
                _bank_model_round(addr[t], act[t], w, singles[t])
        for got, want in zip(bc.to_counters(), singles):
            assert got.as_dict() == want.as_dict()

    def test_all_inactive_round_is_a_noop(self):
        bc = BatchCounters(2, 8, 4)
        bc.round(np.zeros((2, 8), dtype=np.int64), np.zeros((2, 8), dtype=bool))
        assert all(c.as_dict() == Counters().as_dict() for c in bc.to_counters())

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ParameterError):
            BatchCounters(0, 8, 4)
        with pytest.raises(ParameterError):
            BatchCounters(1, 0, 4)


class TestBlocksortCrossValidation:
    @pytest.mark.parametrize("E,u,w", GEOMETRIES)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_batched_equals_fast_on_every_generator(self, E, u, w, workload):
        # Batched pass == per-tile T=1 passes == the lockstep simulator.
        tile = u * E
        rows = np.stack(
            [WORKLOADS[workload](tile, seed=3 + k) for k in range(3)]
        )
        for variant in ("thrust", "cf"):
            if variant == "cf" and np.gcd(E, w) != 1:
                continue
            batched = batched_blocksort_profile(rows, E, w, variant)
            for k in range(rows.shape[0]):
                (single,) = batched_blocksort_profile(rows[k : k + 1], E, w, variant)
                assert batched[k].as_dict() == single.as_dict(), (
                    f"{workload}/{variant} tile {k}"
                )
            _, sim = blocksort_tile(rows[0].copy(), E, w, variant)
            assert _shared(batched[0]) == _shared(sim.total), f"{workload}/{variant}"

    @pytest.mark.parametrize("E,u,w", [(5, 32, 8), (15, 64, 32)])
    def test_batched_equals_lockstep_sim_on_the_adversary(self, E, u, w):
        tile = u * E
        rows = adversarial(2, E, u, w).reshape(2, tile)
        for variant in ("thrust", "cf"):
            batched = batched_blocksort_profile(rows, E, w, variant)
            for k in range(2):
                _, sim = blocksort_tile(rows[k].copy(), E, w, variant)
                assert _shared(batched[k]) == _shared(sim.total), f"{variant} tile {k}"

    def test_noncoprime_cf_rejected_like_fast(self):
        rows = np.zeros((2, 16 * 8), dtype=np.int64)
        with pytest.raises(ParameterError):
            batched_blocksort_profile(rows, 8, 8, "cf")

    @pytest.mark.parametrize("variant", ["thrust", "cf"])
    @pytest.mark.parametrize("E,u,w", [(5, 32, 8), (15, 64, 32)])
    def test_full_int64_range_matches_simulator(self, E, u, w, variant):
        # Values past the 2v + tag packing range (|v| >= 2^62) are ranked
        # first; ranks keep order and ties, so every counter is unchanged.
        info = np.iinfo(np.int64)
        rng = np.random.default_rng(E + u)
        wide = rng.integers(info.min, info.max, u * E, dtype=np.int64)
        wide[:3] = [info.min, info.max - 1, info.min]  # below the sentinel
        wide[3:9] = wide[9:15]  # ties
        rows = np.stack([wide, rng.integers(0, 50, u * E)])
        before = fusion_stats()["fallback_blocksorts"]
        batched = batched_blocksort_profile(rows, E, w, variant)
        assert fusion_stats()["fallback_blocksorts"] == before + 1
        for k in range(2):
            _, sim = blocksort_tile(rows[k].copy(), E, w, variant)
            assert _shared(batched[k]) == _shared(sim.total), f"tile {k}"


class TestBlocksortPhases:
    @pytest.mark.parametrize("E,u,w,variant", [
        (5, 32, 8, "thrust"), (5, 32, 8, "cf"), (6, 16, 8, "thrust"),  # last non-coprime
    ])
    def test_each_phase_sums_the_simulator_phase(self, E, u, w, variant):
        rng = np.random.default_rng(E * u)
        rows = np.stack([rng.integers(0, 40, u * E) for _ in range(3)])
        phases = batched_blocksort_phases(rows, E, w, variant)
        want = [Counters(), Counters(), Counters()]
        for row in rows:
            _, sim = blocksort_tile(row.copy(), E, w, variant)
            for acc, part in zip(want, (sim.stage, sim.search, sim.merge)):
                acc.merge(part)
        for name, got, expect in zip(("stage", "search", "merge"), phases, want):
            assert _shared(got) == _shared(expect), name

    def test_phases_add_up_to_the_profile(self):
        rows = adversarial(2, 5, 32, 8).reshape(2, 160)
        for variant in ("thrust", "cf"):
            stage, search, merge = batched_blocksort_phases(rows, 5, 8, variant)
            total = sum(batched_blocksort_profile(rows, 5, 8, variant), Counters())
            assert (stage + search + merge).as_dict() == total.as_dict()


class TestMergeAndSearchCrossValidation:
    @pytest.mark.parametrize("E,u,w", GEOMETRIES)
    def test_serial_merge_profiles_match(self, E, u, w):
        pairs = _tile_pairs(u * E, seed=E * 100 + u)
        batched = batched_serial_merge_profile(pairs, E, w)
        for k, (a, b) in enumerate(pairs):
            (single,) = batched_serial_merge_profile([(a, b)], E, w)
            assert batched[k].as_dict() == single.as_dict()
            _, sim = serial_merge_block(a, b, E, w, simulate_search=False)
            assert _shared(batched[k]) == _shared(sim.merge)

    @pytest.mark.parametrize("E,u,w", GEOMETRIES)
    @pytest.mark.parametrize("mapped", [False, True])
    def test_search_profiles_match(self, E, u, w, mapped):
        pairs = _tile_pairs(u * E, seed=E * 10 + w)
        batched = batched_search_profile(pairs, E, w, mapped=mapped)
        simulate = cf_merge_block if mapped else serial_merge_block
        for k, (a, b) in enumerate(pairs):
            (single,) = batched_search_profile([(a, b)], E, w, mapped=mapped)
            assert batched[k].as_dict() == single.as_dict()
            _, sim = simulate(a, b, E, w)
            assert _shared(batched[k]) == _shared(sim.search)


class TestRowPrimitives:
    def test_odd_even_sort_rows_sorts_and_counts(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 100, (5, 9), dtype=np.int64)
        out, ops = odd_even_sort_rows(rows.copy())
        assert np.array_equal(out, np.sort(rows, axis=1))
        # The network's op count is fixed by the row length alone.
        assert ops == sum(len(range(p % 2, 9 - 1, 2)) for p in range(9))

    def test_pad_and_stack_pads_with_the_sentinel(self):
        rows = [np.arange(3, dtype=np.int64), np.arange(5, dtype=np.int64)]
        packed = pad_and_stack(rows, 5, 99)
        assert packed.shape == (2, 5)
        assert packed[0].tolist() == [0, 1, 2, 99, 99]
        assert packed[1].tolist() == [0, 1, 2, 3, 4]
        with pytest.raises(ParameterError):
            pad_and_stack(rows, 4, 99)


class TestLaneGrouping:
    def test_lane_groups_same_shape_tiles_into_one_pass(self):
        E, w = 5, 8
        rng = np.random.default_rng(1)
        tiles = [rng.integers(0, 1 << 20, 16 * E) for _ in range(4)]
        tiles += [rng.integers(0, 1 << 20, 32 * E) for _ in range(3)]
        stats = EngineStats()
        got = profile_blocksorts(tiles, E, w, "cf", stats=stats)
        assert stats.items == 7
        assert stats.passes == 2  # one vectorized pass per tile length
        for k, tile in enumerate(tiles):
            _, sim = blocksort_tile(tile.copy(), E, w, "cf")
            assert _shared(got[k]) == _shared(sim.total)

    def test_lane_search_results_keep_submission_order(self):
        E, w = 5, 8
        pairs = _tile_pairs(16 * E, seed=2) + _tile_pairs(32 * E, seed=3)
        stats = EngineStats()
        got = profile_searches(pairs, E, w, mapped=True, stats=stats)
        assert stats.passes == 2
        for k, (a, b) in enumerate(pairs):
            _, sim = cf_merge_block(a, b, E, w)
            assert _shared(got[k]) == _shared(sim.search)


class TestRoundManyEquality:
    """round_many must be bit-identical to per-round round() accounting."""

    def _pair(self, tiles, u, w):
        return (
            BatchCounters(tiles, u, w),
            BatchCounters(tiles, u, w),
        )

    @pytest.mark.parametrize("kind", ["read", "write"])
    @pytest.mark.parametrize("u,w", [(16, 8), (24, 12), (64, 32)])
    def test_stacked_equals_sequential(self, u, w, kind):
        rng = np.random.default_rng(31)
        tiles, R = 3, 9
        addr = rng.integers(0, 200, (R, tiles, u))
        act = rng.random((R, tiles, u)) < 0.8
        many, single = self._pair(tiles, u, w)
        many.round_many(addr, act, kind=kind)
        for r in range(R):
            single.round(addr[r], act[r], kind=kind)
        for got, want in zip(many.to_counters(), single.to_counters()):
            assert got.as_dict() == want.as_dict()

    def test_active_none_means_all_active(self):
        rng = np.random.default_rng(5)
        tiles, u, w, R = 2, 16, 8, 4
        addr = rng.integers(0, 64, (R, tiles, u))
        many, single = self._pair(tiles, u, w)
        many.round_many(addr, None)
        single.round_many(addr, np.ones((R, tiles, u), dtype=bool))
        for got, want in zip(many.to_counters(), single.to_counters()):
            assert got.as_dict() == want.as_dict()

    def test_negative_and_wide_addresses(self):
        # Wide spans force the int64 key dtype; negative addresses are
        # legal (they are offsets before the amin shift).
        rng = np.random.default_rng(6)
        tiles, u, w, R = 2, 16, 8, 3
        addr = rng.integers(-(1 << 40), 1 << 40, (R, tiles, u))
        act = rng.random((R, tiles, u)) < 0.7
        many, single = self._pair(tiles, u, w)
        many.round_many(addr, act)
        for r in range(R):
            single.round(addr[r], act[r])
        for got, want in zip(many.to_counters(), single.to_counters()):
            assert got.as_dict() == want.as_dict()

    @pytest.mark.parametrize("u,w", [(16, 8), (24, 12)])
    def test_assume_distinct_equals_sequential(self, u, w):
        # Per-warp distinct active addresses: a shuffled base per warp.
        rng = np.random.default_rng(17)
        tiles, R = 3, 6
        addr = np.empty((R, tiles, u), dtype=np.int64)
        for r in range(R):
            for t in range(tiles):
                for s in range(u // w):
                    addr[r, t, s * w : (s + 1) * w] = rng.permutation(w) + rng.integers(0, 50)
        act = rng.random((R, tiles, u)) < 0.6
        many, single = self._pair(tiles, u, w)
        many.round_many(addr, act, assume_distinct=True)
        for r in range(R):
            single.round(addr[r], act[r])
        for got, want in zip(many.to_counters(), single.to_counters()):
            assert got.as_dict() == want.as_dict()

    def test_assume_distinct_wide_warp_keyed_branch(self):
        # w > 127 skips the run-length fast path and keys on bank ids.
        rng = np.random.default_rng(23)
        tiles, u, w, R = 1, 256, 128, 3
        addr = np.stack([
            np.stack([rng.permutation(u) for _ in range(tiles)])
            for _ in range(R)
        ])
        act = rng.random((R, tiles, u)) < 0.5
        many, single = self._pair(tiles, u, w)
        many.round_many(addr, act, assume_distinct=True)
        for r in range(R):
            single.round(addr[r], act[r])
        for got, want in zip(many.to_counters(), single.to_counters()):
            assert got.as_dict() == want.as_dict()

    def test_partial_warp_falls_back_to_sequential(self):
        rng = np.random.default_rng(13)
        tiles, u, w, R = 2, 20, 8, 5  # u % w != 0
        addr = rng.integers(0, 64, (R, tiles, u))
        act = rng.random((R, tiles, u)) < 0.7
        many, single = self._pair(tiles, u, w)
        many.round_many(addr, act)
        for r in range(R):
            single.round(addr[r], act[r])
        for got, want in zip(many.to_counters(), single.to_counters()):
            assert got.as_dict() == want.as_dict()

    def test_zero_rounds_and_all_inactive_are_noops(self):
        tiles, u, w = 2, 16, 8
        bc = BatchCounters(tiles, u, w)
        bc.round_many(np.zeros((0, tiles, u), dtype=np.int64), None)
        bc.round_many(
            np.zeros((3, tiles, u), dtype=np.int64),
            np.zeros((3, tiles, u), dtype=bool),
        )
        assert all(c.as_dict() == Counters().as_dict() for c in bc.to_counters())

    def test_rejects_non_3d_addresses(self):
        bc = BatchCounters(2, 16, 8)
        with pytest.raises(ParameterError):
            bc.round_many(np.zeros((2, 16), dtype=np.int64), None)


class TestLaneFusionArenaStats:
    def test_blocksort_pass_reports_fusion_and_arena_deltas(self):
        rng = np.random.default_rng(3)
        E, u, w = 5, 32, 8
        tiles = [rng.integers(0, 1 << 20, u * E) for _ in range(4)]
        stats = EngineStats()
        profile_blocksorts(tiles, E, w, "thrust", stats=stats)
        assert stats.items == 4 and stats.passes == 1
        assert stats.rounds_folded > 0, "fused pass folded no rounds"
        assert stats.arena_checkouts > 0, "fused pass leased no scratch"
        assert stats.arena_peak_bytes > 0
        d = stats.as_dict()
        assert d["rounds_folded"] == stats.rounds_folded
        assert set(d) == {
            "items", "passes", "fused_stage_passes", "rounds_folded",
            "arena_checkouts", "arena_reuse_hits", "arena_peak_bytes",
        }

    def test_stage_passes_counted_for_cf_variant(self):
        rng = np.random.default_rng(4)
        E, u, w = 5, 32, 8  # coprime: cf blocksort uses analytic staging
        tiles = [rng.integers(0, 1 << 20, u * E) for _ in range(2)]
        stats = EngineStats()
        profile_blocksorts(tiles, E, w, "cf", stats=stats)
        assert stats.fused_stage_passes > 0
