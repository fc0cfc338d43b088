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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.batch as batch
from repro.engine.batch import (
    STACK_LANES,
    BatchCounters,
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
from repro.mergesort.pipeline import _batched_blocksort
from repro.sim import BankModel
from repro.sim.counters import Counters
from repro.workloads.generators import WORKLOADS, adversarial

GEOMETRIES = [(5, 32, 8), (15, 64, 32), (16, 64, 32), (6, 16, 8)]  # last two non-coprime

SHARED_FIELDS = [f for f in Counters().as_dict() if f.startswith(("shared_", "broadcast"))]


def _shared(c: Counters) -> dict[str, int]:
    """The shared-memory fields, the ones the lane models."""
    return {f: getattr(c, f) for f in SHARED_FIELDS}


def _bank_model_round(addr, act, w, counters: Counters, sums=None) -> None:
    """Charge one tile's read round warp by warp through ``BankModel``.

    ``sums``, if given, gets the round's five statistics added, in the
    order ``round_many`` returns them: warps issued, requests, distinct
    addresses, occupied banks, cycles.
    """
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
            if sums is not None:
                distinct = cost.requests - cost.broadcasts
                sums += [1, cost.requests, distinct, distinct - cost.excess, cost.cycles]


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

    @pytest.mark.parametrize(
        "n_tiles",
        # E=3, u=16: four levels.  Under a budget of 64 rows of 16 lanes
        # one pass holds them all; one tile more splits them; past 64
        # tiles every level runs alone.
        [64 // 4, 64 // 4 + 1, 64 + 1],
        ids=["one-pass", "split-levels", "level-per-pass"],
    )
    @pytest.mark.parametrize(
        "variant,read_policy",
        [("thrust", "bounded"), ("thrust", "always"), ("cf", "bounded")],
    )
    def test_every_tile_matches_the_simulator_across_the_stack_budget(
        self, n_tiles, variant, read_policy, monkeypatch
    ):
        E, u, w = 3, 16, 4
        # The real budget splits at 512 tiles: too many to simulate.
        monkeypatch.setattr(batch, "STACK_LANES", 64 * u)
        rng = np.random.default_rng(n_tiles)
        rows = rng.integers(0, 60, (n_tiles, u * E))
        batched = batched_blocksort_profile(
            rows, E, w, variant, read_policy=read_policy
        )
        for k, row in enumerate(rows):
            _, sim = blocksort_tile(row.copy(), E, w, variant, read_policy=read_policy)
            assert _shared(batched[k]) == _shared(sim.total), f"tile {k}"

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


#: One search round_many per pass; the CF merge is analytic, the pointer
#: merge folds into one more.
PER_PASS = [("cf", "bounded", 1), ("thrust", "bounded", 2), ("thrust", "always", 2)]


def _whole_levels(levels: int, per_pass: int) -> list[int]:
    """Whole levels per pass when each pass holds at most ``per_pass``."""
    return [per_pass] * (levels // per_pass) + [levels % per_pass] * (levels % per_pass > 0)


class TestStackedPasses:
    """A blocksort is a stack of ``log2(u)`` levels of ``tiles x u`` lanes;
    each pass holds whole levels up to ``STACK_LANES`` lanes."""

    @pytest.mark.parametrize(
        "n_tiles,passes",
        # E=5, u=32: five levels; under a budget of 64 rows of 32 lanes a
        # pass holds 64 // n_tiles of them.
        [(1, 1), (64 // 5, 1), (64 // 5 + 1, 2), (64 + 1, 5)],
    )
    @pytest.mark.parametrize("variant,read_policy,per_pass", PER_PASS)
    def test_each_pass_folds_into_one_round_many_per_phase(
        self, n_tiles, passes, variant, read_policy, per_pass, monkeypatch, stack_passes
    ):
        monkeypatch.setattr(batch, "STACK_LANES", 64 * 32)
        rows = np.random.default_rng(n_tiles).integers(0, 1 << 20, (n_tiles, 160))
        before = fusion_stats()
        batched_blocksort_profile(rows, 5, 8, variant, read_policy=read_policy)
        after = fusion_stats()
        delta = {k: after[k] - before[k] for k in after}
        assert stack_passes == _whole_levels(5, max(1, 64 // n_tiles))
        assert len(stack_passes) == passes
        assert delta["round_many_calls"] == passes * per_pass
        assert delta["round_calls"] == 0
        assert delta["fused_blocksorts"] == 1

    @pytest.mark.parametrize(
        "E,u,w,n_tiles,passes",
        [
            # u=32 (five levels): 1,024 rows per pass, so up to 204 tiles
            # fold every level into one pass.
            (5, 32, 8, STACK_LANES // (5 * 32), 1),
            (5, 32, 8, STACK_LANES // (5 * 32) + 1, 2),
            # The paper's u=512 (nine levels) keeps 64 rows per pass.
            (3, 512, 32, 32, 5),
            (3, 512, 32, 33, 9),
        ],
    )
    @pytest.mark.parametrize("variant,read_policy,per_pass", PER_PASS)
    def test_the_budget_counts_lanes(
        self, E, u, w, n_tiles, passes, variant, read_policy, per_pass, stack_passes
    ):
        assert STACK_LANES == 64 * 512
        rows = np.random.default_rng(n_tiles).integers(0, 1 << 20, (n_tiles, u * E))
        before = fusion_stats()["round_many_calls"]
        batched_blocksort_profile(rows, E, w, variant, read_policy=read_policy)
        assert fusion_stats()["round_many_calls"] - before == passes * per_pass
        n_levels = u.bit_length() - 1
        assert stack_passes == _whole_levels(n_levels, max(1, STACK_LANES // (n_tiles * u)))

    @pytest.mark.parametrize("variant", ["thrust", "cf"])
    def test_stacking_folds_the_rounds_of_one_pass_per_level(self, variant, monkeypatch):
        # Levels converge after different bisection depths; their dead
        # slabs are dropped, so the ledger's rounds_folded (and every
        # counter) is the same whether the levels share a pass or not.
        rng = np.random.default_rng(5)
        rows = np.vstack([adversarial(2, 5, 32, 8).reshape(2, 160),
                          rng.integers(0, 1 << 20, (2, 160))])
        runs = []
        # Every level in one pass of the stack, then one level per pass.
        for budget in (batch.STACK_LANES, 32):
            monkeypatch.setattr(batch, "STACK_LANES", budget)
            before = fusion_stats()
            counters = batched_blocksort_profile(rows, 5, 8, variant)
            after = fusion_stats()
            runs.append((
                [c.as_dict() for c in counters],
                after["rounds_folded"] - before["rounds_folded"],
                after["round_many_calls"] - before["round_many_calls"],
            ))
        (stacked, stacked_folded, stacked_calls), (alone, alone_folded, alone_calls) = runs
        assert stacked == alone
        assert stacked_folded == alone_folded
        assert stacked_calls < alone_calls

    def test_row_range_totals_sum_the_rows(self):
        bc = BatchCounters(3, 8, 4)
        bc.round(np.arange(24).reshape(3, 8) % 5, np.ones((3, 8), dtype=bool))
        per_row = bc.to_counters()
        assert bc.total(slice(1, 3)).as_dict() == (per_row[1] + per_row[2]).as_dict()
        assert bc.total().as_dict() == sum(per_row, Counters()).as_dict()


class TestBlocksortPhases:
    """The lane blocksort's per-phase sums, read from its level stack."""

    @pytest.mark.parametrize("E,u,w,variant", [
        (5, 32, 8, "thrust"), (5, 32, 8, "cf"), (6, 16, 8, "thrust"),  # last non-coprime
    ])
    def test_each_phase_sums_the_simulator_phase(self, E, u, w, variant):
        rng = np.random.default_rng(E * u)
        rows = np.stack([rng.integers(0, 40, u * E) for _ in range(3)])
        runs, stats = _batched_blocksort(rows, E, w, variant)
        assert np.array_equal(runs, np.sort(rows, axis=1))
        want = [Counters(), Counters(), Counters()]
        for row in rows:
            _, sim = blocksort_tile(row.copy(), E, w, variant)
            for acc, part in zip(want, (sim.stage, sim.search, sim.merge)):
                acc.merge(part)
        phases = (stats.stage, stats.search, stats.merge)
        for name, got, expect in zip(("stage", "search", "merge"), phases, want):
            assert _shared(got) == _shared(expect), name

    def test_phases_add_up_to_the_profile(self):
        # Per-level sums and per-tile sums of one stack are two folds of the
        # same rounds.
        rows = adversarial(2, 5, 32, 8).reshape(2, 160)
        for variant in ("thrust", "cf"):
            _, stats = _batched_blocksort(rows, 5, 8, variant)
            total = sum(batched_blocksort_profile(rows, 5, 8, variant), Counters())
            assert _shared(stats.stage + stats.search + stats.merge) == _shared(total)


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


    @pytest.mark.parametrize("E,u,w", [(5, 32, 8), (15, 64, 32)])
    def test_full_int64_pairs_match_simulator(self, E, u, w):
        # Values past the 2v + tag packing range are ranked first, which
        # keeps every comparison; each profile counts one fallback pass.
        info = np.iinfo(np.int64)
        rng = np.random.default_rng(E * u)
        wide = rng.integers(info.min, info.max, u * E, dtype=np.int64)
        wide[:4] = [info.min, info.max - 1, info.min, 7]  # below the sentinel, ties
        wide = np.sort(wide)
        mask = rng.random(u * E) < 0.5
        a, b = wide[mask], wide[~mask]
        before = fusion_stats()
        (merge,) = batched_serial_merge_profile([(a, b)], E, w)
        (search,) = batched_search_profile([(a, b)], E, w)
        (mapped,) = batched_search_profile([(a, b)], E, w, mapped=True)
        after = fusion_stats()
        assert after["fallback_merges"] == before["fallback_merges"] + 1
        assert after["fallback_searches"] == before["fallback_searches"] + 2
        _, serial = serial_merge_block(a, b, E, w)
        _, cf = cf_merge_block(a, b, E, w)
        assert _shared(merge) == _shared(serial.merge)
        assert _shared(search) == _shared(serial.search)
        assert _shared(mapped) == _shared(cf.search)

    def test_searches_past_the_int16_span_match_the_simulator(self):
        # A pair of 33,280 words: probe addresses and lo + hi pass int16,
        # so the replay must run in int32.
        rng = np.random.default_rng(5)
        vals = np.sort(rng.integers(0, 1 << 30, 5 * 6656))
        mask = rng.random(len(vals)) < 0.5
        a, b = vals[mask], vals[~mask]
        (got,) = batched_search_profile([(a, b)], 5, 8)
        _, sim = serial_merge_block(a, b, 5, 8)
        assert _shared(got) == _shared(sim.search)

    def test_unsorted_halves_raise(self):
        a, b = np.arange(80, dtype=np.int64), np.arange(80, dtype=np.int64)
        b[[3, 4]] = b[[4, 3]]
        for profile in (batched_serial_merge_profile, batched_search_profile):
            with pytest.raises(ParameterError, match="sorted"):
                profile([(a, b)], 5, 8)


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
    """round_many must be bit-identical to per-round round() accounting.

    Both run the same lane-major body, so these pin the stacking (rounds
    fold by an integer sum); TestRoundManyAgainstBankModel is the
    independent oracle.
    """

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
        # w = 128: the widest warp whose bank ids and inactive marks
        # (below 2w) still fit the byte-wide lane-major copy.
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
        tiles, u, w, R = 2, 20, 8, 5  # u % w != 0: inactive padding lanes
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


def _warp_distinct_addresses(rng, R, T, u, w, wide):
    """Addresses whose lanes are pairwise distinct within every warp."""
    addr = np.empty((R, T, u), dtype=np.int64)
    for r in range(R):
        for t in range(T):
            for s in range(0, u, w):
                n = min(w, u - s)
                stride = int(rng.integers(1, 4))
                base = int(rng.integers(-(1 << 50), 1 << 50)) if wide else 0
                addr[r, t, s : s + n] = base + stride * rng.permutation(2 * w)[:n]
    return addr


class TestRoundManyAgainstBankModel:
    """round_many against per-warp BankModel.round_cost, warp by warp.

    The oracle shares nothing with the lane: it slices each tile's round
    into w-wide warps and prices each through the simulator's bank model.
    Both the per-tile counters and the per-round sums (all a pipeline
    sort reads) are checked.  The widths draw every group of warp rows
    the accounting sorts as one row (32 // w rounded down to a power of
    two: 32 at w = 1, then 16 down to 1), and rounds * tiles * slots
    rows mostly leave the last group part empty.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.sampled_from([1, 2, 3, 4, 8, 12, 16, 32, 128]),
        slots=st.integers(1, 3),
        pad=st.integers(0, 127),
        tiles=st.integers(1, 3),
        rounds=st.integers(1, 4),
        spread=st.sampled_from(["duplicates", "narrow", "wide", "negative"]),
        mask=st.sampled_from(["none", "random", "some rounds idle", "all idle"]),
        distinct=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def test_matches_bank_model(
        self, w, slots, pad, tiles, rounds, spread, mask, distinct, seed
    ):
        rng = np.random.default_rng(seed)
        u = max(1, slots * w - pad % w)  # u % w != 0 whenever pad % w != 0
        shape = (rounds, tiles, u)
        if distinct:
            addr = _warp_distinct_addresses(rng, *shape, w, spread == "wide")
        elif spread == "duplicates":
            addr = rng.integers(0, 3, shape) * rng.integers(1, 2 * w + 1)
        elif spread == "narrow":
            addr = rng.integers(0, 4 * w, shape)
        else:
            # Spans past 2^31 force int64 keys; keep w << span < 2^63.
            bits = int(rng.integers(31, 62 - w.bit_length()))
            low = -(1 << 61) if spread == "negative" else 0
            addr = rng.integers(low, low + (1 << bits), shape)
        if mask == "none":
            active = None
        elif mask == "all idle":
            active = np.zeros(shape, dtype=bool)
        else:
            active = rng.random(shape) < rng.random()
            if mask == "some rounds idle":
                active[rng.random(rounds) < 0.5] = False
        got = BatchCounters(tiles, u, w)
        per_round = got.round_many(addr, active, assume_distinct=distinct)
        act = np.ones(shape, dtype=bool) if active is None else active
        want = [Counters() for _ in range(tiles)]
        want_sums = np.zeros((rounds, 5), dtype=np.int64)
        for r in range(rounds):
            for t in range(tiles):
                _bank_model_round(addr[r, t], act[r, t], w, want[t], want_sums[r])
        for t, (g, expect) in enumerate(zip(got.to_counters(), want)):
            assert g.as_dict() == expect.as_dict(), f"tile {t}"
        assert per_round.dtype == np.int64
        for r in range(rounds):
            assert per_round[:, r].tolist() == want_sums[r].tolist(), f"round {r}"


class TestReplaySearches:
    """_replay_searches against a literal per-level, per-step bisection."""

    def test_matches_literal_bisection(self):
        self._check(np.int16, lo_base=0, offset=1000)

    def test_wide_spans_replay_in_int32(self):
        # Intervals and probe addresses past int16 replay in int32.
        self._check(np.int32, lo_base=20_000, offset=1 << 20)

    def _check(self, dtype, lo_base, offset):
        rng = np.random.default_rng(11)
        G, T, u, w = 4, 3, 16, 8
        # Levels with different interval widths converge at different
        # steps; the last level is converged from the start.
        widths = np.array([3, 40, 9, 0])[:, None, None]
        lo = lo_base + rng.integers(0, 50, (G, T, u))
        hi = lo + rng.integers(0, widths + 1, (G, T, u))
        hi[0, 0, :5] = lo[0, 0, :5]  # lanes that never search
        cuts = lo + (rng.random((G, T, u)) * (hi - lo + 1)).astype(np.int64)
        cuts = np.minimum(cuts, hi)
        offset_a = rng.integers(0, offset, (G, T, u))
        offset_b = rng.integers(0, offset, (G, T, u))

        def probe(out, level):
            # ``out[0]`` holds the kept (step, level) slabs' mids; ``level``
            # their levels.
            mid = out[0].copy()
            out[0] = mid + offset_a[level]
            out[1] = 3 * mid + offset_b[level]

        got = BatchCounters(T, u, w)
        before = fusion_stats()
        per_level = batch._replay_searches(
            got, lo.astype(dtype), hi.astype(dtype), cuts.astype(dtype), probe
        )
        folded = fusion_stats()["rounds_folded"] - before["rounds_folded"]

        want = [Counters() for _ in range(T)]
        want_levels = [Counters() for _ in range(G)]
        want_folded = 0
        for g in range(G):
            low, high, cut = lo[g].copy(), hi[g].copy(), cuts[g]
            while (low < high).any():
                live = low < high
                mid = (low + high) // 2
                for addr in (mid + offset_a[g], 3 * mid + offset_b[g]):
                    for t in range(T):
                        one = Counters()
                        _bank_model_round(addr[t], live[t], w, one)
                        want[t].merge(one)
                        want_levels[g].merge(one)
                want_folded += 2
                right = cut > mid
                low = np.where(live & right, mid + 1, low)
                high = np.where(live & ~right, mid, high)
            assert np.array_equal(low, cut), f"level {g} bisection missed its cut"
        assert folded == want_folded
        for t, (g, expect) in enumerate(zip(got.to_counters(), want)):
            assert g.as_dict() == expect.as_dict(), f"tile {t}"
        # The same rounds, folded per level.
        rows = np.zeros((len(batch._SHARED_FIELDS), G), dtype=np.int64)
        batch._charge(rows, per_level, "read")
        for g, expect in enumerate(want_levels):
            assert dict(zip(batch._SHARED_FIELDS, rows[:, g].tolist())) == _shared(expect)


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
