"""Cross-validation of the vectorized counting lane against the simulator.

The throughput experiments (Figures 5-6), the Theorem 8 table, the fuzz
oracles and the adversarial search all count conflicts through the
batched engine lane (:mod:`repro.engine.lane`), usually one tile per
call.  These tests guarantee that a one-tile call reports *identical*
shared-memory statistics to the lockstep simulation on the same inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.batch import BatchCounters
from repro.engine.lane import (
    profile_blocksorts,
    profile_cf_merges,
    profile_searches,
    profile_serial_merges,
)
from repro.errors import ParameterError
from repro.mergesort import blocksort_tile, cf_merge_block, serial_merge_block
from repro.sim import BankModel, Counters


def split_inputs(rng, total, n_a):
    src = np.sort(rng.integers(0, 5 * total, total))
    idx = rng.permutation(total)
    return np.sort(src[idx[:n_a]]), np.sort(src[idx[n_a:]])


SHARED_FIELDS = [
    "shared_read_rounds",
    "shared_write_rounds",
    "shared_cycles",
    "shared_replays",
    "shared_excess",
    "shared_requests",
    "broadcast_reads",
]


def assert_shared_equal(sim: Counters, lane: Counters):
    for f in SHARED_FIELDS:
        assert getattr(sim, f) == getattr(lane, f), f


def one_round(addresses, active, w, kind="read") -> Counters:
    """Account one round of ``len(addresses)`` threads as a one-tile batch."""
    acc = BatchCounters(1, len(addresses), w)
    acc.round(np.asarray(addresses)[None, :], np.asarray(active)[None, :], kind=kind)
    return acc.to_counters()[0]


class TestCountRound:
    def test_matches_bank_model(self):
        rng = np.random.default_rng(0)
        bm = BankModel(8)
        for i in range(50):
            addrs = rng.integers(0, 64, 16)
            active = np.ones(16, dtype=bool) if i % 2 else rng.random(16) < 0.6
            c = one_round(addrs, active, 8)
            # Two warps of 8; compare with per-warp BankModel costs over
            # the active lanes only (an idle warp issues no round).
            warps = [bm.round_cost(addrs[s:s + 8][active[s:s + 8]]) for s in (0, 8)]
            assert c.shared_cycles == sum(r.cycles for r in warps)
            assert c.shared_replays == sum(r.replays for r in warps)
            assert c.shared_excess == sum(r.excess for r in warps)
            assert c.broadcast_reads == sum(r.broadcasts for r in warps)
            assert c.shared_requests == sum(r.requests for r in warps)
            assert c.shared_read_rounds == sum(r.requests > 0 for r in warps)

    def test_inactive_threads_skip(self):
        c = one_round(np.array([0, 8, 16]), np.array([True, False, False]), 8)
        assert c.shared_cycles == 1
        assert c.shared_requests == 1

    def test_all_inactive_is_free(self):
        c = one_round(np.array([0]), np.array([False]), 8)
        assert c.shared_rounds == 0

    def test_write_kind(self):
        c = one_round(np.array([0, 1]), np.ones(2, dtype=bool), 8, kind="write")
        assert c.shared_write_rounds == 1
        assert c.shared_read_rounds == 0


class TestSerialMergeProfile:
    @pytest.mark.parametrize("policy", ["bounded", "always"])
    @pytest.mark.parametrize("w,E,u", [(12, 5, 24), (32, 15, 64), (9, 6, 18), (8, 8, 16)])
    def test_matches_simulator(self, policy, w, E, u):
        rng = np.random.default_rng(w * E + (policy == "always"))
        for n_a in [0, u * E // 3, u * E]:
            a, b = split_inputs(rng, u * E, n_a)
            _, sim = serial_merge_block(a, b, E, w, read_policy=policy)
            (lane,) = profile_serial_merges([(a, b)], E, w, read_policy=policy)
            assert_shared_equal(sim.merge, lane)

    def test_bad_policy(self):
        with pytest.raises(ParameterError):
            profile_serial_merges([([1], [2])], 1, 2, read_policy="x")


class TestSearchProfile:
    @pytest.mark.parametrize("w,E,u", [(12, 5, 24), (32, 15, 64), (9, 6, 18)])
    def test_matches_simulator_plain(self, w, E, u):
        rng = np.random.default_rng(17)
        a, b = split_inputs(rng, u * E, u * E // 2)
        _, sim = serial_merge_block(a, b, E, w)
        (lane,) = profile_searches([(a, b)], E, w)
        assert_shared_equal(sim.search, lane)

    @pytest.mark.parametrize("w,E,u", [(12, 5, 24), (9, 6, 18)])
    def test_matches_simulator_mapped(self, w, E, u):
        rng = np.random.default_rng(18)
        a, b = split_inputs(rng, u * E, u * E // 3)
        _, sim = cf_merge_block(a, b, E, w)
        (lane,) = profile_searches([(a, b)], E, w, mapped=True)
        assert_shared_equal(sim.search, lane)


class TestCFProfile:
    @pytest.mark.parametrize("w,E,u", [(12, 5, 24), (32, 15, 64), (32, 17, 32)])
    def test_matches_simulator(self, w, E, u):
        rng = np.random.default_rng(19)
        a, b = split_inputs(rng, u * E, u * E // 2)
        _, sim = cf_merge_block(a, b, E, w, simulate_search=False)
        (lane,) = profile_cf_merges([(a, b)], E, w)
        assert_shared_equal(sim.merge, lane)
        assert lane.shared_replays == 0

    def test_input_independence(self):
        # The entire point: the CF profile depends only on the geometry.
        rng = np.random.default_rng(20)
        a1, b1 = split_inputs(rng, 480, 100)
        a2, b2 = split_inputs(rng, 480, 400)
        (p1,) = profile_cf_merges([(a1, b1)], 15, 32)
        (p2,) = profile_cf_merges([(a2, b2)], 15, 32)
        assert p1.as_dict() == p2.as_dict()

    def test_validation(self):
        with pytest.raises(ParameterError):
            profile_cf_merges([(np.arange(3), np.arange(4))], 5, 2)


class TestBlocksortProfile:
    @pytest.mark.parametrize("variant", ["thrust", "cf"])
    @pytest.mark.parametrize("w,E,u", [(8, 5, 16), (32, 15, 64), (16, 7, 32)])
    def test_matches_simulator(self, variant, w, E, u):
        rng = np.random.default_rng(w + E + u)
        tile = rng.integers(0, 10**6, u * E)
        (lane,) = profile_blocksorts([tile], E, w, variant)
        _, sim = blocksort_tile(tile, E, w, variant)
        assert_shared_equal(sim.total, lane)

    def test_noncoprime_cf_rejected(self):
        with pytest.raises(ParameterError):
            profile_blocksorts([np.arange(16 * 8)], 8, 8, "cf")

    def test_geometry_validation(self):
        with pytest.raises(ParameterError):
            profile_blocksorts([np.arange(41)], 5, 8)  # not a multiple of E
        with pytest.raises(ParameterError):
            profile_blocksorts([np.arange(24 * 5)], 5, 8)  # u=24 not power of 2
        with pytest.raises(ParameterError):
            profile_blocksorts([np.arange(16 * 5)], 5, 8, "merge-insertion")
