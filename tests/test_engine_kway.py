"""Tests for the k-way engine surface: plans, addresses, batched identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.batch import (
    BatchCounters,
    batched_kway_merge_profile,
    batched_kway_search_profile,
    kway_gather_addresses,
    kway_thread_cuts,
)
from repro.engine.lane import EngineStats, profile_kway_merges
from repro.engine.plans import PlanCache, get_plan
from repro.errors import ParameterError
from repro.mergesort.kway import kway_merge_block
from repro.numtheory import gcd
from repro.sim.counters import Counters

#: Counter fields the batched profile must reproduce bit-for-bit.
IDENTITY_FIELDS = (
    "shared_read_rounds",
    "shared_write_rounds",
    "shared_cycles",
    "shared_replays",
    "shared_excess",
    "broadcast_reads",
    "shared_requests",
    "compute_ops",
    "sync_barriers",
)


def _interleaved(k, total, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.integers(0, 1 << 20, total))
    return [vals[r::k] for r in range(k)]


class TestKwayPlans:
    def test_kway_rounds_shape(self):
        plan = get_plan("kway_rounds", 4 * 5, 5, 8, k=4)
        run = np.asarray(plan["run"])
        resid = np.asarray(plan["resid"])
        assert len(run) == len(resid) == 20
        # Run-major slot order: each run's E residues are consecutive.
        assert np.array_equal(run, np.repeat(np.arange(4), 5))
        assert np.array_equal(resid, np.tile(np.arange(5), 4))

    def test_sample_splitters_ranks(self):
        plan = get_plan("sample_splitters", 6 * 4, 4, 8, k=6)
        assert np.array_equal(np.asarray(plan["idx"]), [4, 8, 12, 16, 20])

    def test_sample_splitters_validates_geometry(self):
        with pytest.raises(ParameterError):
            get_plan("sample_splitters", 25, 4, 8, k=6)  # n != k*E

    def test_k_distinguishes_cache_keys(self):
        cache = PlanCache(capacity=16)
        a = cache.get("kway_rounds", 20, 5, 8, k=2)
        b = cache.get("kway_rounds", 20, 5, 8, k=4)
        assert a.key != b.key
        assert len(np.asarray(a["run"])) != len(np.asarray(b["run"]))


class TestKwayThreadCuts:
    def test_cuts_reconstruct_the_stable_merge(self):
        rng = np.random.default_rng(0)
        runs = _interleaved(3, 60, seed=1)
        cuts, bases, merged = kway_thread_cuts(runs, 5)
        assert np.array_equal(merged, np.sort(np.concatenate(runs)))
        assert cuts.shape == (13, 3)
        # Each thread's row of the merge is the stable merge of its cuts.
        for i in range(12):
            frag = np.concatenate(
                [runs[r][cuts[i, r]:cuts[i + 1, r]] for r in range(3)]
            )
            assert np.array_equal(np.sort(frag), merged[i * 5:(i + 1) * 5])

    def test_validation(self):
        with pytest.raises(ParameterError):
            kway_thread_cuts([], 5)
        with pytest.raises(ParameterError):
            kway_thread_cuts([np.arange(7)], 5)  # total % E != 0


class TestKwayGatherAddresses:
    def test_staged_slots_are_stride_E_progressions(self):
        runs = _interleaved(3, 24 * 5, seed=2)
        cuts, bases, _ = kway_thread_cuts(runs, 5)
        lens = np.array([len(r) for r in runs])
        rho = np.asarray(get_plan("rho", 24 * 5, 5, 8)["fwd"])
        addr, active = kway_gather_addresses(cuts, bases, lens, 5, 8, rho)
        assert addr.shape == active.shape == (24, 15)
        # Undo rho: each slot's active pre-rho positions share one residue.
        inv = np.empty_like(rho)
        inv[rho] = np.arange(len(rho))
        for s in range(15):
            pos = inv[addr[active[:, s], s]]
            assert len(np.unique(pos % 5)) <= 1

    def test_every_element_gathered_exactly_once(self):
        runs = _interleaved(4, 16 * 5, seed=3)
        cuts, bases, _ = kway_thread_cuts(runs, 5)
        lens = np.array([len(r) for r in runs])
        rho = np.asarray(get_plan("rho", 16 * 5, 5, 8)["fwd"])
        for schedule in ("staged", "fused"):
            addr, active = kway_gather_addresses(
                cuts, bases, lens, 5, 8, rho, schedule
            )
            gathered = addr[active]
            assert len(gathered) == 16 * 5
            assert len(np.unique(gathered)) == 16 * 5


class TestBatchedKwayIdentity:
    @pytest.mark.parametrize(
        "k,E,w,u", [(3, 5, 8, 32), (4, 7, 8, 16), (2, 6, 8, 32), (4, 6, 4, 24)]
    )
    def test_batched_matches_lockstep_merge_counters(self, k, E, w, u):
        groups = [_interleaved(k, u * E, seed=7 * i + k) for i in range(3)]
        lockstep = []
        for g in groups:
            _, stats = kway_merge_block(g, E, w, variant="cf", simulate_search=False)
            lockstep.append(stats.merge)
        batched = batched_kway_merge_profile(groups, E, w)
        for lc, bc in zip(lockstep, batched):
            for f in IDENTITY_FIELDS:
                assert getattr(lc, f) == getattr(bc, f), f

    @pytest.mark.parametrize("E,w,u", [(6, 4, 8), (6, 8, 32), (5, 8, 16)])
    def test_empty_and_low_last_runs(self, E, w, u):
        # A last run that is empty, or whose words all sort below another
        # run's, ends its bisections at the very end of the staged block.
        total = u * E
        groups = [
            [np.arange(10, 10 + total), np.zeros(0, dtype=np.int64)],
            [np.arange(10, 7 + total), np.arange(3)],
        ]
        merge = batched_kway_merge_profile(groups, E, w)
        search = batched_kway_search_profile(groups, E, w)
        for g, m, s in zip(groups, merge, search):
            _, stats = kway_merge_block(g, E, w, variant="cf")
            assert m.as_dict() == stats.merge.as_dict()
            assert s.as_dict() == stats.search.as_dict()

    def test_lane_groups_by_shape_and_restores_order(self):
        groups = [
            _interleaved(2, 80, seed=1),
            _interleaved(4, 160, seed=2),
            _interleaved(2, 80, seed=3),
        ]
        st = EngineStats()
        out = profile_kway_merges(groups, 5, 8, stats=st)
        assert st.items == 3
        assert st.passes == 2  # (k=2, 80) x2 collapse; (k=4, 160) alone
        singles = [
            batched_kway_merge_profile([g], 5, 8)[0] for g in groups
        ]
        for got, want in zip(out, singles):
            assert got.as_dict() == want.as_dict()

    def test_mixed_totals_rejected_within_one_batch(self):
        with pytest.raises(ParameterError):
            batched_kway_merge_profile(
                [_interleaved(2, 80), _interleaved(2, 160)], 5, 8
            )


class TestScatterClosedForm:
    @pytest.mark.parametrize("w", [4, 6, 8, 16, 32])
    def test_the_scatter_plan_is_conflict_free_at_every_gcd(self, w):
        # The k-way level charges the scatter as E write rounds per warp,
        # one cycle each; the plan's own rounds must agree wherever the
        # rho layout is defined.
        for E in range(1, 33):
            for u in (w, 2 * w):
                if u * E % (w * E // gcd(w, E)):
                    continue
                acc = BatchCounters(1, u, w)
                addr = np.asarray(get_plan("scatter", u * E, E, w)["addr"])
                acc.round_many(addr[:, None, :], None, "write")
                rounds = E * (u // w)
                assert acc.total() == Counters(
                    shared_write_rounds=rounds, shared_cycles=rounds, shared_requests=E * u
                ), (w, E, u)


class TestKwaySearchProfile:
    @pytest.mark.parametrize(
        "k,E,w,u",
        [(2, 5, 8, 32), (4, 5, 8, 16), (3, 7, 4, 8), (2, 6, 4, 8), (3, 6, 8, 32)],
    )
    def test_matches_the_lockstep_search(self, k, E, w, u):
        rng = np.random.default_rng(k * E + u)
        groups = []
        for high in (3, 50, 1 << 20):
            values = rng.integers(0, high, u * E)
            cuts = np.sort(rng.integers(0, u * E + 1, k - 1))
            groups.append([np.sort(part) for part in np.split(values, cuts)])
        got = batched_kway_search_profile(groups, E, w)
        for runs, counters in zip(groups, got):
            _, stats = kway_merge_block(runs, E, w, variant="cf")
            assert counters.as_dict() == stats.search.as_dict()

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ParameterError, match="same k"):
            batched_kway_search_profile(
                [[np.arange(80)[::2], np.arange(80)[1::2]], [np.arange(80)]], 5, 8
            )
        with pytest.raises(ParameterError, match="total length"):
            batched_kway_search_profile(
                [[np.arange(40), np.arange(40)], [np.arange(80), np.arange(80)]], 5, 8
            )
