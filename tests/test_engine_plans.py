"""The plan cache contract: correctness, LRU behavior, immutability.

Plans are the precomputed index arrays every engine call site reuses;
these tests pin their content against the scalar layout functions
(:mod:`repro.core.layout`), the LRU/eviction/stats bookkeeping, and the
write-protection invariant that keeps cached arrays immutable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layout import partition_size, rho, rho_inverse
from repro.engine.plans import (
    PLAN_CACHE,
    PLAN_KINDS,
    Plan,
    PlanCache,
    PlanKey,
    get_plan,
    plan_cache_stats,
)
from repro.errors import ParameterError
from repro.mergesort.register_merge import odd_even_network
from repro.numtheory import gcd


class TestPlanContent:
    @pytest.mark.parametrize("w,E", [(8, 5), (32, 15), (32, 16), (12, 9)])
    def test_rho_plan_matches_scalar_layout(self, w, E):
        n = 2 * partition_size(w, E)
        plan = get_plan("rho", n, E, w)
        fwd = np.asarray(plan["fwd"])
        inv = np.asarray(plan["inv"])
        for p in range(n):
            assert fwd[p] == rho(p, w, E, total=n)
            assert rho_inverse(int(fwd[p]), w, E, total=n) == p
        assert np.array_equal(inv[fwd], np.arange(n))

    def test_rho_identity_when_coprime(self):
        plan = get_plan("rho", 32 * 15, 15, 32)  # d = gcd(32, 15) = 1
        assert np.array_equal(np.asarray(plan["fwd"]), np.arange(32 * 15))

    def test_rho_rejects_partial_partition(self):
        size = partition_size(32, 16)
        with pytest.raises(ParameterError):
            get_plan("rho", size + 1, 16, 32)

    def test_scatter_plan_matches_rho_rounds(self):
        E, u, w = 5, 16, 8
        n = u * E
        plan = get_plan("scatter", n, E, w)
        addr = np.asarray(plan["addr"])
        assert addr.shape == (E, u)
        for j in range(E):
            for i in range(u):
                assert addr[j, i] == rho(i * E + j, w, E, total=n)

    def test_oddeven_plan_matches_network(self):
        n = 7
        plan = get_plan("oddeven", n, 0, 1)
        pairs = list(zip(plan["lo"].tolist(), plan["hi"].tolist()))
        assert pairs == odd_even_network(n)
        ptr = np.asarray(plan["phase_ptr"])
        assert len(ptr) == n + 1
        # Within each phase the compare-exchange pairs are disjoint.
        for k in range(n):
            touched = plan["lo"][ptr[k] : ptr[k + 1]].tolist()
            touched += plan["hi"][ptr[k] : ptr[k + 1]].tolist()
            assert len(touched) == len(set(touched))

    def test_stage_plan_bases(self):
        plan = get_plan("stage", 16, 5, 8)
        assert np.array_equal(np.asarray(plan["base"]), np.arange(16) * 5)
        assert np.asarray(plan["ones"]).all()

    def test_unknown_kind_and_missing_array(self):
        with pytest.raises(ParameterError):
            get_plan("nonesuch", 8, 5, 8)
        plan = get_plan("tids", 8, 0, 1)
        with pytest.raises(ParameterError):
            plan["fwd"]


class TestPlanCacheBehavior:
    def test_hit_miss_and_stats(self):
        cache = PlanCache(capacity=4)
        cache.get("tids", 8, 0, 1)
        cache.get("tids", 8, 0, 1)
        cache.get("tids", 16, 0, 1)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["size"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)

    def test_same_key_returns_the_same_object(self):
        cache = PlanCache()
        assert cache.get("rho", 160, 5, 8) is cache.get("rho", 160, 5, 8)
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 1)

    def test_unknown_kind_counts_no_miss(self):
        cache = PlanCache()
        with pytest.raises(ParameterError):
            cache.get("nonesuch", 8, 5, 8)
        assert cache.stats()["misses"] == 0
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        a = cache.get("tids", 1, 0, 1)
        cache.get("tids", 2, 0, 1)
        cache.get("tids", 1, 0, 1)  # refresh a: 2 becomes the LRU entry
        cache.get("tids", 3, 0, 1)  # evicts 2
        assert cache.stats()["evictions"] == 1
        assert cache.get("tids", 1, 0, 1) is a  # still cached
        assert cache.stats()["hits"] == 2
        cache.get("tids", 2, 0, 1)  # rebuilt: a fresh miss (and eviction)
        stats = cache.stats()
        assert stats["misses"] == 4
        assert stats["evictions"] == 2

    def test_clear_resets_everything(self):
        cache = PlanCache()
        cache.get("tids", 8, 0, 1)
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0

    def test_capacity_validation(self):
        with pytest.raises(ParameterError):
            PlanCache(capacity=0)

    def test_key_derives_d(self):
        cache = PlanCache()
        plan = cache.get("rho", 2 * partition_size(32, 16), 16, 32)
        assert plan.key == PlanKey(
            n=2 * partition_size(32, 16), E=16, w=32, d=gcd(32, 16), kind="rho"
        )
        hit = cache.get("rho", 2 * partition_size(32, 16), 16, 32)
        assert hit.key.d == gcd(32, 16)

    def test_global_cache_stats_shape(self):
        get_plan("tids", 4, 0, 1)
        stats = plan_cache_stats()
        assert set(stats) == {
            "hits", "misses", "evictions", "size", "capacity", "bytes", "hit_rate"
        }
        assert all(isinstance(v, float) for v in stats.values())
        assert PLAN_CACHE.capacity == stats["capacity"]

    def test_hit_rate_zero_lookup_guard(self):
        assert PlanCache().stats()["hit_rate"] == 0.0

    def test_byte_ledger_tracks_insert_evict_clear(self):
        cache = PlanCache(capacity=2)
        a = cache.get("tids", 8, 0, 1)
        b = cache.get("tids", 16, 0, 1)
        assert cache.stats()["bytes"] == float(a.nbytes + b.nbytes)
        c = cache.get("tids", 32, 0, 1)  # evicts a
        assert cache.stats()["bytes"] == float(b.nbytes + c.nbytes)
        cache.clear()
        assert cache.stats()["bytes"] == 0.0

    def test_plan_kinds_enumeration(self):
        assert set(PLAN_KINDS) == {
            "tids", "stage", "rho", "scatter", "oddeven",
            "kway_rounds", "sample_splitters",
            "key_pack", "payload_gather",
            "fused_take", "fused_stage", "fused_level", "fused_levels", "bisect",
        }


class TestFusedPlans:
    @pytest.mark.parametrize("w,E,n_a", [(8, 5, 17), (32, 16, 100), (8, 5, 0)])
    def test_fused_take_composes_pi_rho(self, w, E, n_a):
        n = 2 * w * E
        plan = get_plan("fused_take", n, E, w, k=n_a)
        take = np.asarray(plan["take"])
        put = np.asarray(plan["put"])
        # take/put are mutually inverse permutations of [0, n).
        assert np.array_equal(np.sort(take), np.arange(n))
        assert np.array_equal(take[put], np.arange(n))
        # put composes pi (B reversal) with rho position-by-position.
        for i in range(n):
            pos = i if i < n_a else n - 1 - (i - n_a)
            assert put[i] == rho(pos, w, E, total=n)

    def test_fused_take_validates_split(self):
        with pytest.raises(ParameterError):
            get_plan("fused_take", 40, 5, 8, k=41)

    def test_fused_stage_closed_form(self):
        u, E, w = 16, 6, 8  # d = 2: two banks collide per warp
        plan = get_plan("fused_stage", u, E, w)
        counts = np.bincount((np.arange(w) * E) % w, minlength=w)
        assert plan["n_warps"][0] == u // w
        assert plan["cycles"][0] == (u // w) * counts.max()
        assert plan["excess"][0] == (u // w) * np.maximum(counts - 1, 0).sum()

    def test_fused_stage_requires_full_warps(self):
        with pytest.raises(ParameterError):
            get_plan("fused_stage", 20, 5, 8)

    def test_fused_level_geometry(self):
        u, E, w, level = 16, 5, 8, 1
        g = 1 << level
        region, half = 2 * g * E, g * E
        plan = get_plan("fused_level", u, E, w, level=level)
        tids = np.arange(u)
        pbase = (tids * E) // region * region
        tau = tids - pbase // E
        assert np.array_equal(np.asarray(plan["pbase"]), pbase)
        assert np.array_equal(np.asarray(plan["tau"]), tau)
        assert np.array_equal(np.asarray(plan["diag"]), tau * E)
        assert np.array_equal(
            np.asarray(plan["lo"]), np.maximum(0, tau * E - half)
        )
        assert np.array_equal(np.asarray(plan["hi"]), np.minimum(tau * E, half))
        assert np.array_equal(
            np.asarray(plan["pair_last"]), tau == region // E - 1
        )
        tag = np.asarray(plan["tag"])
        assert tag.shape == (u * E,)
        assert np.array_equal(tag, (np.arange(u * E) % region) // half)

    def test_fused_level_keys_do_not_collide(self):
        a = get_plan("fused_level", 16, 5, 8, level=0)
        b = get_plan("fused_level", 16, 5, 8, level=1)
        assert a is not b
        assert a.key.level == 0 and b.key.level == 1

    def test_fused_level_validates_tiling(self):
        with pytest.raises(ParameterError):
            get_plan("fused_level", 16, 5, 8, level=4)  # g = 16 == u

    def test_fused_levels_stack_every_level(self):
        u, E, w = 16, 5, 8
        plan = get_plan("fused_levels", u, E, w)
        assert plan["tag"].shape == (4, u * E)
        assert plan["table"].shape == (5, 3, 1, u)
        assert plan["table"].dtype == np.int32
        for level in range(4):
            one = get_plan("fused_level", u, E, w, level=level)
            for row, key in enumerate(("pbase", "diag", "pair_last")):
                assert np.array_equal(plan["table"][level, row, 0], one[key]), key
            assert np.array_equal(plan["tag"][level], np.asarray(one["tag"]) == 1)
        # The last row is a merge block: one pair, thread i at diagonal i*E.
        tid = np.arange(u)
        block = np.stack([0 * tid, tid * E, tid == u - 1])
        assert np.array_equal(plan["table"][4, :, 0], block)

    def test_fused_levels_validates_thread_count(self):
        with pytest.raises(ParameterError):
            get_plan("fused_levels", 24, 5, 8)


class TestBisectPlan:
    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_every_entry_is_the_literal_bisection(self, n):
        plan = get_plan("bisect", n, 0, 1)
        steps = (n - 1).bit_length()
        assert plan["probe"].shape == (steps, n * n)
        for span in range(n):
            for cut in range(n):
                entry = span * n + cut
                probes = plan["probe"][:, entry].tolist()
                if cut > span:  # no lane has this entry
                    assert probes == [0] * steps and plan["live"][entry] == 0
                    continue
                lo, hi, want = 0, span, []
                while lo < hi:
                    mid = (lo + hi) // 2
                    want.append(mid)
                    lo, hi = (mid + 1, hi) if cut > mid else (lo, mid)
                assert lo == cut
                assert plan["live"][entry] == len(want)
                # A converged lane keeps probing its cut.
                assert probes == want + [cut] * (steps - len(want)), (span, cut)

    def test_bounds_key_distinct_tables(self):
        small, large = get_plan("bisect", 16, 0, 1), get_plan("bisect", 128, 0, 1)
        assert small is not large
        assert (small.key.n, large.key.n) == (16, 128)
        # Offsets below 128 fit a byte: the service table takes 128 KiB.
        assert large.nbytes == 7 * 128 * 128 + 128 * 128

    @pytest.mark.parametrize("n", [0, 1, 24])
    def test_validates_the_bound(self, n):
        with pytest.raises(ParameterError):
            get_plan("bisect", n, 0, 1)


class TestImmutability:
    @pytest.mark.parametrize("kind,n,E,w", [
        ("tids", 8, 0, 1),
        ("stage", 8, 5, 8),
        ("rho", 160, 16, 8),
        ("scatter", 80, 5, 8),
        ("oddeven", 6, 0, 1),
        ("fused_take", 160, 16, 8),
        ("fused_stage", 8, 5, 8),
        ("fused_level", 8, 5, 8),
        ("fused_levels", 8, 5, 8),
        ("bisect", 8, 0, 1),
    ])
    def test_every_plan_array_is_write_protected(self, kind, n, E, w):
        plan = get_plan(kind, n, E, w)
        for name, arr in plan.arrays.items():
            assert not arr.flags.writeable, f"{kind}[{name}] is writable"
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_nbytes_reports_plan_footprint(self):
        plan = get_plan("tids", 8, 0, 1)
        assert plan.nbytes == sum(a.nbytes for a in plan.arrays.values())
        assert isinstance(plan, Plan)
