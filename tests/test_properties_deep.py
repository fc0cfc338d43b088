"""Deep property-based tests: algebraic and metamorphic invariants.

Beyond the per-module unit tests, these pin cross-cutting laws the system
must satisfy: translation invariance of the gather, additivity of
counters, composition identities of the permutations, and the invariance
of CF-Merge's profile under arbitrary input changes.
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    WarpSplit,
    gather_reference,
    rho,
    rho_inverse,
    warp_gather_schedule,
)
from repro.engine.lane import profile_serial_merges
from repro.mergesort import gpu_mergesort, serial_merge_block
from repro.mergesort.merge_path import merge_path_search
from repro.sim import BankModel, Counters


def wE_split(draw_w=st.integers(2, 16), draw_E=st.integers(1, 10)):
    return st.tuples(draw_w, draw_E, st.integers(0, 2**32)).map(
        lambda t: (
            t[0],
            t[1],
            WarpSplit(
                E=t[1],
                a_sizes=tuple(
                    random.Random(t[2]).randint(0, t[1]) for _ in range(t[0])
                ),
            ),
        )
    )


class TestGatherAlgebra:
    @settings(max_examples=30)
    @given(wE_split(), st.integers(-(10**6), 10**6))
    def test_translation_invariance(self, args, offset):
        # gather(A + c, B + c) == gather(A, B) + c, elementwise: the
        # schedule is value-independent.
        w, E, split = args
        a = np.arange(split.n_a, dtype=np.int64)
        b = np.arange(1000, 1000 + split.n_b, dtype=np.int64)
        base = gather_reference(a, b, split)
        shifted = gather_reference(a + offset, b + offset, split)
        for r0, r1 in zip(base, shifted):
            assert np.array_equal(r1, r0 + offset)

    @settings(max_examples=30)
    @given(wE_split())
    def test_gather_is_a_bijection_on_elements(self, args):
        # Every input element lands in exactly one register of one thread.
        w, E, split = args
        a = np.arange(split.n_a, dtype=np.int64)
        b = np.arange(10**6, 10**6 + split.n_b, dtype=np.int64)
        items = gather_reference(a, b, split)
        seen = sorted(v for regs in items for v in regs.tolist())
        assert seen == sorted(np.concatenate([a, b]).tolist())

    @settings(max_examples=20, deadline=None)
    @given(wE_split())
    def test_schedule_addresses_partition_the_tile(self, args):
        w, E, split = args
        sched = warp_gather_schedule(split)
        addresses = sorted(acc.address for rnd in sched for acc in rnd)
        assert addresses == list(range(w * E))


class TestPermutationAlgebra:
    @settings(max_examples=50)
    @given(st.integers(2, 32), st.integers(1, 32))
    def test_rho_inverse_composition(self, w, E):
        total = w * E
        for p in range(0, total, max(1, total // 37)):
            assert rho_inverse(rho(p, w, E), w, E) == p
            assert rho(rho_inverse(p, w, E), w, E) == p

    @settings(max_examples=50)
    @given(st.integers(2, 32), st.integers(1, 32))
    def test_rho_order_divides_d(self, w, E):
        # Applying rho d times returns to the identity on every partition
        # (each application adds ell to the offset; d applications add
        # d*ell = 0 mod the partition size times... concretely: iterating
        # rho w*E/gcd-many times cycles; we check a cheap consequence —
        # rho^k(p) stays in p's partition for all k).
        d = math.gcd(w, E)
        size = w * E // d
        p = (w * E) // 2
        q = p
        for _ in range(d):
            q = rho(q, w, E)
        assert q // size == p // size

    @settings(max_examples=40)
    @given(st.integers(2, 24), st.integers(1, 24), st.integers(0, 10**6))
    def test_bank_cost_shift_invariance(self, w, E, base):
        # Shifting every address of a round by a constant multiple of 1
        # permutes banks; shifting by w leaves banks identical.  Costs are
        # invariant in both cases.
        bm = BankModel(w)
        rng = np.random.default_rng(base)
        addrs = rng.integers(0, w * E, w).tolist()
        c0 = bm.round_cost(addrs)
        c_w = bm.round_cost([a + w for a in addrs])
        c_1 = bm.round_cost([a + 1 for a in addrs])
        assert (c0.cycles, c0.excess) == (c_w.cycles, c_w.excess)
        assert (c0.cycles, c0.excess) == (c_1.cycles, c_1.excess)


class TestCountersAlgebra:
    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 1000), min_size=14, max_size=14),
        st.lists(st.integers(0, 1000), min_size=14, max_size=14),
    )
    def test_addition_is_fieldwise(self, xs, ys):
        from dataclasses import fields

        names = [f.name for f in fields(Counters)]
        a = Counters(**dict(zip(names, xs)))
        b = Counters(**dict(zip(names, ys)))
        c = a + b
        for name, x, y in zip(names, xs, ys):
            assert getattr(c, name) == x + y
        # and the originals are untouched
        assert a.as_dict() == dict(zip(names, xs))

    def test_merge_is_associative_like_addition(self):
        a = Counters(shared_cycles=1)
        b = Counters(shared_cycles=2)
        c = Counters(shared_cycles=4)
        assert ((a + b) + c).shared_cycles == (a + (b + c)).shared_cycles == 7


class TestMergePathAlgebra:
    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 100), max_size=40),
        st.lists(st.integers(0, 100), max_size=40),
    )
    def test_symmetry_under_strictness_swap(self, a, b):
        # Searching (a, b) at diagonal k and (b, a) at the same diagonal
        # partition the same totals: ai + bi == k in both orientations.
        a, b = sorted(a), sorted(b)
        for k in range(0, len(a) + len(b) + 1, max(1, (len(a) + len(b)) // 7)):
            ai, bi = merge_path_search(a, b, k)
            bj, aj = merge_path_search(b, a, k)
            assert ai + bi == k == aj + bj

    @settings(max_examples=40)
    @given(st.integers(1, 50), st.integers(0, 100))
    def test_equal_key_merge_drains_A_first(self, n, value):
        # With ties preferring A and ALL keys equal, the first n outputs
        # drain A entirely (the strongest form of the stability rule).
        a = [value] * n
        ai, bi = merge_path_search(a, a, n)
        assert (ai, bi) == (n, 0)


class TestCFInvariance:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def test_cf_merge_profile_identical_across_inputs(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 10**9, 320)
        res = gpu_mergesort(data, E=5, u=16, w=8, variant="cf")
        m = res.merge_stats.merge
        # Geometry-only profile: 4 tiles -> 2 levels of 4 blocks each,
        # 2 warps per block, E rounds each way.
        assert res.merge_level_count == 2
        assert m.shared_read_rounds == 8 * 2 * 5
        assert m.shared_write_rounds == 8 * 2 * 5
        assert m.shared_replays == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def test_thrust_profile_varies_but_bounded(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 10**9, 320)
        res = gpu_mergesort(data, E=5, u=16, w=8, variant="thrust")
        m = res.merge_stats.merge
        # Replays are data dependent but can never exceed (w-1) per round.
        assert 0 <= m.shared_replays <= m.shared_rounds * 7


class TestFastEngineProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32))
    def test_profile_invariant_under_value_scaling(self, seed):
        # The serial merge's access pattern depends on the *order* of
        # values, not their magnitudes: scaling all values by a positive
        # constant leaves the profile untouched.
        rng = np.random.default_rng(seed)
        total = 24 * 5
        vals = np.sort(rng.choice(10**6, size=total, replace=False))
        mask = rng.random(total) < 0.5
        a, b = vals[mask], vals[~mask]
        p1, p2 = profile_serial_merges([(a, b), (a * 3, b * 3)], 5, 12)
        assert p1.as_dict() == p2.as_dict()
        _, sim = serial_merge_block(a, b, 5, 12, simulate_search=False)
        assert p1.shared_excess == sim.merge.shared_excess
        assert p1.shared_cycles == sim.merge.shared_cycles
