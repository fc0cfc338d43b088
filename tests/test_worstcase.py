"""Tests for the Section 4 worst-case construction and Theorem 8.

Validation strategy: the lemmas are executed directly; the tuple sequence's
structural invariants (length ``w/d``, sums ``E``) are checked for a grid
of ``(w, E)``; and the realized inputs are fed to the *measured* serial
merge, asserting (a) the measured excess conflicts meet or exceed the
Theorem 8 count (the theorem aligns at least that many conflicting
accesses; the construction also produces incidental ones), and (b) the
worst case is far above random inputs while CF-Merge stays at zero.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import WorstCaseConstructionError
from repro.engine.lane import profile_serial_merges
from repro.mergesort import cf_merge_block, gpu_mergesort, serial_merge_block
from repro.mergesort.merge_path import (
    block_split_from_merge_path,
    merge_path_search,
)
from repro.worstcase import (
    S_sequence,
    s_values,
    subproblem_tuples,
    theorem8_combined,
    theorem8_subproblem,
    warp_tuples,
    worstcase_full_input,
    worstcase_merge_inputs,
    x_values,
    y_values,
)
from repro.worstcase.generator import tag_pattern
from repro.worstcase.tuples import block_tuples

GRID = [
    (12, 5), (12, 9), (12, 4), (9, 6), (16, 9), (24, 18),
    (32, 15), (32, 17), (32, 12), (32, 24), (32, 8), (32, 32), (7, 3),
]


class TestSequenceLemmas:
    @pytest.mark.parametrize("w,E", [(w, E) for w, E in GRID if w % E])
    def test_lemma5_s_values_distinct(self, w, E):
        s = s_values(w, E)
        assert len(set(s)) == len(s)

    @pytest.mark.parametrize("w,E", [(w, E) for w, E in GRID if w % E])
    def test_lemma6_symmetry(self, w, E):
        d = math.gcd(w, E)
        Ed = E // d
        s = s_values(w, E)
        for i in range(1, Ed):
            assert (Ed - s[i - 1]) % Ed == s[Ed - i - 1] if Ed - i >= 1 else True

    @pytest.mark.parametrize("w,E", [(w, E) for w, E in GRID if w % E])
    def test_lemma7_gaps(self, w, E):
        d = math.gcd(w, E)
        _, r = divmod(w, E)[0], w % E
        r = w % E
        xs, ys = x_values(w, E), y_values(w, E)
        for i in range(1, E // d - 1):
            gap = xs[i - 1] + ys[i]
            assert gap in (r, E + r)

    def test_worked_example_w12_E5(self):
        # Hand-checked: s_i = 2i mod 5 -> 2,4,1,3.
        assert s_values(12, 5) == [2, 4, 1, 3]
        assert x_values(12, 5) == [3, 1, 4, 2]
        assert y_values(12, 5) == [2, 4, 1, 3]
        assert S_sequence(12, 5) == [(2, 3), (1, 4), (1, 4), (2, 3)]

    def test_tuples_sum_to_E(self):
        for w, E in GRID:
            for a, b in S_sequence(w, E):
                assert a + b == E

    def test_parameter_domain(self):
        with pytest.raises(WorstCaseConstructionError):
            s_values(12, 1)  # E must be > 1
        with pytest.raises(WorstCaseConstructionError):
            s_values(12, 13)  # E must be <= w


class TestTupleSequence:
    @pytest.mark.parametrize("w,E", GRID)
    def test_length_is_w_over_d(self, w, E):
        d = math.gcd(w, E)
        assert len(subproblem_tuples(w, E)) == w // d
        assert len(warp_tuples(w, E)) == w

    @pytest.mark.parametrize("w,E", GRID)
    def test_all_tuples_sum_to_E(self, w, E):
        assert all(a + b == E for a, b in warp_tuples(w, E))

    def test_worked_example_T(self):
        assert warp_tuples(12, 5) == [
            (2, 3), (5, 0), (5, 0), (1, 4), (0, 5), (1, 4),
            (5, 0), (5, 0), (2, 3), (0, 5), (5, 0), (5, 0),
        ]

    @pytest.mark.parametrize("w,E", GRID)
    def test_orientation_flip(self, w, E):
        a_side = subproblem_tuples(w, E, "A")
        b_side = subproblem_tuples(w, E, "B")
        assert b_side == [(b, a) for a, b in a_side]

    def test_full_scan_threads_exist(self):
        # The whole point: a constant fraction of threads scan a full E run.
        for w, E in GRID:
            tuples = warp_tuples(w, E)
            scans = sum(1 for a, b in tuples if a == E or b == E)
            assert scans >= 1

    def test_scan_starts_aligned(self):
        # The (E,0) threads' A segments start in at most ceil(E/ gap kinds)
        # distinct banks — the alignment the construction engineers.
        w, E = 12, 5
        tuples = warp_tuples(w, E)
        starts = []
        acc = 0
        for a, b in tuples:
            if a == E:
                starts.append(acc % w)
            acc += a
        assert len(set(starts)) <= 2

    def test_block_tuples_alternate(self):
        bt = block_tuples(8, 5, 16)
        assert len(bt) == 16
        assert bt[:8] == warp_tuples(8, 5, "A")
        assert bt[8:] == warp_tuples(8, 5, "B")

    def test_block_tuples_validation(self):
        with pytest.raises(WorstCaseConstructionError):
            block_tuples(8, 5, 12)


class TestTheorem8:
    def test_case_boundaries(self):
        # E <= w/2 -> E^2.
        assert theorem8_combined(12, 5) == 25
        assert theorem8_combined(32, 15) == 225
        assert theorem8_combined(32, 8) == 64
        # E > w/2 -> the quadratic form.
        assert theorem8_combined(32, 17) == 288
        assert theorem8_combined(12, 9) == 72

    def test_r_zero_cases(self):
        # E | w: r = 0; case E = w gives (E^2 + E*d)/2 with d = E.
        assert theorem8_combined(32, 32) == 32 * 32
        assert theorem8_combined(32, 16) == 16 * 16

    @pytest.mark.parametrize("w,E", GRID)
    def test_combined_is_d_times_subproblem(self, w, E):
        d = math.gcd(w, E)
        assert theorem8_combined(w, E) == d * theorem8_subproblem(w, E)

    @pytest.mark.parametrize("w,E", [(w, E) for w, E in GRID if E > 1])
    def test_measured_excess_meets_theorem8(self, w, E):
        # The construction aligns *at least* the Theorem 8 count of
        # conflicting accesses (plus incidental ones elsewhere).  Theorem 8
        # counts every access of an aligned scan; the `excess` metric
        # discounts the first access per bank per round, and the bounded
        # read policy skips each thread's final (exhausted) read — hence
        # the `- 2w` slack (binding only in the degenerate E == w case).
        a, b = worstcase_merge_inputs(w, E)
        (profile,) = profile_serial_merges([(a, b)], E, w, read_policy="bounded")
        assert profile.shared_excess >= theorem8_combined(w, E) - 2 * w
        # The lane's count is the lockstep simulator's, exactly.
        _, sim = serial_merge_block(a, b, E, w, simulate_search=False)
        assert profile.shared_excess == sim.merge.shared_excess
        assert profile.shared_replays == sim.merge.shared_replays

    @pytest.mark.parametrize("w,E", [(32, 15), (32, 17), (12, 5), (12, 9)])
    def test_worstcase_far_exceeds_random(self, w, E):
        a, b = worstcase_merge_inputs(w, E)
        (worst,) = profile_serial_merges([(a, b)], E, w)
        rng = np.random.default_rng(42)
        total = w * E
        rand_excess = []
        for _ in range(5):
            idx = rng.permutation(total)
            ra = np.sort(np.arange(total)[idx[: len(a)]])
            rb = np.sort(np.arange(total)[idx[len(a) :]])
            rand_excess.append(profile_serial_merges([(ra, rb)], E, w)[0].shared_excess)
        assert worst.shared_excess > 1.5 * np.mean(rand_excess)

    @pytest.mark.parametrize("w,E", [(32, 15), (32, 17)])
    def test_replays_per_step_near_linear_in_E(self, w, E):
        # Berney & Sitchinava: worst-case inputs cause n/t - o(n/t) bank
        # conflicts per step; our measured replays per merge round must be
        # a large fraction of E (random inputs sit at 2-3).
        a, b = worstcase_merge_inputs(w, E)
        (profile,) = profile_serial_merges([(a, b)], E, w)
        per_round = profile.shared_replays / profile.shared_read_rounds
        assert per_round > E / 2


class TestMergeInputRealization:
    @pytest.mark.parametrize("w,E", GRID)
    def test_inputs_are_sorted_and_partition_ranks(self, w, E):
        a, b = worstcase_merge_inputs(w, E)
        assert np.all(np.diff(a) > 0) and np.all(np.diff(b) > 0)
        assert sorted(np.concatenate([a, b])) == list(range(w * E))

    @pytest.mark.parametrize("w,E", [(12, 5), (32, 15), (32, 17)])
    def test_merge_path_reproduces_tuples(self, w, E):
        # The realized values must force the merge path into exactly the
        # constructed per-thread split.
        from repro.mergesort.merge_path import warp_split_from_merge_path

        a, b = worstcase_merge_inputs(w, E)
        split = warp_split_from_merge_path(a, b, E)
        assert list(split.a_sizes) == [x for x, _ in warp_tuples(w, E)]

    def test_block_scale_inputs(self):
        a, b = worstcase_merge_inputs(8, 5, u=16)
        assert len(a) + len(b) == 80
        split = block_split_from_merge_path(a, b, 5, 8)
        assert list(split.a_sizes) == [x for x, _ in block_tuples(8, 5, 16)]

    def test_cf_merge_immune(self):
        # CF-Merge on the adversarial input: zero merge-phase replays.
        a, b = worstcase_merge_inputs(32, 15)
        merged, stats = cf_merge_block(a, b, 15, 32)
        assert np.array_equal(merged, np.arange(32 * 15))
        assert stats.merge.shared_replays == 0

    def test_base_offset(self):
        a, b = worstcase_merge_inputs(12, 5, base=100)
        assert min(a.min(), b.min()) == 100


class TestFullInputGenerator:
    def test_sorts_correctly_both_variants(self):
        data = worstcase_full_input(4, 5, 16, 8)
        for variant in ("thrust", "cf"):
            res = gpu_mergesort(data, 5, 16, 8, variant)
            assert np.array_equal(res.data, np.arange(len(data)))

    def test_adversarial_at_every_level(self):
        w, E, u = 8, 5, 16
        tile = u * E
        data = worstcase_full_input(4, E, u, w)
        tiles = [np.sort(data[t * tile : (t + 1) * tile]) for t in range(4)]
        expected = [x for x, _ in block_tuples(w, E, u)]
        # level 1: (t0, t1) and (t2, t3); level 2: the final merge.
        pairs = [
            (tiles[0], tiles[1]),
            (tiles[2], tiles[3]),
            (
                np.sort(np.concatenate(tiles[:2])),
                np.sort(np.concatenate(tiles[2:])),
            ),
        ]
        for a_run, b_run in pairs:
            n_blocks = (len(a_run) + len(b_run)) // tile
            for k in range(n_blocks):
                lo = merge_path_search(a_run, b_run, k * tile)
                hi = merge_path_search(a_run, b_run, (k + 1) * tile)
                split = block_split_from_merge_path(
                    a_run[lo[0] : hi[0]], b_run[lo[1] : hi[1]], E, w
                )
                assert list(split.a_sizes) == expected

    def test_worstcase_slower_than_random_for_thrust_only(self):
        w, E, u = 8, 5, 16
        data = worstcase_full_input(4, E, u, w)
        rng = np.random.default_rng(0)
        rand = rng.permutation(len(data))
        worst_t = gpu_mergesort(data, E, u, w, "thrust")
        rand_t = gpu_mergesort(rand, E, u, w, "thrust")
        worst_c = gpu_mergesort(data, E, u, w, "cf")
        assert (
            worst_t.merge_stats.merge.shared_cycles
            > 1.3 * rand_t.merge_stats.merge.shared_cycles
        )
        assert worst_c.merge_replays == 0

    def test_validation(self):
        with pytest.raises(WorstCaseConstructionError):
            worstcase_full_input(3, 5, 16, 8)  # not a power of two
        with pytest.raises(WorstCaseConstructionError):
            worstcase_full_input(4, 5, 8, 8)  # u/w odd
        with pytest.raises(WorstCaseConstructionError):
            worstcase_full_input(4, 5, 16, 8, tile_order="random")

    def test_tag_pattern_balanced_for_even_warp_count(self):
        mask = tag_pattern(8, 5, u=16)
        assert int(mask.sum()) * 2 == len(mask)

    def test_input_is_a_permutation(self):
        data = worstcase_full_input(2, 5, 16, 8)
        assert sorted(data) == list(range(len(data)))
