"""``batched_mergesort`` against the lockstep oracle ``gpu_mergesort``.

The batched pipeline must return the same :class:`MergesortResult` as
the oracle at its defaults on every field: the sorted data, each
blocksort phase's counters, each merge level's search and merge
counters, the analytic global traffic, the level count and the merge
replays.  The serving backends built on it (``cf``,
``baseline``, ``cf-batched``, ``cf-cluster``) must in turn report exactly
what the lockstep composition reports; ``segmented_sort`` runs its long
segments and its packed batch of short segments on it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.batch as batch
import repro.mergesort.pipeline as pipeline
import repro.mergesort.segmented as segmented
from repro.cluster.pool import ClusterPool
from repro.cluster.service import cf_cluster_backend
from repro.config import SortParams
from repro.engine.backend import cf_batched_backend
from repro.engine.batch import fusion_stats
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.mergesort import batched_mergesort, blocksort_tile, gpu_mergesort
from repro.mergesort.blocksort import BlocksortStats
from repro.mergesort.kway import batched_kway_sort, kway_sort
from repro.mergesort.merge_path import merge_path_search
from repro.mergesort.pipeline import blocksort_segments
from repro.mergesort.samplesort import batched_sample_sort, sample_sort
from repro.mergesort.segmented import KEY_BITS, KEY_LIMIT
from repro.mergesort.serial_merge import SENTINEL
from repro.service.backends import get_backend
from repro.sim.counters import Counters
from repro.worstcase import worstcase_full_input

VARIANTS = ["thrust", "cf"]
COPRIME = [(5, 32, 8), (5, 16, 8), (15, 32, 32), (3, 8, 4), (1, 8, 8), (7, 32, 16)]
NON_COPRIME = [(8, 16, 8), (6, 16, 4)]


def _lengths(tile: int) -> list[int]:
    """0, 1, tile-1, tile, tile+1, then 3, 5 and 7 tiles (odd runs carry)."""
    return [0, 1, tile - 1, tile, tile + 1, 3 * tile, 5 * tile, 7 * tile]


class _MergeLevelsOnly(pipeline._Lane):
    """The lane's merge levels on a level stack of their own, whose packed
    keys are the tiles sorted by NumPy, so a test can count the passes
    the merge levels take, or merge its own runs of whole tiles."""

    def blocksort(self, tiles):
        self.stack = batch.LevelStack(
            len(tiles), self.u, self.E, self.w, self.variant, (len(tiles) - 1).bit_length()
        )
        self.stack.packed = np.sort(tiles, axis=1) << 1

    def finish(self):
        self.stack.flush()
        return self.stack.unpack(), BlocksortStats(), []


def assert_matches_the_simulator(data, E, u, w, variant):
    """``batched_mergesort`` equals ``gpu_mergesort`` on every field."""
    got = batched_mergesort(data, E, u, w, variant)
    want = gpu_mergesort(data, E, u, w, variant)
    assert got.as_dict() == want.as_dict()
    assert got.data.dtype == want.data.dtype
    return got


class TestGeometries:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("E,u,w", COPRIME)
    def test_every_length_matches_the_simulator(self, E, u, w, variant):
        rng = np.random.default_rng(E * 1000 + u + w)
        for n in _lengths(u * E):
            data = rng.integers(-(10**6), 10**6, n)
            assert_matches_the_simulator(data, E, u, w, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("E,u,w", NON_COPRIME)
    def test_non_coprime_geometries(self, E, u, w, variant):
        rng = np.random.default_rng(E + u + w)
        for n in (u * E - 1, u * E + 1, 3 * u * E, 5 * u * E):
            data = rng.integers(-100, 100, n)
            assert_matches_the_simulator(data, E, u, w, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_tiles", [33, 65])
    def test_both_sides_of_the_stack_budget(self, n_tiles, variant, monkeypatch, stack_passes):
        # E=3, u=8 under a budget of 66 rows of 8 lanes: every level of 33
        # tiles (blocksort and merge alike, 33 rows each) stacks two per
        # pass; at 65 tiles every level runs alone.  (The real budget
        # splits only past 4,096 rows: too many to simulate.)
        monkeypatch.setattr(batch, "STACK_LANES", 66 * 8)
        rng = np.random.default_rng(n_tiles)
        data = rng.integers(-1000, 1000, n_tiles * 24 - 1)
        got = assert_matches_the_simulator(data, 3, 8, 4, variant)
        levels = 3 + got.merge_level_count
        want = [2] * (levels // 2) + [1] * (levels % 2) if n_tiles == 33 else [1] * levels
        assert stack_passes == want

    def test_non_coprime_cf_delegates_to_the_simulator(self, monkeypatch):
        calls = []
        real = pipeline.gpu_mergesort

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "gpu_mergesort", spy)
        data = np.arange(300)[::-1].copy()
        batched_mergesort(data, 8, 16, 8, "cf")
        assert len(calls) == 1
        batched_mergesort(data, 8, 16, 8, "thrust")
        assert len(calls) == 1  # thrust runs the lane at any geometry

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_tiles,passes", [(2, 1), (16, 1), (17, 2)])
    def test_merge_levels_share_one_search_and_one_merge_pass(
        self, n_tiles, passes, variant, monkeypatch
    ):
        # The blocksort and merge levels are one stack: under a budget of
        # 4,608 lanes, 16 tiles' nine levels (five blocksort, four merge,
        # 16 rows of 32 lanes each) fill one pass exactly; 17 tiles' ten
        # levels need a second.  Each pass is one search round_many, plus
        # one pointer-merge round_many for thrust.
        monkeypatch.setattr(batch, "STACK_LANES", 9 * 16 * 32)
        data = np.random.default_rng(n_tiles).integers(0, 1000, n_tiles * 160)
        before = fusion_stats()
        result = batched_mergesort(data, 5, 32, 8, variant)
        after = fusion_stats()
        assert np.array_equal(result.data, np.sort(data))
        per_pass = 1 if variant == "cf" else 2
        assert after["round_many_calls"] - before["round_many_calls"] == passes * per_pass
        assert after["round_calls"] == before["round_calls"]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "u,n_tiles,passes",
        # The budget counts lanes, and a merge level is n_tiles rows however
        # many blocks it has.  u=32: eight levels of 128 rows fit a pass,
        # so 128 tiles' seven merge levels take one; 129 tiles fit seven,
        # so their eight take two.  The paper's u=512 fits two levels of
        # 32 rows: five merge levels take three.
        [(32, 128, 1), (32, 129, 2), (512, 32, 3)],
    )
    def test_the_merge_budget_counts_lanes(self, u, n_tiles, passes, variant, stack_passes):
        E, w = (5, 8) if u == 32 else (3, 32)
        data = np.random.default_rng(n_tiles).integers(0, 1 << 30, n_tiles * u * E)
        want = batched_mergesort(data, E, u, w, variant)
        # The same merge levels queued on a stack of their own.
        stack_passes.clear()
        lane = _MergeLevelsOnly(E, u, w, variant)
        got = pipeline._mergesort(data, 1 << 40, E, u, w, variant, lane)
        assert np.array_equal(got.data, want.data)
        per_pass = batch.STACK_LANES // (n_tiles * u)
        rest = got.merge_level_count - per_pass * (passes - 1)
        assert stack_passes == [per_pass] * (passes - 1) + [rest]
        for k, stats in enumerate(want.per_level):
            for phase, rows in (("search", lane.stack.search), ("merge", lane.stack.merge)):
                expect = getattr(stats, phase).as_dict()
                assert dict(zip(batch._SHARED_FIELDS, rows[:, k].tolist())) == {
                    name: expect[name] for name in batch._SHARED_FIELDS
                }, (k, phase)

    def test_lane_path_never_runs_the_simulator(self, monkeypatch):
        # Nor a scalar merge-path search: a level's cuts come from its one
        # stable merge.
        def forbidden(*args, **kwargs):
            raise AssertionError("lockstep kernel called")

        for name in (
            "blocksort_tile", "serial_merge_block", "cf_merge_block", "merge_path_search"
        ):
            monkeypatch.setattr(pipeline, name, forbidden)
        data = np.random.default_rng(0).integers(0, 1000, 5 * 160 + 3)
        for variant in ("thrust", "cf"):
            result = batched_mergesort(data, 5, 32, 8, variant)
            assert np.array_equal(result.data, np.sort(data))


#: Tile counts where a merge level has fewer blocks than tiles (an odd
#: run waits), so the level stack pads that level with dead rows.
PADDED_TILE_COUNTS = [3, 5, 6, 7, 11]


def _stack_input(kind: str, n_tiles: int, partial: bool, E: int, u: int, w: int):
    """``n_tiles`` tiles of one input kind, the last one partial if asked."""
    tile = u * E
    n = n_tiles * tile - (tile // 2 if partial else 0)
    rng = np.random.default_rng(n_tiles * 1000 + E * 10 + u + partial)
    # Section 4's construction needs u/w even: the two geometries
    # without it take random input in that slot.
    if kind == "section4" and (u // w) % 2 == 0:
        return worstcase_full_input(1 << (n_tiles - 1).bit_length(), E, u, w)[:n]
    if kind == "few_distinct":
        return rng.integers(0, 4, n)
    return rng.integers(-(10**6), 10**6, n)


class TestLevelStack:
    """``batched_mergesort`` as one stack of blocksort and merge levels."""

    @pytest.mark.parametrize("n_tiles", PADDED_TILE_COUNTS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("E,u,w", COPRIME)
    def test_padded_levels_match_the_simulator(self, E, u, w, variant, n_tiles):
        # Each tile count whole and with a partial last tile; the input
        # kinds rotate over the counts, so every geometry sees each kind.
        kinds = ("random", "few_distinct", "section4")
        for partial in (False, True):
            kind = kinds[(n_tiles + partial) % 3]
            data = _stack_input(kind, n_tiles, partial, E, u, w)
            assert_matches_the_simulator(data, E, u, w, variant)

    @pytest.mark.parametrize("variant,calls", [("cf", 1), ("thrust", 2)])
    def test_one_call_is_one_accounting_pass_under_the_budget(self, variant, calls):
        # 16 tiles at u=32: nine levels of 512 lanes, well under the
        # budget, so every level's searches are one round_many, and
        # thrust's pointer merges one more.
        data = worstcase_full_input(16, 5, 32, 8)
        before = fusion_stats()
        batched_mergesort(data, 5, 32, 8, variant)
        after = fusion_stats()
        delta = {key: after[key] - before[key] for key in after}
        assert delta["round_many_calls"] == calls
        assert delta["round_calls"] == 0
        assert delta["fused_blocksorts"] == 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_passes_split_at_whole_levels(self, variant, monkeypatch, stack_passes):
        # E=3, u=8, six tiles: three blocksort levels, then merge levels of
        # 6, 4 (two padding rows) and 6 blocks, each level 6 x 8 lanes.
        data = np.random.default_rng(6).integers(-50, 50, 6 * 24 - 7)
        folded = set()
        for budget, passes in ((4 * 48, [4, 2]), (48, [1] * 6), (47, [1] * 6), (6 * 48, [6])):
            # A four-level pass holds all three blocksort levels and the
            # first merge level.
            monkeypatch.setattr(batch, "STACK_LANES", budget)
            stack_passes.clear()
            before = fusion_stats()["rounds_folded"]
            assert_matches_the_simulator(data, 3, 8, 4, variant)
            assert stack_passes == passes, budget
            folded.add(fusion_stats()["rounds_folded"] - before)
        # Dead slabs are dropped however the levels are grouped.
        assert len(folded) == 1

    @pytest.mark.parametrize("E,u,w", COPRIME + [(15, 512, 32), (17, 256, 32)])
    def test_rho_is_the_identity_at_every_lane_geometry(self, E, u, w):
        # The lane runs CF only at coprime (w, E), where the rho layout maps
        # every position of a block to itself, so its merge-level CF
        # search probes read no plan.
        fwd = np.asarray(get_plan("rho", u * E, E, w)["fwd"])
        assert np.array_equal(fwd, np.arange(u * E))


class TestInputs:
    E, U, W = 5, 32, 8
    TILE = 160

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["duplicates", "reversed", "full_range"])
    def test_structured_inputs(self, kind, variant):
        rng = np.random.default_rng(11)
        n = 3 * self.TILE + 17
        if kind == "duplicates":
            data = rng.integers(0, 4, n)
        elif kind == "reversed":
            data = np.arange(n, dtype=np.int64)[::-1].copy()
        else:
            info = np.iinfo(np.int64)
            data = rng.integers(info.min, SENTINEL, n, dtype=np.int64)
            data[:3] = [info.min, SENTINEL - 1, 0]
        assert_matches_the_simulator(data, self.E, self.U, self.W, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_tiles", [2, 4, 8])
    def test_section4_adversary(self, n_tiles, variant):
        data = worstcase_full_input(n_tiles, self.E, self.U, self.W)
        got = assert_matches_the_simulator(data, self.E, self.U, self.W, variant)
        if variant == "cf":
            assert got.merge_replays == 0
        else:
            assert got.merge_replays > 0

    def test_sentinel_rejected(self):
        with pytest.raises(ParameterError, match="sentinel"):
            batched_mergesort(np.array([1, SENTINEL]), self.E, self.U, self.W)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ParameterError, match="one-dimensional"):
            batched_mergesort(np.zeros((2, 2), dtype=np.int64), self.E, self.U, self.W)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-(2**62), 2**62), min_size=0, max_size=200),
        st.sampled_from(VARIANTS),
    )
    def test_property_matches_the_simulator(self, values, variant):
        data = np.array(values, dtype=np.int64)
        assert_matches_the_simulator(data, 3, 8, 4, variant)


def _search_steps(n_a: int, n_b: int, diagonal: int) -> int:
    """The step count the per-block loop charged for one global search."""
    lo = max(0, diagonal - n_b)
    hi = min(diagonal, n_a)
    span = max(hi - lo, 1)
    return int(np.ceil(np.log2(span + 1)))


def _segments(lo: int, hi: int, seg: int = 32) -> int:
    """Coalesced segments touched by the word range ``[lo, hi)``."""
    return 0 if hi <= lo else (hi - 1) // seg - lo // seg + 1


def _per_block_traffic(pairs, tile: int) -> tuple[Counters, list[int]]:
    """One level's global traffic, charged block by block.

    The reference for the skeleton's closed form: every interior cut is
    a scalar merge-path search.  Returns the counters and each block's
    A-count, in order.
    """
    counters = Counters()
    a_counts = []
    for a_run, b_run in pairs:
        n_blocks = (len(a_run) + len(b_run)) // tile
        prev = (0, 0)
        for k in range(1, n_blocks + 1):
            diag = k * tile
            if k < n_blocks:
                cut = merge_path_search(a_run, b_run, diag)
                steps = _search_steps(len(a_run), len(b_run), diag)
                # Each global search step reads one word of A and one of B.
                counters.global_read_transactions += 2 * steps
                counters.global_read_requests += 2 * steps
            else:
                cut = (len(a_run), len(b_run))
            counters.global_read_transactions += _segments(prev[0], cut[0]) + _segments(
                prev[1], cut[1]
            )
            counters.global_write_transactions += tile // 32
            a_counts.append(cut[0] - prev[0])
            prev = cut
    return counters, a_counts


class TestLevelTraffic:
    @settings(max_examples=80, deadline=None)
    @given(
        geometry=st.sampled_from([(8, 1), (8, 3), (8, 5), (32, 3), (32, 5)]),
        log_run=st.integers(0, 3),
        n_runs=st.integers(2, 9),
        short=st.integers(1, 8),
        spread=st.integers(1, 4),
        shift=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_equals_the_per_block_loop(
        self, geometry, log_run, n_runs, short, spread, shift, seed
    ):
        # Random (|A|, |B|) cut patterns: ties, interleaved and disjoint
        # runs, a shorter last run that ends the last pair (even run
        # count) or waits for the next level (odd).
        u, E = geometry
        tile = u * E
        run = tile << log_run
        lengths = [run] * (n_runs - 1) + [tile * min(short, 1 << log_run)]
        rng = np.random.default_rng(seed)
        runs = [
            np.sort(rng.integers(0, spread * n, n)) + (k % 2) * shift * 8 * n
            for k, n in enumerate(lengths)
        ]
        pairs = list(zip(runs[0::2], runs[1::2]))
        paired = sum(len(a) + len(b) for a, b in pairs)
        want, a_counts = _per_block_traffic(pairs, tile)
        got = Counters()
        pipeline._charge_level(got, np.array(a_counts), run, paired, tile)
        assert got.as_dict() == want.as_dict()
        # The lane's one stable merge per level yields the same A-counts.
        # Each run is whole tiles, so its tiles come out of the NumPy
        # blocksort as they went in.
        lane = _MergeLevelsOnly(E, u, 8, "thrust")
        lane.blocksort(np.concatenate(runs)[:paired].reshape(-1, tile))
        lane_counts = lane.merge(run, paired)
        assert lane_counts.tolist() == a_counts
        merged = lane.finish()[0]
        assert np.array_equal(
            merged, np.concatenate([np.sort(np.concatenate(p), kind="stable") for p in pairs])
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_whole_sort_charges_what_the_per_block_loop_charged(self, variant):
        # Every level of 1-9 tiles (a partial last tile too): odd run
        # counts carry their last run, shorter last runs end a pair.
        E, u, w = 3, 8, 4
        tile = u * E
        rng = np.random.default_rng(4)
        for n in [1, tile, 2 * tile + 1, 3 * tile, 5 * tile - 7, 6 * tile, 9 * tile - 1]:
            data = rng.integers(0, 50, n)
            want = Counters()
            n_tiles = -(-n // tile)
            want.global_read_transactions = want.global_write_transactions = n_tiles * (
                tile // 32 + 1
            )
            padded = np.append(data, [SENTINEL] * (n_tiles * tile - n))
            runs = list(np.sort(padded.reshape(n_tiles, tile), axis=1))
            while len(runs) > 1:
                pairs = list(zip(runs[0::2], runs[1::2]))
                want.merge(_per_block_traffic(pairs, tile)[0])
                carried = runs[-1:] if len(runs) % 2 else []
                runs = [np.sort(np.concatenate(p)) for p in pairs] + carried
            got = batched_mergesort(data, E, u, w, variant)
            assert got.global_stats.as_dict() == want.as_dict(), n


class TestReadPolicyValidation:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_tiles", [1, 3])
    def test_unknown_policy_rejected_before_any_work(
        self, n_tiles, variant, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before validation")

        monkeypatch.setattr(pipeline, "blocksort_tile", forbidden)
        data = np.arange(160 * n_tiles)[::-1].copy()
        with pytest.raises(ParameterError, match="read_policy"):
            gpu_mergesort(data, 5, 32, 8, variant, read_policy="bogus")

    def test_unknown_policy_rejected_on_empty_input(self):
        with pytest.raises(ParameterError, match="read_policy"):
            gpu_mergesort(np.array([], dtype=np.int64), 5, 32, 8, read_policy="bogus")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_blocksort_tile_rejects_unknown_policy(self, variant):
        with pytest.raises(ParameterError, match="read_policy"):
            blocksort_tile(np.arange(160), 5, 8, variant, read_policy="bogus")


PARAMS = SortParams(5, 32)
W = 8


def _payload(lengths, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-(1 << 20), 1 << 20, sum(lengths), dtype=np.int64)
    offsets = list(np.cumsum([0] + lengths[:-1]))
    return data, [int(o) for o in offsets]


def _lockstep_composition(data, offsets, variant):
    """``segmented_sort`` spelled out on the simulator: per long segment
    one ``gpu_mergesort``, plus one over the packed short batch."""
    tile = PARAMS.tile_elements
    bounds = offsets + [len(data)]
    out = data.copy()
    total = None
    short = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > tile:
            res = gpu_mergesort(data[lo:hi], PARAMS.E, PARAMS.u, W, variant)
            out[lo:hi] = res.data
            total = res.total_counters if total is None else total + res.total_counters
        elif hi > lo:
            short.append((lo, hi))
    packed = np.concatenate([
        (np.int64(rank) << KEY_BITS) | (data[lo:hi] + KEY_LIMIT)
        for rank, (lo, hi) in enumerate(short)
    ])
    res = gpu_mergesort(packed, PARAMS.E, PARAMS.u, W, variant)
    keys = (res.data & ((1 << KEY_BITS) - 1)) - KEY_LIMIT
    pos = 0
    for lo, hi in short:
        out[lo:hi] = keys[pos : pos + hi - lo]
        pos += hi - lo
    return out, total + res.total_counters


class TestBackends:
    def test_long_cf_batched_segment_reports_the_simulator_counters(self):
        data = worstcase_full_input(4, PARAMS.E, PARAMS.u, W)
        outcome = cf_batched_backend(data, [0], PARAMS, W)
        want = gpu_mergesort(data, PARAMS.E, PARAMS.u, W, "cf")
        assert np.array_equal(outcome.data, want.data)
        assert outcome.counters.as_dict() == want.total_counters.as_dict()
        assert outcome.launches == 1

    def test_long_cf_cluster_segment_matches_cf_batched(self):
        data, offsets = _payload([400, 30, 700], seed=5)
        batched = cf_batched_backend(data, offsets, PARAMS, W)
        clustered = cf_cluster_backend(data, offsets, PARAMS, W, pool=ClusterPool(0))
        assert np.array_equal(clustered.data, batched.data)
        assert clustered.counters.as_dict() == batched.counters.as_dict()
        assert clustered.launches == batched.launches

    def test_segmented_sort_runs_every_pass_batched(self, monkeypatch):
        calls = []
        real = segmented.batched_mergesort

        def spy(data, *args, **kwargs):
            calls.append(len(data))
            return real(data, *args, **kwargs)

        monkeypatch.setattr(segmented, "batched_mergesort", spy)
        data, offsets = _payload([400, 30, 150, 700], seed=4)
        segmented.segmented_sort(data, offsets, PARAMS.E, PARAMS.u, W, "cf")
        # Each long segment, then the packed batch of the short ones.
        assert calls == [400, 700, 180]

    def test_pipeline_sorts_fold_no_per_tile_counters(self, monkeypatch):
        # batched_mergesort reads only per-level totals, so none of its
        # accounting passes adds to an accumulator's per-tile rows: in
        # either variant, nor in a cf-batched call on long segments.  The
        # per-tile blocksort profile cf-batched runs on its packed short
        # segments still folds.
        folded = []
        real = batch.BatchCounters._account

        def spy(acc, *args, **kwargs):
            before = acc._counts.copy()
            try:
                return real(acc, *args, **kwargs)
            finally:
                folded.append(not np.array_equal(acc._counts, before))

        monkeypatch.setattr(batch.BatchCounters, "_account", spy)
        data = np.random.default_rng(7).integers(0, 1000, 5 * 160 + 3)
        for variant in ("thrust", "cf"):
            batched_mergesort(data, PARAMS.E, PARAMS.u, W, variant)
        payload, offsets = _payload([400, 700], seed=5)
        cf_batched_backend(payload, offsets, PARAMS, W)
        assert folded and not any(folded)
        cf_batched_backend(*_payload([30, 90], seed=5), PARAMS, W)
        assert folded[-1]

    def test_pipeline_sorts_int16_keys_in_rows_past_32_lanes(self, monkeypatch):
        # At the service geometry every accounting key fits int16, so the
        # row sorts run on int16 keys in rows of 64 (search) or 128
        # (pointer merge) lanes; a silent fallback to int32 would show.
        rows = []
        real = batch._sort_rows

        def spy(keys, group, bits):
            rows.append((keys.dtype, keys.shape[1] << group))
            return real(keys, group, bits)

        monkeypatch.setattr(batch, "_sort_rows", spy)
        data = np.random.default_rng(8).integers(0, 1 << 31, 4 * 160 + 9)
        for variant, widths in (("thrust", {64, 128}), ("cf", {64})):
            rows.clear()
            batched_mergesort(data, PARAMS.E, PARAMS.u, W, variant)
            assert {dtype for dtype, _ in rows} == {np.dtype(np.int16)}, variant
            assert {lanes for _, lanes in rows} == widths, variant

    @pytest.mark.parametrize("backend,variant", [("cf", "cf"), ("baseline", "thrust")])
    def test_simulated_backends_equal_the_lockstep_composition(self, backend, variant):
        data, offsets = _payload([400, 30, 0, 150, 700, 90], seed=3)
        outcome = get_backend(backend)(data, offsets, PARAMS, W)
        want_data, want_counters = _lockstep_composition(data, offsets, variant)
        assert np.array_equal(outcome.data, want_data)
        assert outcome.counters.as_dict() == want_counters.as_dict()


def _with_max(top):
    """350 random keys below ``top``, ``top`` itself among them."""
    def make(rng):
        data = rng.integers(0, top, 350)
        data[rng.integers(350)] = top
        return data
    return make


#: Inputs at the lane's packing edges: already dense (the Section 4
#: adversary), negative, maxima at int16's ``v << 1 | tag`` limit (2^14)
#: and on both sides of int32's (2^30, or 2^29 with k = 4's two tag
#: bits), with the pad at ``max + 1``, and 2^40-wide values that must
#: still rank.
EDGES = {
    "adversary": lambda rng: worstcase_full_input(2, PARAMS.E, PARAMS.u, W),
    "negative": lambda rng: rng.integers(-(1 << 14), 1 << 12, 350),
    **{
        f"max {name}": _with_max(top)
        for name, top in [
            ("2^14 - 1", (1 << 14) - 1), ("2^14", 1 << 14), ("2^29 - 1", (1 << 29) - 1),
            ("2^30 - 2", (1 << 30) - 2), ("2^30 - 1", (1 << 30) - 1), ("2^30", 1 << 30),
        ]
    },
    "2^40 wide": lambda rng: rng.integers(-(1 << 40), 1 << 40, 350),
}


class TestLaneInput:
    """The lane keeps an input's own values unless its dense ranks pack
    narrower (``pipeline._lane_input``); every entry point equals its
    oracle either way, since counters depend on comparisons alone."""

    @pytest.mark.parametrize("edge", list(EDGES))
    def test_entry_points_equal_their_oracles(self, edge):
        data = EDGES[edge](np.random.default_rng(len(edge)))
        E, u = PARAMS.E, PARAMS.u
        for variant in VARIANTS:
            got = batched_mergesort(data, E, u, W, variant)
            assert got.as_dict() == gpu_mergesort(data, E, u, W, variant).as_dict(), variant
        got_kway = batched_kway_sort(data, 4, E, u, W)
        assert got_kway.as_dict() == kway_sort(data, 4, E, u, W).as_dict()
        got_sample = batched_sample_sort(data, E, u, W)
        assert got_sample.as_dict() == sample_sort(data, E, u, W).as_dict()
        # blocksort_segments equals the sum of its one-tile sorts.
        segments = [data[:100], data[:0], data[100:260], data[260:]]
        sorted_segments, counters = blocksort_segments(segments, E, u, W)
        want = Counters()
        for segment, out in zip(segments, sorted_segments):
            one = gpu_mergesort(segment, E, u, W, "cf")
            assert np.array_equal(out, one.data)
            want.merge(one.total_counters)
        assert counters.as_dict() == want.as_dict()

    @pytest.mark.parametrize(
        "data,bits,ranked",
        [
            (np.arange(2560), 1, False),  # already dense
            (np.array([-(1 << 30), 5, (1 << 30) - 2]), 1, False),  # int32 either way
            (np.array([0, (1 << 30) - 1]), 1, True),  # the pad 2^30 needs int64
            (np.array([0, (1 << 29) - 2]), 2, False),  # k = 4's two tag bits
            (np.array([0, (1 << 29) - 1]), 2, True),
            (np.array([3, 1 << 40, 3]), 1, True),
        ],
    )
    def test_ranks_only_where_they_narrow_the_packing(self, data, bits, ranked):
        data = data.astype(np.int64)
        keys, pad, restore = pipeline._lane_input(data, bits)
        assert (keys is not data) == ranked
        assert np.array_equal(restore(keys), data)
        assert pad == (len(np.unique(data)) if ranked else data.max() + 1)

    def test_dense_input_runs_no_unique(self, monkeypatch):
        ranked = []
        real = np.unique

        def spy(*args, **kwargs):
            ranked.append(kwargs.get("return_inverse", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        E, u = PARAMS.E, PARAMS.u
        data = worstcase_full_input(4, E, u, W)
        for variant in VARIANTS:
            batched_mergesort(data, E, u, W, variant)
        batched_kway_sort(data, 4, E, u, W)
        batched_sample_sort(data, E, u, W)
        blocksort_segments(np.split(data, 4), E, u, W)
        assert ranked and not any(ranked)
        batched_mergesort(data << 40, E, u, W)  # the spy sees a ranking
        assert ranked[-1]


class TestBlocksortSegments:
    def test_empty_segments_take_no_tile(self):
        # Mixed in with others, an empty segment is sorted to an empty
        # output and charged nothing, as a one-tile sort of it is.
        E, u = PARAMS.E, PARAMS.u
        rng = np.random.default_rng(12)
        segments = [
            np.array([], dtype=np.int64), np.array([3, 1, 2]), np.array([], dtype=np.int64),
            rng.integers(0, 1 << 40, 160), np.array([], dtype=np.int64),
        ]
        got, counters = blocksort_segments(segments, E, u, W)
        want = Counters()
        for segment, out in zip(segments, got):
            assert np.array_equal(out, np.sort(segment))
            want.merge(batched_mergesort(segment, E, u, W, "cf").total_counters)
        assert counters.as_dict() == want.as_dict()
        assert counters.global_read_transactions == 2 * (160 // 32 + 1)
        _, nothing = blocksort_segments(segments[:1] * 3, E, u, W)
        assert nothing.as_dict() == Counters().as_dict()
