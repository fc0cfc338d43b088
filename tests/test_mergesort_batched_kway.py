"""``batched_kway_sort`` and ``batched_sample_sort`` against their oracles.

Each batched sort must return the same result as its lockstep oracle
(``kway_sort`` / ``sample_sort`` at their defaults) on every field: the
sorted data and its dtype, each blocksort phase's counters, each merge
level's search and merge counters, the bucket bookkeeping and the
analytic global traffic.  The ``kway`` and ``samplesort`` service
backends built on them must report exactly what the per-segment lockstep
composition reports, although they blocksort every short segment of a
batch in one lane pass, and no stock backend may run the lockstep
simulator at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SortParams
from repro.errors import ParameterError
from repro.mergesort import kway as kway_module
from repro.mergesort import pipeline as pipeline_module
from repro.mergesort.kway import batched_kway_sort, kway_sort
from repro.mergesort.samplesort import batched_sample_sort, sample_sort
from repro.mergesort.serial_merge import SENTINEL
from repro.service.backends import DEFAULT_BACKENDS, KWAY_BACKEND_FANIN, get_backend
from repro.sim.block import ThreadBlock
from repro.sim.counters import Counters
from repro.worstcase import worstcase_full_input

COPRIME = [(5, 32, 8), (3, 8, 4), (7, 16, 16), (5, 16, 8)]
NON_COPRIME = [(6, 16, 4), (8, 16, 8)]


def _lengths(tile: int) -> list[int]:
    """0, 1, tile-1, tile, tile+1, then 2, 3, 6 and 9 tiles.

    At fan-in 4, 6 and 9 tiles leave a trailing group of 2 and 1 runs.
    """
    return [0, 1, tile - 1, tile, tile + 1, 2 * tile, 3 * tile + 7, 6 * tile, 9 * tile - 3]


def _data(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(-(10**6), 10**6, n)
    if kind == "duplicates":
        return rng.integers(0, 2, n)
    info = np.iinfo(np.int64)
    data = rng.integers(info.min, SENTINEL, n, dtype=np.int64)
    data[: min(n, 3)] = [info.min, SENTINEL - 1, 0][: min(n, 3)]
    return data


def assert_kway_matches(data, k, E, u, w):
    got = batched_kway_sort(data, k, E, u, w)
    want = kway_sort(data, k, E, u, w)
    assert got.as_dict() == want.as_dict()
    assert got.data.dtype == want.data.dtype
    return got


def assert_samplesort_matches(data, E, u, w):
    got = batched_sample_sort(data, E, u, w)
    want = sample_sort(data, E, u, w)
    assert got.as_dict() == want.as_dict()
    assert got.data.dtype == want.data.dtype
    return got


class TestBatchedKwaySort:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("E,u,w", COPRIME)
    def test_every_length_matches_the_simulator(self, E, u, w, k):
        for n in _lengths(u * E):
            data = _data("random", n, seed=E * 100 + u + n)
            assert_kway_matches(data, k, E, u, w)

    @pytest.mark.parametrize("kind", ["duplicates", "full_range"])
    def test_structured_inputs(self, kind):
        data = _data(kind, 6 * 160 + 17, seed=3)
        assert_kway_matches(data, 4, 5, 32, 8)

    @pytest.mark.parametrize("n_tiles", [2, 4, 8])
    def test_section4_adversary(self, n_tiles):
        data = worstcase_full_input(n_tiles, 5, 32, 8)
        got = assert_kway_matches(data, 4, 5, 32, 8)
        assert got.merge_replays == 0

    @pytest.mark.parametrize("E,u,w", NON_COPRIME)
    def test_non_coprime_delegates_to_the_simulator(self, E, u, w, monkeypatch):
        calls = []
        real = kway_module.kway_sort

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kway_module, "kway_sort", spy)
        data = _data("random", 3 * u * E + 5, seed=1)
        result = batched_kway_sort(data, 4, E, u, w)
        assert len(calls) == 1
        assert result.as_dict() == real(data, 4, E, u, w).as_dict()

    def test_rejects_what_the_oracle_rejects(self):
        with pytest.raises(ParameterError, match="k must be"):
            batched_kway_sort(np.arange(10), 1, 5, 32, 8)
        with pytest.raises(ParameterError, match="sentinel"):
            batched_kway_sort(np.array([1, SENTINEL]), 4, 5, 32, 8)
        with pytest.raises(ParameterError, match="one-dimensional"):
            batched_kway_sort(np.zeros((2, 2), dtype=np.int64), 4, 5, 32, 8)


#: Tile counts of the level tests: at every fan-in from 2 to 5 they leave
#: carried runs and short last groups at some level.
LEVEL_TILES = [2, 3, 5, 6, 9, 17, 31]
LEVEL_KINDS = ["random", "few-distinct", "section4"]


def _level_case(k, n_tiles, partial, index):
    """A geometry and an input of ``n_tiles`` tiles (the last one short
    by ``partial`` words), both rotated with ``index``.  The Section 4
    construction needs an even ``u / w``, so it skips ``(7, 16, 16)``."""
    kind = LEVEL_KINDS[(index + k) % len(LEVEL_KINDS)]
    E, u, w = COPRIME[index % len(COPRIME)]
    if kind == "section4" and u // w % 2:
        E, u, w = COPRIME[(index + 1) % len(COPRIME)]
    n = n_tiles * u * E - partial
    rng = np.random.default_rng(1000 * k + n_tiles)
    if kind == "random":
        data = rng.integers(-(10**9), 10**9, n)
    elif kind == "few-distinct":
        data = rng.integers(0, 4, n)
    else:
        data = worstcase_full_input(1 << (n_tiles - 1).bit_length(), E, u, w)[:n]
    return data, (E, u, w)


class TestLevelKernel:
    @pytest.mark.parametrize("n_tiles", LEVEL_TILES)
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_field_matches_the_oracle(self, k, n_tiles):
        for partial in (0, 7):
            index = LEVEL_TILES.index(n_tiles) + partial
            data, (E, u, w) = _level_case(k, n_tiles, partial, index)
            assert_kway_matches(data, k, E, u, w)

    @pytest.mark.parametrize("k,n_tiles", [(3, 17), (4, 6), (4, 31), (5, 9)])
    def test_global_traffic_charges_every_group(self, k, n_tiles):
        # Every case has a short last group at some level.
        data = _data("random", n_tiles * 160 - 11, seed=n_tiles)
        stats = batched_kway_sort(data, k, 5, 32, 8).global_stats
        got = (
            stats.global_read_transactions,
            stats.global_read_requests,
            stats.global_write_transactions,
        )
        assert got == _reference_global(data, k, 5, 32)

    @pytest.mark.parametrize("k,n_tiles", [(2, 9), (3, 17), (4, 31), (5, 6)])
    def test_one_lane_pass_per_merge_level(self, k, n_tiles, monkeypatch):
        from repro.engine import batch as batch_module
        from repro.engine.batch import fusion_stats

        def forbidden(*args, **kwargs):
            raise AssertionError("the lane ran a per-block kernel")

        for name in ("kway_merge_block", "kway_thread_cuts"):
            monkeypatch.setattr(kway_module, name, forbidden)
        calls = {}

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(kway_module, "kway_merge_tags")
        spy(kway_module, "kway_level_profile")
        spy(batch_module, "_kway_pass")
        spy(batch_module, "kway_gather_addresses")
        data = _data("random", n_tiles * 160 - 3, seed=k)
        before = fusion_stats()["round_many_calls"]
        batched_kway_sort(data[:100], k, 5, 32, 8)  # one tile: the blocksort alone
        blocksort = fusion_stats()["round_many_calls"] - before
        calls.clear()
        before = fusion_stats()["round_many_calls"]
        result = batched_kway_sort(data, k, 5, 32, 8)
        levels = result.merge_level_count
        assert levels == kway_module.kway_level_count(n_tiles, k)
        passes = calls["_kway_pass"]
        assert calls["kway_level_profile"] == passes == levels
        assert calls["kway_gather_addresses"] == passes
        # One sort of the full groups, one more for a short last group.
        assert levels <= calls["kway_merge_tags"] <= 2 * levels
        # A merge level adds two round_many calls: its search replay and
        # its staged gather.  The scatter is closed form.
        assert fusion_stats()["round_many_calls"] - before == blocksort + 2 * levels


def _reference_global(data, k, E, u):
    """Global traffic charged group by group and block by block.

    Both sorts share the skeleton that charges it, so their parity cannot
    pin it; this reference cuts every group at every tile diagonal with
    :func:`~repro.mergesort.kway.kway_merge_path_search`.
    """
    tile = u * E
    n_tiles = -(-len(data) // tile)
    padded = np.full(n_tiles * tile, SENTINEL, dtype=np.int64)
    padded[: len(data)] = data
    runs = list(np.sort(padded.reshape(n_tiles, tile), axis=1))
    reads = writes = n_tiles * (tile // 32 + 1)
    requests = 0
    while len(runs) > 1:
        groups = [runs[g : g + k] for g in range(0, len(runs), k)]
        carried = groups.pop() if len(groups[-1]) == 1 else []
        for group in groups:
            total = sum(len(run) for run in group)
            cuts = [
                kway_module.kway_merge_path_search(group, d) for d in range(0, total + 1, tile)
            ]
            steps = (len(cuts) - 2) * sum(len(run).bit_length() for run in group)
            reads += steps
            requests += steps
            for prev, cut in zip(cuts, cuts[1:]):
                reads += sum((c - 1) // 32 - p // 32 + 1 for p, c in zip(prev, cut) if c > p)
                writes += tile // 32
        runs = [np.sort(np.concatenate(group)) for group in groups] + carried
    return reads, requests, writes


class TestBatchedSampleSort:
    @pytest.mark.parametrize("E,u,w", COPRIME)
    def test_every_length_matches_the_simulator(self, E, u, w):
        for n in _lengths(u * E):
            data = _data("random", n, seed=E * 10 + u + n)
            assert_samplesort_matches(data, E, u, w)

    @pytest.mark.parametrize("n", [3 * 160 + 1, 5 * 160 + 3, 9 * 160])
    def test_duplicate_heavy_overflow_buckets(self, n):
        data = _data("duplicates", n, seed=n)
        got = assert_samplesort_matches(data, 5, 32, 8)
        assert got.overflow_buckets > 0

    def test_full_int64_range(self):
        assert_samplesort_matches(_data("full_range", 4 * 160 + 9, seed=5), 5, 32, 8)

    @pytest.mark.parametrize("n_tiles", [2, 4])
    def test_section4_adversary(self, n_tiles):
        data = worstcase_full_input(n_tiles, 5, 32, 8)
        got = assert_samplesort_matches(data, 5, 32, 8)
        assert got.merge_replays == 0

    def test_non_coprime_geometry_matches(self):
        data = _data("random", 3 * 96 + 5, seed=2)
        assert_samplesort_matches(data, 6, 16, 4)


class TestValidationOnEmptyInput:
    def test_kway_sort_rejects_unknown_read_policy(self):
        with pytest.raises(ParameterError, match="read_policy"):
            kway_sort(np.array([], np.int64), 4, 5, 32, 8, read_policy="bogus")

    def test_sample_sort_rejects_odd_oversample(self):
        with pytest.raises(ParameterError, match="oversample"):
            sample_sort(np.array([], np.int64), 5, 32, 8, oversample=3)


PARAMS = SortParams(5, 32)
W = 8


def _payload(lengths, seed, high=1 << 20):
    rng = np.random.default_rng(seed)
    data = rng.integers(-high, high, sum(lengths), dtype=np.int64)
    offsets = [int(o) for o in np.cumsum([0] + lengths[:-1])]
    return data, offsets


#: ``(E, u, w)`` of the batch tests; ``(8, 16, 8)`` is not coprime.
BATCH_GEOMETRIES = [(5, 32, 8), (5, 16, 8), (7, 64, 32), (8, 16, 8)]


def _mixed_batch(E, u, w, seed):
    """Many short segments plus empty, edge-length, long and hard ones.

    Besides random short segments: empty and one-key segments, tile-1,
    tile, tile+1 and 2*tile+3 keys, a duplicate-heavy short and long
    segment, a full-int64-range short segment, and the Section 4
    adversary tile.
    """
    tile = u * E
    rng = np.random.default_rng(seed)
    short = [int(n) for n in rng.integers(1, tile + 1, 12)]
    lengths = [0, 1, tile - 1, tile, tile + 1, 2 * tile + 3] + short + [0, 40, 3 * tile]
    data, offsets = _payload(lengths, seed)
    bounds = offsets + [len(data)]
    dup_short, dup_long = offsets[-2], offsets[-1]
    data[dup_short : bounds[-2]] %= 3
    data[dup_long:] %= 3
    data[offsets[6] : bounds[7]] = _data("full_range", lengths[6], seed)
    attack = worstcase_full_input(1, E, u, w)
    data = np.concatenate([data, attack])
    return data, offsets + [len(data) - len(attack)]


def _one_call_per_segment(backend, data, offsets, params, w):
    """What one ``batched_*`` call per non-empty segment reports."""
    out = data.copy()
    counters = Counters()
    launches = 0
    bounds = offsets + [len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi == lo:
            continue
        if backend == "kway":
            res = batched_kway_sort(data[lo:hi], KWAY_BACKEND_FANIN, params.E, params.u, w)
            launches += 1 + res.merge_level_count
        else:
            res = batched_sample_sort(data[lo:hi], params.E, params.u, w)
            launches += 3 if res.n_tiles > 1 else 1
        out[lo:hi] = res.data
        counters.merge(res.total_counters)
    return out, counters, max(launches, 1)


class TestBackends:
    def test_no_stock_backend_runs_the_lockstep_simulator(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("ThreadBlock.run called")

        monkeypatch.setattr(ThreadBlock, "run", forbidden)
        # Short segments, multi-tile segments (one with a trailing k-way
        # group shorter than the fan-in) and a duplicate-heavy segment
        # whose sample-sort buckets overflow.
        data, offsets = _payload([30, 160, 0, 400, 90, 6 * 160 + 5, 700, 12], seed=2)
        data[offsets[-2]:offsets[-1]] %= 3
        for name in DEFAULT_BACKENDS:
            outcome = get_backend(name)(data, offsets, PARAMS, W)
            bounds = offsets + [len(data)]
            for lo, hi in zip(bounds, bounds[1:]):
                assert np.array_equal(outcome.data[lo:hi], np.sort(data[lo:hi])), name

    @pytest.mark.parametrize("backend", ["kway", "samplesort"])
    def test_backends_equal_the_lockstep_composition(self, backend):
        data, offsets = _payload([400, 30, 0, 150, 6 * 160 + 5, 90, 700], seed=3)
        data[offsets[-1]:] %= 3  # the last segment overflows its buckets
        outcome = get_backend(backend)(data, offsets, PARAMS, W)
        out = data.copy()
        counters = None
        launches = 0
        bounds = offsets + [len(data)]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi == lo:
                continue
            if backend == "kway":
                res = kway_sort(data[lo:hi], KWAY_BACKEND_FANIN, PARAMS.E, PARAMS.u, W)
                launches += 1 + res.merge_level_count
            else:
                res = sample_sort(data[lo:hi], PARAMS.E, PARAMS.u, W)
                launches += 3 if res.n_tiles > 1 else 1
            out[lo:hi] = res.data
            total = res.total_counters
            counters = total if counters is None else counters + total
        assert np.array_equal(outcome.data, out)
        assert outcome.counters.as_dict() == counters.as_dict()
        assert outcome.launches == launches

    @pytest.mark.parametrize("backend", ["kway", "samplesort"])
    @pytest.mark.parametrize("E,u,w", BATCH_GEOMETRIES)
    def test_a_mixed_batch_equals_one_call_per_segment(self, backend, E, u, w):
        data, offsets = _mixed_batch(E, u, w, seed=E * 100 + u)
        params = SortParams(E, u)
        outcome = get_backend(backend)(data, offsets, params, w)
        out, counters, launches = _one_call_per_segment(backend, data, offsets, params, w)
        assert np.array_equal(outcome.data, out)
        assert outcome.data.dtype == out.dtype
        assert outcome.counters.as_dict() == counters.as_dict()
        assert outcome.launches == launches

    @pytest.mark.parametrize("backend", ["kway", "samplesort"])
    def test_one_lane_pass_covers_every_short_segment(self, backend, monkeypatch):
        passes = []
        real = pipeline_module._batched_blocksort

        def spy(tiles, *args, **kwargs):
            passes.append(len(tiles))
            return real(tiles, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "_batched_blocksort", spy)
        tile = PARAMS.tile_elements
        data, offsets = _payload([0, 3, tile, 70, 0, 1, tile - 1, 40, 2 * tile + 3], seed=4)
        outcome = get_backend(backend)(data, offsets, PARAMS, W)
        # Six non-empty short segments, one pass; the long one sorts on its own.
        assert passes == [6]
        bounds = offsets + [len(data)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.array_equal(outcome.data[lo:hi], np.sort(data[lo:hi]))
