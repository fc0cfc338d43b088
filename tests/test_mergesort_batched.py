"""``batched_mergesort`` against the lockstep oracle ``gpu_mergesort``.

The batched pipeline must return the same :class:`MergesortResult` as
the oracle at its defaults on every field: the sorted data, each
blocksort phase's counters, each merge level's search and merge
counters, the analytic global traffic, the level count and the merge
replays.  The serving backends built on it (``cf``,
``baseline``, ``cf-batched``, ``cf-cluster``) must in turn report exactly
what the lockstep composition reports; ``segmented_sort`` keeps its
packed batch of short segments on the lockstep pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mergesort.pipeline as pipeline
import repro.mergesort.segmented as segmented
from repro.cluster.pool import ClusterPool
from repro.cluster.service import cf_cluster_backend
from repro.config import SortParams
from repro.engine.backend import cf_batched_backend
from repro.errors import ParameterError
from repro.mergesort import batched_mergesort, blocksort_tile, gpu_mergesort
from repro.mergesort.segmented import KEY_BITS, KEY_LIMIT
from repro.mergesort.serial_merge import SENTINEL
from repro.service.backends import get_backend
from repro.worstcase import worstcase_full_input

VARIANTS = ["thrust", "cf"]
COPRIME = [(5, 32, 8), (5, 16, 8), (15, 32, 32), (3, 8, 4), (1, 8, 8), (7, 32, 16)]
NON_COPRIME = [(8, 16, 8), (6, 16, 4)]


def _lengths(tile: int) -> list[int]:
    """0, 1, tile-1, tile, tile+1, then 3, 5 and 7 tiles (odd runs carry)."""
    return [0, 1, tile - 1, tile, tile + 1, 3 * tile, 5 * tile, 7 * tile]


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

    def test_lane_path_never_runs_the_simulator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("lockstep kernel called")

        for name in ("blocksort_tile", "serial_merge_block", "cf_merge_block"):
            monkeypatch.setattr(pipeline, name, forbidden)
        data = np.random.default_rng(0).integers(0, 1000, 5 * 160 + 3)
        for variant in ("thrust", "cf"):
            result = batched_mergesort(data, 5, 32, 8, variant)
            assert np.array_equal(result.data, np.sort(data))


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

    def test_segmented_sort_batches_only_long_segments(self, monkeypatch):
        calls = []
        for name in ("batched_mergesort", "gpu_mergesort"):

            def spy(data, *args, _name=name, _real=getattr(segmented, name), **kwargs):
                calls.append((_name, len(data)))
                return _real(data, *args, **kwargs)

            monkeypatch.setattr(segmented, name, spy)
        data, offsets = _payload([400, 30, 150, 700], seed=4)
        segmented.segmented_sort(data, offsets, PARAMS.E, PARAMS.u, W, "cf")
        assert calls == [
            ("batched_mergesort", 400),
            ("batched_mergesort", 700),
            ("gpu_mergesort", 180),
        ]

    @pytest.mark.parametrize("backend,variant", [("cf", "cf"), ("baseline", "thrust")])
    def test_simulated_backends_equal_the_lockstep_composition(self, backend, variant):
        data, offsets = _payload([400, 30, 0, 150, 700, 90], seed=3)
        outcome = get_backend(backend)(data, offsets, PARAMS, W)
        want_data, want_counters = _lockstep_composition(data, offsets, variant)
        assert np.array_equal(outcome.data, want_data)
        assert outcome.counters.as_dict() == want_counters.as_dict()
