"""Micro-batch planning, the runner bridge, and batch-level caching."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import SortParams
from repro.errors import ParameterError
from repro.runner import ResultCache
from repro.service import (
    DEFAULT_BACKENDS,
    BatchPolicy,
    MicroBatch,
    SortRequest,
    batch_job,
    plan_batches,
    run_batch,
)
from repro.service.backends import get_backend
from repro.service.jobs import service_batch_tile

PARAMS = SortParams(E=5, u=8)  # tile = 40
W = 8


def _req(rid: int, n: int, backend: str = "cf", seed: int | None = None) -> SortRequest:
    rng = np.random.default_rng(rid if seed is None else seed)
    return SortRequest(
        request_id=rid,
        data=rng.integers(-(10**6), 10**6, n).astype(np.int64),
        backend=backend,
    )


class TestBatchPolicy:
    def test_defaults_valid(self):
        policy = BatchPolicy()
        assert policy.capacity_elements(PARAMS) == 32 * 40
        assert policy.shards == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_tiles": 0},
            {"max_batch_requests": 0},
            {"queue_capacity": 0},
            {"shards": 0},
            {"max_batch_tiles": -1},
            {"shards": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ParameterError):
            BatchPolicy(**kwargs)


class TestPlanBatches:
    def test_partition_preserves_order_and_membership(self):
        requests = [_req(i, 10 + i) for i in range(20)]
        batches = plan_batches(requests, BatchPolicy(), PARAMS)
        flattened = [r.request_id for b in batches for r in b.requests]
        assert flattened == list(range(20))

    def test_element_capacity_trigger(self):
        # 5 requests of 35 elements against a 2-tile (80-element) capacity:
        # two fit per batch, so the plan is [2, 2, 1].
        policy = BatchPolicy(max_batch_tiles=2)
        requests = [_req(i, 35) for i in range(5)]
        batches = plan_batches(requests, policy, PARAMS)
        assert [len(b.requests) for b in batches] == [2, 2, 1]
        for batch in batches:
            assert batch.elements <= policy.capacity_elements(PARAMS)

    def test_request_count_trigger(self):
        policy = BatchPolicy(max_batch_tiles=64, max_batch_requests=3)
        batches = plan_batches([_req(i, 2) for i in range(8)], policy, PARAMS)
        assert [len(b.requests) for b in batches] == [3, 3, 2]

    def test_oversized_request_gets_own_batch(self):
        policy = BatchPolicy(max_batch_tiles=1)  # capacity 40
        requests = [_req(0, 10), _req(1, 100), _req(2, 10)]
        batches = plan_batches(requests, policy, PARAMS)
        sizes = {b.batch_id: [r.request_id for r in b.requests] for b in batches}
        assert [1] in sizes.values()  # the oversized one is alone

    def test_groups_by_backend(self):
        requests = [
            _req(0, 10, "cf"),
            _req(1, 10, "numpy"),
            _req(2, 10, "cf"),
        ]
        batches = plan_batches(requests, BatchPolicy(), PARAMS)
        for batch in batches:
            assert len({r.backend for r in batch.requests}) == 1
        assert {b.backend for b in batches} == {"cf", "numpy"}

    def test_batch_ids_start_at_first_batch_id(self):
        batches = plan_batches(
            [_req(i, 10) for i in range(3)], BatchPolicy(), PARAMS, first_batch_id=7
        )
        assert batches[0].batch_id == 7

    def test_deterministic(self):
        requests = [_req(i, 5 + (i * 13) % 60) for i in range(30)]
        a = plan_batches(requests, BatchPolicy(), PARAMS)
        b = plan_batches(requests, BatchPolicy(), PARAMS)
        assert [(x.batch_id, [r.request_id for r in x.requests]) for x in a] == [
            (x.batch_id, [r.request_id for r in x.requests]) for x in b
        ]


def _reference_plan(requests, policy, params, first_batch_id=0):
    """The planner as it was before it kept a running count per batch:
    it re-summed an open batch for every request it considered."""
    capacity = policy.capacity_elements(params)
    batches, open_batches = [], {}
    next_id = first_batch_id
    for request in requests:
        batch = open_batches.get(request.backend)
        if batch is not None and (
            batch.elements + request.elements > capacity
            or len(batch.requests) + 1 > policy.max_batch_requests
        ):
            open_batches.pop(request.backend, None)
            batch = None
        if batch is None:
            batch = MicroBatch(batch_id=next_id, backend=request.backend)
            next_id += 1
            batches.append(batch)
            open_batches[request.backend] = batch
        batch.requests.append(request)
        if batch.elements >= capacity or len(batch.requests) >= policy.max_batch_requests:
            open_batches.pop(request.backend, None)
    return batches


def _cuts(batches):
    return [(b.batch_id, b.backend, [r.request_id for r in b.requests]) for b in batches]


class TestLinearPlanning:
    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_equal_the_reference_planner(self, seed):
        rng = np.random.default_rng(seed)
        backends = ["cf", "cf-batched", "kway", "numpy"][: 1 + seed % 4]
        for tiles, max_requests in ((1, 64), (2, 3), (4, 8), (32, 64), (3, 1)):
            policy = BatchPolicy(max_batch_tiles=tiles, max_batch_requests=max_requests)
            sizes = rng.integers(0, 3 * PARAMS.tile_elements, 60)
            requests = [
                _req(i, int(n), backends[int(rng.integers(len(backends)))])
                for i, n in enumerate(sizes)
            ]
            got = plan_batches(requests, policy, PARAMS, first_batch_id=seed)
            want = _reference_plan(requests, policy, PARAMS, first_batch_id=seed)
            assert _cuts(got) == _cuts(want)

    def test_reads_each_request_size_at_most_twice(self, monkeypatch):
        reads = []
        size = SortRequest.elements

        def counted(request):
            reads.append(request.request_id)
            return size.fget(request)

        requests = [_req(i, 5 + (i * 13) % 60, ["cf", "kway"][i % 2]) for i in range(200)]
        monkeypatch.setattr(SortRequest, "elements", property(counted))
        plan_batches(requests, BatchPolicy(max_batch_tiles=4), PARAMS)
        assert len(reads) <= 2 * len(requests)


class TestMicroBatch:
    def test_offsets_and_fill_ratio(self):
        batch = MicroBatch(batch_id=0, backend="cf", requests=[_req(0, 30), _req(1, 30)])
        assert batch.offsets == [0, 30]
        assert batch.elements == 60
        # 60 elements pad to 2 tiles of 40.
        assert batch.fill_ratio(PARAMS) == pytest.approx(60 / 80)
        assert MicroBatch(batch_id=1, backend="cf").fill_ratio(PARAMS) == 0.0

    def test_shard_assignment_is_identity_based(self):
        assert MicroBatch(batch_id=5, backend="cf").shard_for(2) == 1
        assert MicroBatch(batch_id=6, backend="cf").shard_for(2) == 0


class TestRunnerBridge:
    def test_batch_job_is_hashable_and_canonical(self):
        batch = MicroBatch(batch_id=0, backend="cf", requests=[_req(0, 8), _req(1, 8)])
        job_a = batch_job(batch, PARAMS, W)
        job_b = batch_job(batch, PARAMS, W)
        assert job_a == job_b
        assert hash(job_a) == hash(job_b)
        assert job_a.kind == "service_batch"

    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS)
    def test_run_batch_sorts_every_segment(self, backend, tmp_path):
        # Four short segments, one empty and one three tiles long.
        sizes = [25, 26, 0, 27, 3 * 40 + 7, 28]
        requests = [_req(i, n, backend) for i, n in enumerate(sizes)]
        batch = MicroBatch(batch_id=0, backend=backend, requests=requests)
        outcome, stats = run_batch(batch, PARAMS, W)
        assert (stats.total, stats.hits, stats.misses) == (1, 0, 1)
        for request, offset in zip(requests, batch.offsets):
            segment = outcome.data[offset : offset + request.elements]
            assert np.array_equal(segment, np.sort(request.data))
        # The direct call and the cached runner job agree on everything.
        cached, cached_stats = run_batch(batch, PARAMS, W, cache=ResultCache(tmp_path))
        assert cached_stats.misses == 1
        assert np.array_equal(outcome.data, cached.data)
        assert outcome.counters.as_dict() == cached.counters.as_dict()
        assert json.dumps(outcome.counters.as_dict())  # plain ints
        assert outcome.launches == cached.launches
        assert type(outcome.launches) is int

    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS)
    @pytest.mark.parametrize("offsets", [[3], [0, 7, 4], [0, 11]])
    def test_malformed_offsets_raise(self, backend, offsets):
        # Ten keys: an offset past the start, a descent, one past the end.
        data = np.arange(9, -1, -1, dtype=np.int64)
        with pytest.raises(ParameterError):
            get_backend(backend)(data, offsets, SortParams(5, 32), W)

    def test_identical_batches_share_a_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        requests = [_req(i, 20, seed=i) for i in range(3)]
        batch = MicroBatch(batch_id=0, backend="cf", requests=requests)
        _, stats_first = run_batch(batch, PARAMS, W, cache=cache)
        assert (stats_first.hits, stats_first.misses) == (0, 1)
        # Same content under a different batch identity: still a hit.
        replay = MicroBatch(batch_id=99, backend="cf", requests=requests)
        outcome, stats_second = run_batch(replay, PARAMS, W, cache=cache)
        assert (stats_second.hits, stats_second.misses) == (1, 0)
        assert np.array_equal(
            outcome.data[:20], np.sort(requests[0].data)
        )

    def test_service_batch_tile_rejects_bad_lengths(self):
        with pytest.raises(ParameterError):
            service_batch_tile(
                {
                    "values": (3, 1, 2),
                    "lengths": (2,),  # sums to 2, but 3 values given
                    "backend": "cf",
                    "E": PARAMS.E,
                    "u": PARAMS.u,
                    "w": W,
                }
            )
