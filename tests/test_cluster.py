"""Unit tests for `repro.cluster`: plans, pool, external sort, fairness.

The package's load-bearing contracts, each pinned directly:

* plan determinism and content addressing (same request → same key,
  LRU hits surfaced in the stats);
* Merge-Path partition cuts: independent, stable, boundary-exact;
* inline ≡ process byte identity for `cluster_sort` and the
  `cf-cluster` service backend;
* the external sort's resident-key budget and spill ledger;
* WFQ ordering and the tenant-quota'd fair front end;
* the metrics snapshot's schema-3 `cluster` section and the
  Prometheus counter typing.
"""

from __future__ import annotations

import json
import os
import signal
import time
from multiprocessing.connection import wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterPool,
    SharedInt64,
    TenantQuota,
    attach_int64,
    build_plan,
    chunk_bounds,
    cluster_sort,
    cluster_stats,
    external_sort,
    get_plan,
    merge_partition_cuts,
    run_cluster_task,
    run_plan,
    stable_merge_slices,
    wfq_order,
)
import repro.cluster.service as cluster_service
from repro.cluster.pool import clear_fault_hook, install_fault_hook
from repro.cluster.service import cf_cluster_backend
from repro.config import SortParams
from repro.engine.backend import cf_batched_backend
from repro.errors import ParameterError

E, U, W = 5, 32, 8
TILE = U * E


def _workload(seed: int = 0, n: int = 4 * TILE) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-(1 << 30), 1 << 30, n, dtype=np.int64)


class TestPartition:
    def test_chunk_bounds_cover_the_input(self):
        bounds = chunk_bounds(10, 4)
        assert bounds == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_bounds_validation(self):
        with pytest.raises(ParameterError):
            chunk_bounds(10, 0)
        with pytest.raises(ParameterError):
            chunk_bounds(-1, 4)

    def test_merge_cuts_partition_the_stable_merge(self):
        rng = np.random.default_rng(3)
        runs = [np.sort(rng.integers(0, 50, n)) for n in (40, 0, 25, 33)]
        parts = 3
        cuts = merge_partition_cuts(runs, parts)
        total = sum(len(r) for r in runs)
        assert len(cuts) == parts + 1
        assert cuts[0] == tuple([0] * len(runs))
        assert cuts[-1] == tuple(len(r) for r in runs)
        merged = np.concatenate(
            [
                stable_merge_slices(
                    [run[lo:hi] for run, lo, hi in zip(runs, cuts[p], cuts[p + 1])]
                )
                for p in range(parts)
            ]
        )
        assert np.array_equal(merged, np.sort(np.concatenate(runs)))
        # Partitions are independent: output ranges are disjoint diagonals.
        sizes = [
            sum(hi - lo for lo, hi in zip(cuts[p], cuts[p + 1]))
            for p in range(parts)
        ]
        assert sizes == [(j + 1) * total // parts - j * total // parts
                         for j in range(parts)]


class TestPlan:
    def test_plan_key_is_content_addressed(self):
        a = build_plan(1000, 200, 2, E=E, u=U, w=W)
        b = build_plan(1000, 200, 2, E=E, u=U, w=W)
        c = build_plan(1000, 200, 3, E=E, u=U, w=W)
        assert a.key == b.key
        assert a.key != c.key

    def test_plan_dag_shape(self):
        plan = build_plan(1000, 256, 3, E=E, u=U, w=W)
        assert len(plan.sort_tasks) == 4
        assert len(plan.merge_tasks) == 3
        sort_ids = {t.task_id for t in plan.sort_tasks}
        for task in plan.merge_tasks:
            assert set(task.depends) == sort_ids

    def test_empty_plan_has_no_tasks(self):
        plan = build_plan(0, 64, 2, E=E, u=U, w=W)
        assert plan.tasks == ()

    def test_get_plan_caches_by_key(self):
        before = cluster_stats()["plan_cache_hits"]
        get_plan(12345, 640, 2, E=E, u=U, w=W)
        get_plan(12345, 640, 2, E=E, u=U, w=W)
        assert cluster_stats()["plan_cache_hits"] > before


class TestSharedMemory:
    def test_fill_attach_round_trip(self):
        data = _workload(7, 100)
        with SharedInt64(100) as block:
            block.fill_from(data)
            handle, view = attach_int64(block.name, 100)
            try:
                assert np.array_equal(view, data)
            finally:
                handle.close()

    def test_zero_length_block_is_valid(self):
        with SharedInt64(0) as block:
            assert block.array.shape == (0,)


class TestExecutor:
    def test_run_plan_matches_numpy(self):
        data = _workload(1)
        plan = build_plan(len(data), TILE, 2, E=E, u=U, w=W)
        with ClusterPool(0) as pool:
            result = run_plan(data, plan, pool=pool)
        assert np.array_equal(result.data, np.sort(data))
        assert result.launches > 0

    def test_run_plan_rejects_length_mismatch(self):
        plan = build_plan(100, 50, 2, E=E, u=U, w=W)
        with pytest.raises(ParameterError):
            run_plan(_workload(0, 99), plan)

    def test_tournament_merge_mode_sorts_and_counts(self):
        data = _workload(2, 2 * TILE)
        with ClusterPool(0) as pool:
            numpy_merge = cluster_sort(
                data, TILE, 2, merge="numpy", E=E, u=U, w=W, pool=pool
            )
            tournament = cluster_sort(
                data, TILE, 2, merge="tournament", E=E, u=U, w=W, pool=pool
            )
        assert np.array_equal(tournament.data, numpy_merge.data)
        assert tournament.launches > numpy_merge.launches

    def test_process_pool_is_byte_identical_to_inline(self):
        data = _workload(4)
        with ClusterPool(0) as pool:
            inline = cluster_sort(data, TILE, 3, E=E, u=U, w=W, pool=pool)
        with ClusterPool(2) as pool:
            sharded = cluster_sort(data, TILE, 3, E=E, u=U, w=W, pool=pool)
        assert np.array_equal(sharded.data, inline.data)
        assert sharded.counters.as_dict() == inline.counters.as_dict()
        assert sharded.launches == inline.launches

    def test_span_replay_is_deterministic(self):
        from repro.telemetry.spans import Tracer

        data = _workload(5, 2 * TILE)

        def spans_with(procs: int) -> list[tuple[str, int, int]]:
            tracer = Tracer()
            with ClusterPool(procs) as pool:
                cluster_sort(data, TILE, 2, E=E, u=U, w=W, pool=pool, tracer=tracer)
            return [(s.name, s.start, s.end) for s in tracer.spans()]

        assert spans_with(0) == spans_with(2)


#: Segment sizes around the tile edges, plus long and random short ones.
_SEGMENT_SIZES = st.one_of(
    st.sampled_from([0, 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 9]),
    st.integers(2, TILE - 2),
)


class _InlinePool:
    """A pool of width ``procs`` that runs its tasks inline, counting them."""

    def __init__(self, procs: int) -> None:
        self.procs = procs
        self.tasks = 0

    def run(self, tasks):
        self.tasks += len(tasks)
        return [run_cluster_task(task) for task in tasks]


class TestClusterBackend:
    def test_backend_identity_with_long_and_empty_segments(self):
        data = _workload(6, 2 * TILE + 70)
        offsets = [0, 0, 40, 40 + TILE + 30]
        params = SortParams(E, U)
        batched = cf_batched_backend(data, offsets, params, W)
        clustered = cf_cluster_backend(data, offsets, params, W)
        assert np.array_equal(clustered.data, batched.data)
        assert clustered.counters.as_dict() == batched.counters.as_dict()
        assert clustered.launches == batched.launches

    @pytest.mark.parametrize("procs", [0, 2])
    def test_one_range_task_per_pool_process(self, procs):
        # Ten short segments, each too big to share a tile with the next,
        # then one long and one empty: every boundary is a valid cut.
        sizes = [TILE - 3 * i for i in range(10)] + [2 * TILE + 50, 0]
        data = _workload(9, sum(sizes))
        offsets = np.cumsum([0] + sizes[:-1]).tolist()
        params = SortParams(E, U)
        batched = cf_batched_backend(data, offsets, params, W)
        before = cluster_stats()["tasks_executed"]
        with ClusterPool(procs) as pool:
            clustered = cf_cluster_backend(data, offsets, params, W, pool=pool)
        tasks = cluster_stats()["tasks_executed"] - before
        assert np.array_equal(clustered.data, batched.data)
        assert clustered.counters.as_dict() == batched.counters.as_dict()
        assert clustered.launches == batched.launches
        assert tasks == max(procs, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(_SEGMENT_SIZES, min_size=1, max_size=10),
        procs=st.integers(1, 5),
        duplicates=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def test_every_range_split_matches_cf_batched(self, sizes, procs, duplicates, seed):
        rng = np.random.default_rng(seed)
        high = 3 if duplicates else 1 << 30
        data = rng.integers(-high, high, sum(sizes), dtype=np.int64)
        offsets = np.cumsum([0] + sizes[:-1]).tolist()
        params = SortParams(E, U)
        batched = cf_batched_backend(data, offsets, params, W)
        pool = _InlinePool(procs)
        clustered = cf_cluster_backend(data, offsets, params, W, pool=pool)
        assert np.array_equal(clustered.data, batched.data)
        assert clustered.counters.as_dict() == batched.counters.as_dict()
        assert clustered.launches == batched.launches
        assert 1 <= pool.tasks <= procs

    def test_inline_call_stages_no_shared_memory(self, monkeypatch):
        class Spy(SharedInt64):
            built = 0

            def __init__(self, n: int) -> None:
                Spy.built += 1
                super().__init__(n)

        monkeypatch.setattr(cluster_service, "SharedInt64", Spy)
        data = _workload(4, 3 * TILE + 11)
        offsets = [0, 70, TILE + 70]
        params = SortParams(E, U)
        seen = []
        before = cluster_stats()
        install_fault_hook(seen.append)
        try:
            with ClusterPool(0) as pool:
                clustered = cf_cluster_backend(data, offsets, params, W, pool=pool)
        finally:
            clear_fault_hook()
        after = cluster_stats()
        batched = cf_batched_backend(data, offsets, params, W)
        assert Spy.built == 0
        assert [task["kind"] for task in seen] == ["sort_range"]
        assert np.array_equal(clustered.data, batched.data)
        assert clustered.counters.as_dict() == batched.counters.as_dict()
        assert clustered.launches == batched.launches
        assert set(after) == set(before)
        assert after["shm_bytes_shared"] == before["shm_bytes_shared"]
        assert after["tasks_inline"] == before["tasks_inline"] + 1
        # A process pool still stages through shared memory.
        with ClusterPool(1) as pool:
            cf_cluster_backend(data, offsets, params, W, pool=pool)
        assert Spy.built == 2

    @pytest.mark.parametrize(
        "hook", [None, lambda task: None], ids=["no-hook", "noop-hook"]
    )
    def test_pool_recovers_after_a_worker_process_is_killed(self, hook):
        # A chaos hook must not take the pool off its crash-recovery path.
        sizes = [TILE - 3 * i for i in range(6)] + [2 * TILE + 50]
        data = _workload(12, sum(sizes))
        offsets = np.cumsum([0] + sizes[:-1]).tolist()
        params = SortParams(E, U)
        batched = cf_batched_backend(data, offsets, params, W)
        if hook is not None:
            install_fault_hook(hook)
        try:
            with ClusterPool(2) as pool:
                cf_cluster_backend(data, offsets, params, W, pool=pool)
                executor = pool._executor
                victim = next(iter(executor._processes.values()))
                os.kill(victim.pid, signal.SIGKILL)
                assert wait([victim.sentinel], timeout=30), "worker survived SIGKILL"
                deadline = time.monotonic() + 30
                while not executor._broken and time.monotonic() < deadline:
                    time.sleep(0.01)
                before = cluster_stats()["worker_restarts"]
                clustered = cf_cluster_backend(data, offsets, params, W, pool=pool)
                restarts = cluster_stats()["worker_restarts"] - before
        finally:
            clear_fault_hook()
        assert np.array_equal(clustered.data, batched.data)
        assert clustered.counters.as_dict() == batched.counters.as_dict()
        assert clustered.launches == batched.launches
        assert restarts == 1

    def test_backend_validation_matches_batched(self):
        params = SortParams(6, 32)  # non-coprime with w=8
        with pytest.raises(ParameterError):
            cf_cluster_backend(_workload(0, 64), [0], params, 8)


class TestExternalSort:
    def test_budget_is_honored_and_output_sorted(self, tmp_path):
        data = _workload(8, 5000)
        result = external_sort(data, 1000, tmp_path)
        assert np.array_equal(result.sorted_array(), np.sort(data))
        assert result.stats.peak_resident_keys <= 1000
        assert result.stats.runs_written == 5
        assert result.stats.keys_spilled == len(data)
        assert result.stats.keys_read_back == len(data)

    def test_run_files_are_content_addressed(self, tmp_path):
        data = np.tile(_workload(9, 500), 2)  # two identical chunks
        result = external_sort(data, 500, tmp_path)
        assert len(set(result.run_paths)) == 1  # deduped by content hash
        assert np.array_equal(result.sorted_array(), np.sort(data))

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ParameterError):
            external_sort(_workload(0, 10), 0, tmp_path)


class TestFairness:
    def test_wfq_interleaves_by_weight(self):
        entries = [("heavy", 100)] * 3 + [("light", 100)] * 3
        quotas = {"heavy": TenantQuota(weight=1.0), "light": TenantQuota(weight=2.0)}
        order = wfq_order(entries, quotas)
        # The weight-2 tenant finishes two requests per heavy one.
        assert order.index(3) < order.index(1)
        assert order.index(4) < order.index(2)

    def test_wfq_is_fifo_for_equal_tenants(self):
        entries = [("a", 10), ("a", 10), ("a", 10)]
        assert wfq_order(entries) == [0, 1, 2]

    def test_quota_validation(self):
        with pytest.raises(ParameterError):
            TenantQuota(weight=0)
        with pytest.raises(ParameterError):
            TenantQuota(max_in_flight=0)

    def test_zero_and_negative_quotas_are_unrepresentable(self):
        # A "zero-quota tenant" cannot exist: the quota constructor is
        # the only gate into the WFQ tables, and it rejects every
        # non-positive share, so no tenant can be configured into
        # permanent starvation (or divide the virtual clock by zero).
        for weight in (0.0, -1.5):
            with pytest.raises(ParameterError):
                TenantQuota(weight=weight)
        with pytest.raises(ParameterError):
            TenantQuota(max_in_flight=-1)

    def test_single_tenant_degenerates_to_fifo(self):
        # With one tenant, WFQ must add nothing: mixed costs and weights
        # still dispatch in arrival order, because each request's finish
        # time strictly grows along the tenant's own virtual clock.
        entries = [("solo", 500), ("solo", 1), ("solo", 90), ("solo", 1)]
        assert wfq_order(entries) == [0, 1, 2, 3]
        quotas = {"solo": TenantQuota(weight=7.0)}
        assert wfq_order(entries, quotas) == [0, 1, 2, 3]

    def test_bursty_hog_cannot_starve_a_steady_tenant(self):
        # A 16-deep equal-cost burst lands before the steady tenant's
        # first request, yet WFQ bounds the steady tenant's dispatch
        # delay: its k-th request overtakes all but k+1 hog requests,
        # so it sits at position <= 2k+1 instead of 16+k (FIFO).
        entries = [("hog", 100)] * 16 + [("steady", 100)] * 4
        order = wfq_order(entries)
        positions = {seq: pos for pos, seq in enumerate(order)}
        for k in range(4):
            assert positions[16 + k] <= 2 * k + 1
        # Weighting the steady tenant tightens the bound further.
        weighted = wfq_order(entries, {"steady": TenantQuota(weight=2.0)})
        w_positions = {seq: pos for pos, seq in enumerate(weighted)}
        for k in range(4):
            assert w_positions[16 + k] <= positions[16 + k]

    def test_front_end_serves_two_tenants(self):
        from repro.cluster import FairFrontEnd
        from repro.service.service import SortService

        params = SortParams(E, U)
        payloads = {t: [_workload(i, 40) for i in range(3)] for t in ("a", "b")}
        with SortService(params, W) as service:
            with FairFrontEnd(
                service, quotas={"a": TenantQuota(weight=2.0)}
            ) as front:
                tickets = [
                    (t, p, front.submit(p, tenant=t))
                    for t, plist in payloads.items()
                    for p in plist
                ]
                for tenant, payload, ticket in tickets:
                    result = ticket.result(30.0)
                    assert result.ok, result.error
                    assert np.array_equal(result.data, np.sort(payload))
                # The quota-release waiters run on their own threads;
                # poll until the completion ledger converges.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    snap = front.snapshot()
                    if all(snap[t]["completed"] == 3 for t in ("a", "b")):
                        break
                    time.sleep(0.01)
        assert snap["a"]["completed"] == 3
        assert snap["b"]["completed"] == 3


class TestMetricsIntegration:
    def test_snapshot_has_cluster_section(self):
        from repro.service.metrics import METRICS_SCHEMA, ServiceMetrics

        metrics = ServiceMetrics(SortParams(E, U), W, queue_capacity=4)
        snap = metrics.snapshot()
        assert METRICS_SCHEMA >= 3
        assert snap["schema"] == METRICS_SCHEMA
        assert set(snap["cluster"]) == set(cluster_stats())
        json.dumps(snap)  # snapshot stays JSON-serializable

    def test_prometheus_types_cluster_counters(self):
        from repro.service.metrics import counter_paths
        from repro.telemetry.prometheus import render_exposition

        text = render_exposition({"cluster.tasks_executed": 3.0,
                                  "cluster.peak_resident_keys": 5.0},
                                 counters=counter_paths())
        assert "# TYPE repro_cluster_tasks_executed counter" in text
        assert "# TYPE repro_cluster_peak_resident_keys gauge" in text
