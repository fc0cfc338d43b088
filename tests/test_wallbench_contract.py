"""The names the wall-clock benchmark in ``wallbench/`` relies on.

The benchmark changes only together with its workloads, so a library
change that renames or drops one of these names would break the
benchmark run, not this suite.  This test lists them all, without
importing ``wallbench/``: the three process-wide stats views and the keys
it reads from them, every module attribute its ``--trace 1`` shims
replace, the backend registry, the service metrics it reads and wraps,
and the snapshot keys it reads after serving.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.cluster.stats import cluster_stats
from repro.config import SortParams
from repro.engine.arena import arena_stats
from repro.engine.plans import plan_cache_stats
from repro.service.backends import get_backend, register_backend
from repro.service.metrics import ServiceMetrics
from repro.service.service import SortService
from repro.sim.counters import Counters

#: ``(module, attribute)`` of every function a traced run wraps.
SHIM_TARGETS = [
    ("repro.service.service", "run_batch"),
    ("repro.service.jobs", "batch_job"),
    ("repro.service.jobs", "execute"),
    ("repro.service.jobs", "decode_outcome"),
    ("repro.engine.backend", "pack_tiles"),
    ("repro.engine.backend", "batched_blocksort_profile"),
    ("repro.mergesort.pipeline", "blocksort_tile"),
    ("repro.mergesort.pipeline", "cf_merge_block"),
    ("repro.mergesort.pipeline", "serial_merge_block"),
]


@pytest.mark.parametrize("module,attr", SHIM_TARGETS)
def test_every_shim_target_is_a_module_attribute(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_the_stats_views_keep_the_keys_it_reads():
    assert {"hits", "misses"} <= set(plan_cache_stats())
    assert {"reuse_hits", "checkouts"} <= set(arena_stats())
    assert {"tasks_executed", "shm_bytes_shared"} <= set(cluster_stats())


def test_every_backend_can_be_re_registered():
    # The traced run re-registers each backend wrapped, then restores it.
    original = get_backend("cf-batched")
    register_backend("cf-batched", lambda *args: original(*args))
    try:
        assert get_backend("cf-batched") is not original
    finally:
        register_backend("cf-batched", original)
    assert get_backend("cf-batched") is original


def test_one_request_through_the_service_metrics_it_reads():
    service = SortService(SortParams(E=5, u=32), 8)
    seen = []
    record = service.metrics.record_result

    def stamped(result):
        seen.append(result.request_id)
        record(result)

    # Latency is stamped by replacing the instance's record_result.
    service.metrics.record_result = stamped
    try:
        data = np.arange(150, dtype=np.int64)[::-1].copy()
        ticket = service.submit(data, backend="cf-batched", block=True)
        assert np.array_equal(ticket.result(timeout=60).data, np.sort(data))
        snap = service.metrics.snapshot()
        counters = service.metrics.counters
    finally:
        service.close()
    assert seen == [ticket.request_id]
    assert snap["requests"]["completed"] == 1
    assert snap["batches"]["count"] == 1
    assert snap["batches"]["elements"] == 150
    assert snap["batches"]["padded_elements"] == 160
    assert isinstance(counters, Counters)
    assert callable(ServiceMetrics.record_result)
    assert isinstance(ServiceMetrics.counters, property)
