"""The cluster acceptance benchmark: identity, budget, determinism.

Three gates, mirroring the acceptance criteria:

* **Inline ≡ process** — `cluster_sort` through a 2-process worker pool
  is byte-identical (values, aggregated counters, launch counts) to the
  same plan executed inline.
* **Backend identity** — the `cf-cluster` service backend reproduces
  `cf-batched` exactly on a segmented micro-batch: same sorted bytes,
  same counters, same launch count, on the inline pool and as two range
  tasks on a 2-process pool.
* **Budget ceiling** — the external sort completes under a resident-key
  budget of `n/4` and its measured `peak_resident_keys` never exceeds
  the budget.

When ``CLUSTER_REPORT`` names a path, a deterministic JSON report (plan
keys, counters, spill ledger, WFQ dispatch order — no timings, no
temp paths) is written; CI generates it twice and compares
byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
from conftest import attach

from repro.cluster import (
    ClusterPool,
    build_plan,
    cluster_sort,
    cluster_stats,
    external_sort,
    wfq_order,
)
from repro.cluster.service import cf_cluster_backend
from repro.config import SortParams
from repro.engine.backend import cf_batched_backend

#: The acceptance geometry (coprime: gcd(5, 8) = 1) and sweep sizes.
E, U, W = 5, 32, 8
TILE = U * E
N = 16 * TILE
CHUNK = 4 * TILE
PARTS = 4

#: External-sort acceptance: the budget is a quarter of the input.
EXT_N = 4096
EXT_BUDGET = EXT_N // 4


def _workload(seed: int = 0, n: int = N) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-(1 << 30), 1 << 30, n, dtype=np.int64)


def _segmented_workload(seed: int = 1) -> tuple[np.ndarray, list[int]]:
    """A micro-batch with empty, short, and long (> tile) segments."""
    data = _workload(seed, 3 * TILE + 70)
    offsets = [0, 0, 40, 40 + TILE + 30, len(data)]
    return data, offsets


def _report() -> dict:
    """The deterministic (timing-free) cluster report CI diffs."""
    data = _workload()
    plan = build_plan(len(data), CHUNK, PARTS, backend="cf-batched", E=E, u=U, w=W)
    with ClusterPool(0) as pool:
        inline = cluster_sort(data, CHUNK, PARTS, E=E, u=U, w=W, pool=pool)

    seg_data, seg_offsets = _segmented_workload()
    params = SortParams(E, U)
    batched = cf_batched_backend(seg_data, seg_offsets, params, W)
    clustered = cf_cluster_backend(seg_data, seg_offsets, params, W)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as spill:
        ext = external_sort(_workload(3, EXT_N), EXT_BUDGET, spill)
        ext_digest = hashlib.sha256(ext.sorted_array().tobytes()).hexdigest()

    entries = [
        ("a", 100), ("b", 50), ("a", 100), ("c", 10), ("b", 50), ("a", 100),
    ]
    return {
        "params": {"E": E, "u": U, "w": W, "n": N, "chunk": CHUNK, "parts": PARTS},
        "plan": {
            "key": plan.key,
            "sort_tasks": len(plan.sort_tasks),
            "merge_tasks": len(plan.merge_tasks),
        },
        "inline": {
            "sha256": hashlib.sha256(inline.data.tobytes()).hexdigest(),
            "counters": inline.counters.as_dict(),
            "launches": inline.launches,
        },
        "backend_identity": {
            "values_equal": bool(np.array_equal(clustered.data, batched.data)),
            "counters_equal": clustered.counters.as_dict() == batched.counters.as_dict(),
            "launches": [clustered.launches, batched.launches],
        },
        "external": {
            "n": EXT_N,
            "budget_keys": EXT_BUDGET,
            "runs_written": ext.stats.runs_written,
            "keys_spilled": ext.stats.keys_spilled,
            "keys_read_back": ext.stats.keys_read_back,
            "merge_rounds": ext.stats.merge_rounds,
            "peak_resident_keys": ext.stats.peak_resident_keys,
            "sorted_sha256": ext_digest,
        },
        "wfq_order": wfq_order(entries),
    }


def test_cluster_inline_process_identity(benchmark):
    """A 2-process pool is byte-identical to inline plan execution."""
    data = _workload()
    with ClusterPool(0) as pool:
        inline = cluster_sort(data, CHUNK, PARTS, E=E, u=U, w=W, pool=pool)

    def run():
        with ClusterPool(2) as pool:
            return cluster_sort(data, CHUNK, PARTS, E=E, u=U, w=W, pool=pool)

    sharded = benchmark.pedantic(run, rounds=1, iterations=1)
    attach(
        benchmark,
        plan_key=sharded.plan.key[:16],
        launches=sharded.launches,
        shared_replays=sharded.counters.shared_replays,
    )
    assert np.array_equal(sharded.data, np.sort(data))
    assert np.array_equal(sharded.data, inline.data)
    assert sharded.counters.as_dict() == inline.counters.as_dict()
    assert sharded.launches == inline.launches


def test_cf_cluster_backend_identity(benchmark):
    """`cf-cluster` ≡ `cf-batched`: values, counters, launches.

    Once on the default (inline) pool, one range; once on two worker
    processes, where the batch's valid cut gives one range task each.
    """
    data, offsets = _segmented_workload()
    params = SortParams(E, U)
    batched = cf_batched_backend(data, offsets, params, W)

    clustered = benchmark.pedantic(
        lambda: cf_cluster_backend(data, offsets, params, W),
        rounds=1, iterations=1,
    )
    before = cluster_stats()["tasks_process"]
    with ClusterPool(2) as pool:
        sharded = cf_cluster_backend(data, offsets, params, W, pool=pool)
    process_tasks = cluster_stats()["tasks_process"] - before
    attach(
        benchmark,
        segments=len(offsets),
        launches=clustered.launches,
        shared_replays=clustered.counters.shared_replays,
        process_tasks=process_tasks,
    )
    for outcome in (clustered, sharded):
        assert np.array_equal(outcome.data, batched.data)
        assert outcome.counters.as_dict() == batched.counters.as_dict()
        assert outcome.launches == batched.launches
    assert process_tasks == 2


def test_external_sort_budget(benchmark):
    """The out-of-core sort stays under its resident-key budget."""
    data = _workload(3, EXT_N)

    def run():
        with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as spill:
            result = external_sort(data, EXT_BUDGET, spill)
            return result, result.sorted_array()

    result, out = benchmark.pedantic(run, rounds=1, iterations=1)
    attach(
        benchmark,
        budget_keys=EXT_BUDGET,
        runs_written=result.stats.runs_written,
        merge_rounds=result.stats.merge_rounds,
        peak_resident_keys=result.stats.peak_resident_keys,
    )
    assert np.array_equal(out, np.sort(data))
    assert result.stats.peak_resident_keys <= EXT_BUDGET, "budget exceeded"
    assert result.stats.keys_spilled == EXT_N
    assert result.stats.keys_read_back == EXT_N

    report_path = os.environ.get("CLUSTER_REPORT")
    if report_path:
        Path(report_path).write_text(
            json.dumps(_report(), indent=2, sort_keys=True) + "\n"
        )
