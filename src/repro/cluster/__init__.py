"""Partition-wise execution plans, multi-process shards, external sort.

The scale-out layer on top of the single-process service (ROADMAP item
3): a sort request is compiled by :mod:`repro.cluster.plan` into a
deterministic chunk → sort → Merge-Path-partitioned k-way merge DAG,
executed by :mod:`repro.cluster.executor` through the
:mod:`repro.cluster.pool` worker pool (inline or ``spawn`` processes
over :mod:`repro.cluster.shm` zero-copy buffers — byte-identical either
way), with :mod:`repro.cluster.external` handling n ≫ memory via
content-addressed run files and a bounded-memory merge, and
:mod:`repro.cluster.fairness` adding per-tenant weighted-fair admission
in front of the service.  The ``cf-cluster`` service backend
(:mod:`repro.cluster.service`) shards the batched engine lane through
the same pool, bit-identical to ``cf-batched``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.executor import ClusterResult, cluster_sort, run_plan
    from repro.cluster.external import ExternalSortResult, SpillStats, external_sort
    from repro.cluster.fairness import FairFrontEnd, TenantQuota, wfq_order
    from repro.cluster.partition import chunk_bounds, merge_partition_cuts, stable_merge_slices
    from repro.cluster.plan import ClusterPlan, ClusterTask, build_plan, get_plan
    from repro.cluster.pool import (
        ClusterPool,
        get_default_pool,
        run_cluster_task,
        set_default_procs,
    )
    from repro.cluster.service import cf_cluster_backend
    from repro.cluster.shm import SharedInt64, attach_int64
    from repro.cluster.stats import cluster_stats, reset_cluster_stats
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "ClusterPlan",
    "ClusterTask",
    "build_plan",
    "get_plan",
    "ClusterPool",
    "run_cluster_task",
    "get_default_pool",
    "set_default_procs",
    "ClusterResult",
    "run_plan",
    "cluster_sort",
    "ExternalSortResult",
    "SpillStats",
    "external_sort",
    "FairFrontEnd",
    "TenantQuota",
    "wfq_order",
    "chunk_bounds",
    "merge_partition_cuts",
    "stable_merge_slices",
    "SharedInt64",
    "attach_int64",
    "cf_cluster_backend",
    "cluster_stats",
    "reset_cluster_stats",
]
