"""Process-wide cluster counters: tasks, shared memory, spill traffic.

The cluster layer executes work in places the service's per-instance
:class:`~repro.service.metrics.ServiceMetrics` cannot see — pool worker
processes, external-sort run files on disk — so, like the engine's plan
cache, it aggregates into one module-level :class:`CounterSet` that the
service metrics snapshot (schema 3) and the Prometheus exposition read
via :func:`cluster_stats`.  Workers report their own numbers back to the
driver (plain dictionaries over the pool's result channel), and the
driver folds them in here, so the totals are complete even when all
heavy lifting happened in child processes.
"""

from __future__ import annotations

from repro.telemetry.stats import CounterSet

__all__ = ["CLUSTER", "cluster_stats", "reset_cluster_stats"]

#: Pool tasks (inline or cross-process), shared-memory bytes, plan-cache
#: requests, external-sort spill/readback traffic and worker restarts.
CLUSTER = CounterSet(
    "tasks_executed",
    "tasks_inline",
    "tasks_process",
    "shm_bytes_shared",
    "plans_built",
    "plan_cache_hits",
    "runs_written",
    "keys_spilled",
    "bytes_spilled",
    "keys_read_back",
    "bytes_read_back",
    "merge_rounds",
    "peak_resident_keys",
    "worker_restarts",
    peaks=("peak_resident_keys",),
)


def cluster_stats() -> dict[str, int]:
    """A copy of the process-wide cluster counters (JSON-serializable)."""
    return CLUSTER.snapshot()


def reset_cluster_stats() -> None:
    """Zero every counter (test isolation hook)."""
    CLUSTER.reset()
