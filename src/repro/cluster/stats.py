"""Process-wide cluster counters: tasks, shared memory, spill traffic.

The cluster layer executes work in places the service's per-instance
:class:`~repro.service.metrics.ServiceMetrics` cannot see — pool worker
processes, external-sort run files on disk — so, like the engine's plan
cache, it aggregates into one module-level thread-safe accumulator that
the service metrics snapshot (schema 3) and the Prometheus exposition
read via :func:`cluster_stats`.  Workers report their own numbers back
to the driver (plain dictionaries over the pool's result channel), and
the driver folds them in here, so the totals are complete even when all
heavy lifting happened in child processes.
"""

from __future__ import annotations

import threading

__all__ = ["cluster_stats", "record_tasks", "record_shared_bytes", "record_spill",
           "record_plan", "record_worker_restart", "reset_cluster_stats"]

_LOCK = threading.Lock()

_STATE: dict[str, int] = {}


def _zero() -> dict[str, int]:
    return {
        "tasks_executed": 0,
        "tasks_inline": 0,
        "tasks_process": 0,
        "shm_bytes_shared": 0,
        "plans_built": 0,
        "plan_cache_hits": 0,
        "runs_written": 0,
        "keys_spilled": 0,
        "bytes_spilled": 0,
        "keys_read_back": 0,
        "bytes_read_back": 0,
        "merge_rounds": 0,
        "peak_resident_keys": 0,
        "worker_restarts": 0,
    }


_STATE = _zero()


def record_tasks(executed: int, inline: bool) -> None:
    """Fold ``executed`` pool tasks (inline or cross-process) into the totals."""
    with _LOCK:
        _STATE["tasks_executed"] += executed
        if inline:
            _STATE["tasks_inline"] += executed
        else:
            _STATE["tasks_process"] += executed


def record_shared_bytes(nbytes: int) -> None:
    """Fold one shared-memory allocation's size into the totals."""
    with _LOCK:
        _STATE["shm_bytes_shared"] += nbytes


def record_plan(cache_hit: bool) -> None:
    """Note one planner request (``cache_hit`` = served from the plan cache)."""
    with _LOCK:
        if cache_hit:
            _STATE["plan_cache_hits"] += 1
        else:
            _STATE["plans_built"] += 1


def record_spill(
    runs_written: int,
    keys_spilled: int,
    bytes_spilled: int,
    keys_read_back: int,
    bytes_read_back: int,
    merge_rounds: int,
    peak_resident_keys: int,
) -> None:
    """Fold one external sort's spill/readback accounting into the totals."""
    with _LOCK:
        _STATE["runs_written"] += runs_written
        _STATE["keys_spilled"] += keys_spilled
        _STATE["bytes_spilled"] += bytes_spilled
        _STATE["keys_read_back"] += keys_read_back
        _STATE["bytes_read_back"] += bytes_read_back
        _STATE["merge_rounds"] += merge_rounds
        _STATE["peak_resident_keys"] = max(
            _STATE["peak_resident_keys"], peak_resident_keys
        )


def record_worker_restart() -> None:
    """Note one pool worker crash/restart recovery (real or injected)."""
    with _LOCK:
        _STATE["worker_restarts"] += 1


def cluster_stats() -> dict[str, int]:
    """A copy of the process-wide cluster counters (JSON-serializable)."""
    with _LOCK:
        return dict(_STATE)


def reset_cluster_stats() -> None:
    """Zero every counter (test isolation hook)."""
    with _LOCK:
        _STATE.clear()
        _STATE.update(_zero())
