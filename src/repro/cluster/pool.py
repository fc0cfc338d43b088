"""The multi-process worker pool executing cluster plan tasks.

Tasks are plain dictionaries (spawn-picklable by construction) naming a
``kind`` plus integer/string parameters; payload data travels through
:mod:`repro.cluster.shm` blocks referenced by name, never through the
pickle channel.  :func:`run_cluster_task` — a module-level function so
the ``spawn`` start method can import it — executes one task and returns
a plain-dictionary result: simulator counters as plain dicts, launch
counts, and *span records* ``(name, args)`` the driver replays into its
tracer in deterministic task order (cross-process span propagation on
the logical clock, without sharing a clock).

:class:`ClusterPool` runs a task list either **inline** (``procs=0``,
a plain loop in the driver — the reference path) or across ``procs``
spawn-started worker processes via ``ProcessPoolExecutor.map``, which
preserves submission order.  Every task is a pure function of its
dictionary plus shared-memory contents, and tasks in one batch write
disjoint output ranges, so both paths produce byte-identical results —
the property the fuzz oracle and the CI double-run gate pin down.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.cluster.partition import stable_merge_slices
from repro.cluster.shm import attach_int64
from repro.cluster.stats import record_tasks, record_worker_restart
from repro.config import SortParams
from repro.errors import ParameterError, WorkerCrashed

__all__ = [
    "TaskDict",
    "run_cluster_task",
    "ClusterPool",
    "set_default_procs",
    "get_default_pool",
    "default_procs",
    "install_fault_hook",
    "clear_fault_hook",
]

#: A pool task or task result: plain JSON-ish dictionary, spawn-picklable.
TaskDict = dict[str, Any]

IntArray = npt.NDArray[np.int64]


def _sort_chunk(task: TaskDict) -> TaskDict:
    """Sort one chunk of the input through a registered service backend."""
    from repro.service.backends import get_backend

    lo, hi = task["lo"], task["hi"]
    handle, data = attach_int64(task["shm"], task["n"])
    out_handle, out = attach_int64(task["out_shm"], task["n"])
    try:
        params = SortParams(E=task["E"], u=task["u"])
        outcome = get_backend(task["backend"])(
            np.array(data[lo:hi]), [0], params, task["w"]
        )
        out[lo:hi] = outcome.data
        return {
            "task_id": task["task_id"],
            "counters": outcome.counters.as_dict(),
            "launches": outcome.launches,
            "spans": [
                (
                    "cluster.sort_chunk",
                    {"lo": lo, "hi": hi, "backend": task["backend"]},
                )
            ],
        }
    finally:
        handle.close()
        out_handle.close()


def _merge_slice(task: TaskDict) -> TaskDict:
    """Merge one Merge-Path partition of the k-way merge of sorted runs."""
    handle, runs_buf = attach_int64(task["shm"], task["n"])
    out_handle, out = attach_int64(task["out_shm"], task["n"])
    try:
        slices: list[IntArray] = []
        for (run_lo, _run_hi), cut_lo, cut_hi in zip(
            task["run_bounds"], task["cuts_lo"], task["cuts_hi"]
        ):
            slices.append(np.array(runs_buf[run_lo + cut_lo : run_lo + cut_hi]))
        counters: dict[str, int] | None = None
        launches = 0
        if task["merge"] == "tournament":
            from repro.mergesort.kway import tournament_merge_runs

            merged, stats = tournament_merge_runs(
                slices, task["E"], task["u"], task["w"], variant="cf"
            )
            counters = stats.total.as_dict()
            launches = 1
        else:
            merged = stable_merge_slices(slices)
        out_lo, out_hi = task["out_lo"], task["out_hi"]
        out[out_lo:out_hi] = merged
        return {
            "task_id": task["task_id"],
            "counters": counters,
            "launches": launches,
            "spans": [
                (
                    "cluster.merge_slice",
                    {"out_lo": out_lo, "out_hi": out_hi, "k": len(slices)},
                )
            ],
        }
    finally:
        handle.close()
        out_handle.close()


def _blocksort_rows(task: TaskDict) -> TaskDict:
    """Profile and sort a row range of a packed blocksort tile matrix."""
    from repro.engine.batch import batched_blocksort_profile

    rows, tile = task["rows"], task["tile"]
    handle, flat = attach_int64(task["shm"], rows * tile)
    try:
        matrix = flat.reshape(rows, tile)
        row_lo, row_hi = task["row_lo"], task["row_hi"]
        sub = matrix[row_lo:row_hi]
        per_tile = batched_blocksort_profile(sub, task["E"], task["w"], task["variant"])
        matrix[row_lo:row_hi] = np.sort(sub, axis=1)
        return {
            "task_id": task["task_id"],
            "counters_rows": [c.as_dict() for c in per_tile],
            "launches": row_hi - row_lo,
            "spans": [
                ("cluster.blocksort_rows", {"row_lo": row_lo, "row_hi": row_hi})
            ],
        }
    finally:
        handle.close()


def _pipeline_segment(task: TaskDict) -> TaskDict:
    """Run the batched mergesort pipeline over one long segment."""
    from repro.mergesort.pipeline import batched_mergesort

    lo, hi = task["lo"], task["hi"]
    handle, data = attach_int64(task["shm"], task["n"])
    out_handle, out = attach_int64(task["out_shm"], task["n"])
    try:
        result = batched_mergesort(
            np.array(data[lo:hi]),
            E=task["E"],
            u=task["u"],
            w=task["w"],
            variant=task["variant"],
        )
        out[lo:hi] = result.data
        return {
            "task_id": task["task_id"],
            "counters": result.total_counters.as_dict(),
            "launches": 1,
            "spans": [("cluster.pipeline_segment", {"lo": lo, "hi": hi})],
        }
    finally:
        handle.close()
        out_handle.close()


_TASK_KINDS = {
    "sort_chunk": _sort_chunk,
    "merge_slice": _merge_slice,
    "blocksort_rows": _blocksort_rows,
    "pipeline_segment": _pipeline_segment,
}


#: Driver-side fault hook (chaos testing): called once per task before it
#: is dispatched; raising :class:`~repro.errors.WorkerCrashed` simulates a
#: worker process dying, exercising the pool's restart-and-retry path.
_FAULT_LOCK = threading.Lock()
_FAULT_HOOK: Callable[[TaskDict], None] | None = None


def install_fault_hook(hook: Callable[[TaskDict], None]) -> None:
    """Install a driver-side per-task fault hook (chaos campaigns).

    The hook runs in the driver process immediately before each task is
    dispatched; raising :class:`~repro.errors.WorkerCrashed` from it
    makes :meth:`ClusterPool.run` tear down its worker executor, record
    a restart, and retry the task once on the rebuilt pool.  Exactly one
    hook can be active at a time; always pair with
    :func:`clear_fault_hook` (``try``/``finally``).
    """
    global _FAULT_HOOK
    with _FAULT_LOCK:
        _FAULT_HOOK = hook


def clear_fault_hook() -> None:
    """Remove any installed fault hook (restores the fast pool path)."""
    global _FAULT_HOOK
    with _FAULT_LOCK:
        _FAULT_HOOK = None


def _fault_hook() -> Callable[[TaskDict], None] | None:
    with _FAULT_LOCK:
        return _FAULT_HOOK


def run_cluster_task(task: TaskDict) -> TaskDict:
    """Execute one cluster task (in this process or a spawned worker).

    Module level so the ``spawn`` start method can pickle it by
    reference; the task dictionary carries everything but the payload,
    which lives in the named shared-memory blocks.
    """
    try:
        runner = _TASK_KINDS[task["kind"]]
    except KeyError:
        raise ParameterError(f"unknown cluster task kind {task['kind']!r}") from None
    return runner(task)


class ClusterPool:
    """Runs task batches inline (``procs=0``) or across worker processes.

    Results come back in submission order either way, and both paths are
    byte-identical because tasks are pure functions of (dictionary,
    shared memory) writing disjoint ranges.
    """

    def __init__(self, procs: int = 0) -> None:
        if procs < 0:
            raise ParameterError(f"need procs >= 0, got procs={procs}")
        self.procs = procs
        self._executor: ProcessPoolExecutor | None = None

    def run(self, tasks: Sequence[TaskDict]) -> list[TaskDict]:
        """Execute ``tasks`` and return their results in submission order.

        When a chaos fault hook is installed (:func:`install_fault_hook`)
        tasks take the slower crash-recoverable path; otherwise the
        original inline/process fast paths run unchanged, which is what
        keeps the byte-identity contract intact for normal traffic.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        hook = _fault_hook()
        if hook is not None:
            return self._run_with_faults(tasks, hook)
        if self.procs == 0:
            results = [run_cluster_task(t) for t in tasks]
            record_tasks(len(tasks), inline=True)
            return results
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.procs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        results = list(self._executor.map(run_cluster_task, tasks))
        record_tasks(len(tasks), inline=False)
        return results

    def _run_with_faults(
        self, tasks: list[TaskDict], hook: Callable[[TaskDict], None]
    ) -> list[TaskDict]:
        """Crash-recoverable task loop: one dispatch at a time, retry once.

        The hook fires before each task; a :class:`WorkerCrashed` from it
        simulates the worker executing that task dying.  Recovery tears
        down the process executor (the next dispatch lazily respawns it),
        records the restart, and re-dispatches the same task — tasks are
        pure functions of (dictionary, shared memory), so the retry is
        exact and results stay byte-identical to a fault-free run.
        """
        results: list[TaskDict] = []
        for task in tasks:
            try:
                hook(task)
            except WorkerCrashed:
                record_worker_restart()
                if self._executor is not None:
                    self._executor.shutdown(wait=True)
                    self._executor = None
            results.append(self._dispatch_one(task))
        record_tasks(len(tasks), inline=self.procs == 0)
        return results

    def _dispatch_one(self, task: TaskDict) -> TaskDict:
        """Execute one task on the pool's current path (inline or process)."""
        if self.procs == 0:
            return run_cluster_task(task)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.procs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._executor.submit(run_cluster_task, task).result()

    def close(self) -> None:
        """Shut down the worker processes (no-op for the inline pool)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ClusterPool":
        """Context-manager entry: the pool spawns workers lazily."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the workers down."""
        self.close()


_DEFAULT_LOCK = threading.Lock()
_DEFAULT_PROCS: int | None = None
_DEFAULT_POOL: ClusterPool | None = None


def default_procs() -> int:
    """The process count new default pools use.

    Seeded from ``REPRO_CLUSTER_PROCS`` (unset/invalid → 0, i.e. inline)
    until :func:`set_default_procs` overrides it.
    """
    with _DEFAULT_LOCK:
        global _DEFAULT_PROCS
        if _DEFAULT_PROCS is None:
            try:
                _DEFAULT_PROCS = max(0, int(os.environ.get("REPRO_CLUSTER_PROCS", "0")))
            except ValueError:
                _DEFAULT_PROCS = 0
        return _DEFAULT_PROCS


def set_default_procs(procs: int) -> None:
    """Set the default pool's process count (``serve --workers-procs``).

    Closes any existing default pool so the next
    :func:`get_default_pool` call rebuilds it at the new width.
    """
    if procs < 0:
        raise ParameterError(f"need procs >= 0, got procs={procs}")
    global _DEFAULT_PROCS, _DEFAULT_POOL
    with _DEFAULT_LOCK:
        _DEFAULT_PROCS = procs
        stale = _DEFAULT_POOL
        _DEFAULT_POOL = None
    if stale is not None:
        stale.close()


def get_default_pool() -> ClusterPool:
    """The shared process-wide pool at the default width (built lazily)."""
    procs = default_procs()
    global _DEFAULT_POOL
    with _DEFAULT_LOCK:
        if _DEFAULT_POOL is None or _DEFAULT_POOL.procs != procs:
            _DEFAULT_POOL = ClusterPool(procs)
        return _DEFAULT_POOL
