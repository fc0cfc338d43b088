"""The multi-process worker pool executing cluster plan tasks.

Tasks are plain dictionaries (spawn-picklable by construction) naming a
``kind`` plus integer/string parameters; payload data travels through
:mod:`repro.cluster.shm` blocks referenced by name, never through the
pickle channel.  An inline ``sort_range`` task, which never leaves the
driver, carries the driver's input slice and output view instead.
:func:`run_cluster_task` — a module-level function so the ``spawn``
start method can import it — executes one task and returns
a plain-dictionary result: simulator counters as plain dicts, launch
counts, and *span records* ``(name, args)`` the driver replays into its
tracer in deterministic task order (cross-process span propagation on
the logical clock, without sharing a clock).  There are three kinds:
``sort_chunk`` sorts one chunk of a cluster plan through a registered
backend, ``merge_slice`` merges one Merge-Path partition of the plan's
sorted runs, and ``sort_range`` sorts one segment range of a
``cf-cluster`` batch with ``cf-batched``.

:class:`ClusterPool` runs a task list either **inline** (``procs=0``,
a plain loop in the driver — the reference path) or across ``procs``
spawn-started worker processes via ``ProcessPoolExecutor.map``, which
preserves submission order.  A worker process that dies breaks the
executor; the pool then respawns its workers and reruns the batch once.
Every task is a pure function of its dictionary plus shared-memory
contents (or, inline, the driver's arrays), and tasks in one batch write
disjoint output ranges, so both paths produce byte-identical results —
the property the fuzz oracle and the CI double-run gate pin down.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.cluster.partition import stable_merge_slices
from repro.cluster.shm import attach_int64
from repro.cluster.stats import CLUSTER
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


def _sort_slice(
    task: TaskDict,
    sort: Callable[..., Any],
    offsets: list[int],
    span: tuple[str, dict[str, Any]],
) -> TaskDict:
    """Sort ``[lo, hi)`` of the input block into the output block.

    An inline task may carry the driver's own input slice and output
    view (``data`` and ``out``) instead of shared-memory block names.
    """
    if "data" in task:
        return _sort_into(task, sort, offsets, span, task["data"], task["out"])
    lo, hi = task["lo"], task["hi"]
    handle, data = attach_int64(task["shm"], task["n"])
    out_handle, out = attach_int64(task["out_shm"], task["n"])
    try:
        return _sort_into(task, sort, offsets, span, np.array(data[lo:hi]), out[lo:hi])
    finally:
        handle.close()
        out_handle.close()


def _sort_into(
    task: TaskDict,
    sort: Callable[..., Any],
    offsets: list[int],
    span: tuple[str, dict[str, Any]],
    data: IntArray,
    out: IntArray,
) -> TaskDict:
    """Sort ``data`` through ``sort`` and write the result into ``out``."""
    outcome = sort(data, offsets, SortParams(E=task["E"], u=task["u"]), task["w"])
    out[:] = outcome.data
    return {
        "task_id": task["task_id"],
        "counters": outcome.counters.as_dict(),
        "launches": outcome.launches,
        "spans": [span],
    }


def _sort_chunk(task: TaskDict) -> TaskDict:
    """Sort one chunk of the input through a registered service backend."""
    from repro.service.backends import get_backend

    span = {"lo": task["lo"], "hi": task["hi"], "backend": task["backend"]}
    return _sort_slice(
        task, get_backend(task["backend"]), [0], ("cluster.sort_chunk", span)
    )


def _sort_range(task: TaskDict) -> TaskDict:
    """Sort one segment range of a ``cf-cluster`` batch with ``cf-batched``.

    The function itself, not the registry entry, so a wrapped
    ``cf-batched`` registration never runs inside a ``cf-cluster`` call.
    """
    from repro.engine.backend import cf_batched_backend

    span = {"lo": task["lo"], "hi": task["hi"], "segments": len(task["offsets"])}
    return _sort_slice(
        task, cf_batched_backend, task["offsets"], ("cluster.sort_range", span)
    )


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
        out_lo, out_hi = task["out_lo"], task["out_hi"]
        out[out_lo:out_hi] = stable_merge_slices(slices)
        return {
            "task_id": task["task_id"],
            "counters": None,
            "launches": 0,
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


_TASK_KINDS = {
    "sort_chunk": _sort_chunk,
    "merge_slice": _merge_slice,
    "sort_range": _sort_range,
}


#: Driver-side fault hook (chaos testing): called once per task before the
#: batch runs; raising :class:`~repro.errors.WorkerCrashed` simulates a
#: worker process dying, exercising the pool's restart path.
_FAULT_LOCK = threading.Lock()
_FAULT_HOOK: Callable[[TaskDict], None] | None = None


def install_fault_hook(hook: Callable[[TaskDict], None]) -> None:
    """Install a driver-side per-task fault hook (chaos campaigns).

    The hook runs in the driver process on each task of a batch before
    the batch runs; raising :class:`~repro.errors.WorkerCrashed` from it
    makes :meth:`ClusterPool.run` record a restart and tear down its
    worker executor, which the batch then respawns.  Exactly one hook
    can be active at a time; always pair with :func:`clear_fault_hook`
    (``try``/``finally``).
    """
    global _FAULT_HOOK
    with _FAULT_LOCK:
        _FAULT_HOOK = hook


def clear_fault_hook() -> None:
    """Remove any installed fault hook."""
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

        An installed chaos fault hook (:func:`install_fault_hook`) sees
        every task first, and each crash it injects costs one restart.
        Then the inline loop or one ``map`` over the workers runs the
        batch.  A worker process that really dies costs one restart and
        one exact rerun, so results stay byte-identical to a fault-free
        run either way.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        hook = _fault_hook()
        if hook is not None:
            for task in tasks:
                try:
                    hook(task)
                except WorkerCrashed:
                    self._restart()
        if self.procs == 0:
            results = [run_cluster_task(t) for t in tasks]
            CLUSTER.add(tasks_executed=len(tasks), tasks_inline=len(tasks))
            return results
        try:
            results = list(self._processes().map(run_cluster_task, tasks))
        except BrokenProcessPool:
            # A worker process died (killed, out of memory): respawn the
            # workers and rerun the batch once.  Tasks are pure and write
            # disjoint ranges, so the rerun is exact.
            self._restart()
            results = list(self._processes().map(run_cluster_task, tasks))
        CLUSTER.add(tasks_executed=len(tasks), tasks_process=len(tasks))
        return results

    def _processes(self) -> ProcessPoolExecutor:
        """The worker executor, spawned on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.procs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._executor

    def _restart(self) -> None:
        """Record a worker crash and drop the executor (respawned on next use)."""
        CLUSTER.add(worker_restarts=1)
        self.close()

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
