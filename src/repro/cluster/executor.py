"""Drives a :class:`~repro.cluster.plan.ClusterPlan` through the pool.

:func:`run_plan` is the two-stage driver: it stages the input into a
shared-memory block, runs every ``sort_chunk`` task (any registered
service backend, one sorted run per chunk), resolves the Merge-Path
co-rank cuts against the actual run contents (the only data-dependent
step, done once in the driver), then runs the independent
``merge_slice`` tasks, each writing one disjoint range of the output
block.  Counters, launch counts, and span records come back over the
pool's result channel and are folded in **deterministic task order** —
the totals, the output array, and the replayed trace are byte-identical
whether the pool ran inline or across spawned processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.cluster.partition import merge_partition_cuts
from repro.cluster.plan import ClusterPlan
from repro.cluster.pool import ClusterPool, TaskDict, get_default_pool
from repro.cluster.shm import SharedInt64
from repro.errors import ParameterError
from repro.sim.counters import Counters
from repro.telemetry.spans import NULL_TRACER, Tracer

__all__ = ["ClusterResult", "run_plan", "cluster_sort"]

IntArray = npt.NDArray[np.int64]


@dataclass
class ClusterResult:
    """What one partition-wise plan execution produced."""

    #: The fully sorted output (same length as the input).
    data: IntArray
    #: Simulator counters aggregated over every task, in task order.
    counters: Counters
    #: Simulated kernel launches across all tasks.
    launches: int
    #: The plan that was executed (carries the content key).
    plan: ClusterPlan
    #: Per-task result dictionaries, in plan task order.
    task_results: list[TaskDict] = field(default_factory=list)


def _replay_spans(
    tracer: Tracer, plan: ClusterPlan, results: list[TaskDict]
) -> None:
    """Replay worker span records into the driver's tracer, in task order.

    Workers cannot share the driver's logical clock, so they ship span
    *records* home and the driver re-creates them under one
    ``cluster.plan`` root — same records, same order, same ticks on
    every run, whether tasks ran inline or in child processes.
    """
    if not tracer.enabled:
        return
    with tracer.span(
        "cluster.plan", category="cluster", args={"key": plan.key, "n": plan.n}
    ):
        for result in results:
            for name, args in result["spans"]:
                with tracer.span(name, category="cluster", args=dict(args)):
                    pass


def run_plan(
    data: IntArray,
    plan: ClusterPlan,
    pool: ClusterPool | None = None,
    tracer: Tracer = NULL_TRACER,
) -> ClusterResult:
    """Execute ``plan`` over ``data`` and return the sorted result.

    ``pool=None`` uses the process-wide default pool
    (:func:`repro.cluster.pool.get_default_pool`); an explicit pool lets
    callers pin the inline reference path or a specific process count.
    """
    data = np.asarray(data, dtype=np.int64)
    if data.ndim != 1:
        raise ParameterError("data must be one-dimensional")
    if len(data) != plan.n:
        raise ParameterError(f"plan compiled for n={plan.n}, got {len(data)} keys")
    if pool is None:
        pool = get_default_pool()
    n = plan.n
    if n == 0:
        _replay_spans(tracer, plan, [])
        return ClusterResult(
            data=np.empty(0, dtype=np.int64),
            counters=Counters(),
            launches=0,
            plan=plan,
        )

    total = Counters()
    launches = 0
    results: list[TaskDict] = []
    with SharedInt64(n) as shm_in, SharedInt64(n) as shm_runs, SharedInt64(n) as shm_out:
        shm_in.fill_from(data)
        sort_tasks: list[TaskDict] = []
        run_bounds: list[tuple[int, int]] = []
        for task in plan.sort_tasks:
            params = task.params_dict()
            run_bounds.append((params["lo"], params["hi"]))
            sort_tasks.append(
                {
                    "task_id": task.task_id,
                    "kind": "sort_chunk",
                    "shm": shm_in.name,
                    "out_shm": shm_runs.name,
                    "n": n,
                    "lo": params["lo"],
                    "hi": params["hi"],
                    "backend": plan.backend,
                    "E": plan.E,
                    "u": plan.u,
                    "w": plan.w,
                }
            )
        for result in pool.run(sort_tasks):
            results.append(result)
            if result["counters"] is not None:
                total.merge(Counters(**result["counters"]))
            launches += result["launches"]

        runs_view = shm_runs.array
        runs = [np.array(runs_view[lo:hi]) for lo, hi in run_bounds]
        cuts = merge_partition_cuts(runs, plan.parts)
        merge_tasks: list[TaskDict] = []
        for task in plan.merge_tasks:
            part = task.params_dict()["part"]
            merge_tasks.append(
                {
                    "task_id": task.task_id,
                    "kind": "merge_slice",
                    "shm": shm_runs.name,
                    "out_shm": shm_out.name,
                    "n": n,
                    "run_bounds": run_bounds,
                    "cuts_lo": cuts[part],
                    "cuts_hi": cuts[part + 1],
                    "out_lo": (part * n) // plan.parts,
                    "out_hi": ((part + 1) * n) // plan.parts,
                }
            )
        for result in pool.run(merge_tasks):
            results.append(result)
            if result["counters"] is not None:
                total.merge(Counters(**result["counters"]))
            launches += result["launches"]
        out = np.array(shm_out.array)

    _replay_spans(tracer, plan, results)
    return ClusterResult(
        data=out, counters=total, launches=launches, plan=plan, task_results=results
    )


def cluster_sort(
    data: IntArray,
    chunk: int,
    parts: int,
    backend: str = "cf-batched",
    E: int = 5,
    u: int = 32,
    w: int = 8,
    pool: ClusterPool | None = None,
    tracer: Tracer = NULL_TRACER,
) -> ClusterResult:
    """Plan and execute a partition-wise cluster sort in one call."""
    from repro.cluster.plan import get_plan

    data = np.asarray(data, dtype=np.int64)
    if data.ndim != 1:
        raise ParameterError("data must be one-dimensional")
    plan = get_plan(len(data), chunk, parts, backend, E, u, w)
    return run_plan(data, plan, pool=pool, tracer=tracer)
