"""The partition-wise planner: a sort request compiled to a task DAG.

:func:`build_plan` compiles ``(n, chunk, parts, backend, ...)`` into a
deterministic :class:`ClusterPlan`: one ``sort_chunk`` task per
contiguous chunk (stage 1 — any registered service backend sorts it into
a run) and ``parts`` ``merge_slice`` tasks (stage 2 — each merges one
Merge-Path partition of the k-way merge of all runs; every stage-2 task
depends on every stage-1 task, nothing else).  The co-rank *cuts*
themselves are data-dependent, so they are resolved at execution time by
:func:`repro.cluster.partition.merge_partition_cuts`; the plan is a pure
function of its parameters, which is what makes it shareable.

Plans are content-keyed like the engine's schedule plans: the key is the
SHA-256 of the canonical parameter JSON, so equal requests — in this
process, in a pool worker, or in a different driver entirely — derive
byte-identical plans and the same key.  A small process-local LRU
(:func:`get_plan`) makes repeat requests free; its hit/miss counts feed
:func:`repro.cluster.stats.cluster_stats`.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.partition import chunk_bounds
from repro.cluster.stats import CLUSTER

__all__ = ["ClusterTask", "ClusterPlan", "build_plan", "get_plan"]


@dataclass(frozen=True)
class ClusterTask:
    """One node of the plan DAG (pure parameters, no payload)."""

    #: Stable identifier, unique within the plan (``sort:3``, ``merge:0``).
    task_id: str
    #: ``"sort_chunk"`` or ``"merge_slice"``.
    kind: str
    #: ``task_id``\ s that must complete before this task may run.
    depends: tuple[str, ...]
    #: Task-kind-specific integer parameters, sorted by name.
    params: tuple[tuple[str, int], ...]

    def params_dict(self) -> dict[str, int]:
        """The parameters as a plain dictionary."""
        return dict(self.params)


@dataclass(frozen=True)
class ClusterPlan:
    """A compiled, deterministic partition-wise execution plan."""

    n: int
    chunk: int
    parts: int
    backend: str
    E: int
    u: int
    w: int
    #: Stage-1 then stage-2 tasks, in execution (and replay) order.
    tasks: tuple[ClusterTask, ...]
    #: Content key: SHA-256 of the canonical parameter JSON.
    key: str

    @property
    def sort_tasks(self) -> tuple[ClusterTask, ...]:
        """The stage-1 ``sort_chunk`` tasks, in chunk order."""
        return tuple(t for t in self.tasks if t.kind == "sort_chunk")

    @property
    def merge_tasks(self) -> tuple[ClusterTask, ...]:
        """The stage-2 ``merge_slice`` tasks, in partition order."""
        return tuple(t for t in self.tasks if t.kind == "merge_slice")


def plan_key(n: int, chunk: int, parts: int, backend: str, E: int, u: int, w: int) -> str:
    """The content key equal parameter sets share, across processes.

    The key still names the one merge mode, ``"numpy"``, so keys match
    those recorded in ``benchmarks/BASELINE.json``.
    """
    blob = json.dumps(
        {
            "backend": backend,
            "chunk": chunk,
            "merge": "numpy",
            "n": n,
            "parts": parts,
            "E": E,
            "u": u,
            "w": w,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def build_plan(
    n: int,
    chunk: int,
    parts: int,
    backend: str = "cf-batched",
    E: int = 5,
    u: int = 32,
    w: int = 8,
) -> ClusterPlan:
    """Compile a sort request into a deterministic task DAG.

    ``n == 0`` compiles to an empty (but well-formed) plan: no sort
    tasks, no merge tasks.  A single chunk still gets a merge stage only
    when ``parts > 1`` would split it; with one chunk and one partition
    the single run *is* the output and stage 2 degenerates to one
    pass-through slice, kept for uniformity.
    """
    bounds = chunk_bounds(n, chunk)
    tasks: list[ClusterTask] = []
    sort_ids: list[str] = []
    for index, (lo, hi) in enumerate(bounds):
        task_id = f"sort:{index}"
        sort_ids.append(task_id)
        tasks.append(
            ClusterTask(
                task_id=task_id,
                kind="sort_chunk",
                depends=(),
                params=(("hi", hi), ("index", index), ("lo", lo)),
            )
        )
    if bounds:
        for part in range(parts):
            tasks.append(
                ClusterTask(
                    task_id=f"merge:{part}",
                    kind="merge_slice",
                    depends=tuple(sort_ids),
                    params=(("part", part), ("parts", parts)),
                )
            )
    return ClusterPlan(
        n=n,
        chunk=chunk,
        parts=parts,
        backend=backend,
        E=E,
        u=u,
        w=w,
        tasks=tuple(tasks),
        key=plan_key(n, chunk, parts, backend, E, u, w),
    )


_CACHE_LOCK = threading.Lock()
_CACHE: OrderedDict[str, ClusterPlan] = OrderedDict()
_CACHE_CAPACITY = 128


def get_plan(
    n: int,
    chunk: int,
    parts: int,
    backend: str = "cf-batched",
    E: int = 5,
    u: int = 32,
    w: int = 8,
) -> ClusterPlan:
    """The LRU-cached :func:`build_plan` (plans are immutable, sharing is safe)."""
    key = plan_key(n, chunk, parts, backend, E, u, w)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
    if cached is not None:
        CLUSTER.add(plan_cache_hits=1)
        return cached
    CLUSTER.add(plans_built=1)
    plan = build_plan(n, chunk, parts, backend, E, u, w)
    with _CACHE_LOCK:
        _CACHE[key] = plan
        _CACHE.move_to_end(key)
        while len(_CACHE) > _CACHE_CAPACITY:
            _CACHE.popitem(last=False)
    return plan
