"""repro.engine — plan-cached, cross-tile batched execution.

Two ideas, composed:

* **Plan cache** (:mod:`repro.engine.plans`): CF-Merge's schedules,
  permutations and networks are pure functions of ``(n, E, w, d)`` —
  compute them once, freeze them as write-protected NumPy index arrays,
  reuse them everywhere (LRU, thread-safe, hit/miss counters exported
  to Prometheus).
* **Batched lane** (:mod:`repro.engine.batch`, :mod:`repro.engine.lane`):
  stack same-shape tiles into ``(tiles, lane)`` matrices and run every
  warp-synchronous round as one vectorized pass, with per-tile
  shared-memory counters bit-identical to the lockstep simulator.  It is
  the repo's only vectorized counting engine: single-tile callers pass
  one-element lists.

The ``cf-batched`` service backend (:mod:`repro.engine.backend`) and the
default ``perf.throughput`` sampling executor are built on both.
"""

from repro.engine.batch import (
    BatchCounters,
    batched_blocksort_phases,
    batched_blocksort_profile,
    batched_cf_merge_profile,
    batched_kway_merge_profile,
    batched_pointer_merge_profile,
    batched_search_profile,
    batched_serial_merge_profile,
    kway_gather_addresses,
    kway_thread_cuts,
    odd_even_sort_rows,
    pad_and_stack,
)
from repro.engine.lane import (
    EngineStats,
    profile_blocksorts,
    profile_cf_merges,
    profile_kway_merges,
    profile_searches,
    profile_serial_merges,
)
from repro.engine.plans import (
    PLAN_CACHE,
    PLAN_KINDS,
    Plan,
    PlanCache,
    PlanKey,
    get_plan,
    plan_cache_stats,
)

__all__ = [
    "BatchCounters",
    "batched_blocksort_phases",
    "batched_blocksort_profile",
    "batched_cf_merge_profile",
    "batched_kway_merge_profile",
    "batched_pointer_merge_profile",
    "batched_search_profile",
    "batched_serial_merge_profile",
    "kway_gather_addresses",
    "kway_thread_cuts",
    "odd_even_sort_rows",
    "pad_and_stack",
    "EngineStats",
    "profile_blocksorts",
    "profile_cf_merges",
    "profile_kway_merges",
    "profile_searches",
    "profile_serial_merges",
    "PLAN_CACHE",
    "PLAN_KINDS",
    "Plan",
    "PlanCache",
    "PlanKey",
    "get_plan",
    "plan_cache_stats",
]
