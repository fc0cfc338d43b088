"""The ``cf-cluster`` service backend: ``cf-batched`` on the cluster pool.

:func:`~repro.engine.backend.split_batch` cuts the batch into at most
``max(pool.procs, 1)`` contiguous segment ranges, each cut where no
``cf-batched`` tile straddles it, and every range becomes one
``sort_range`` pool task running
:func:`~repro.engine.backend.cf_batched_backend` on its slice.  Once the
input is cut the pieces are independent (Green et al., *Merge Path*):
each range packs into exactly the tiles the whole batch packs into, and
long segments sort alone either way.  Values, counters and launch
counts therefore match ``cf-batched`` bit for bit, inline (one range)
or across spawned processes — the identity the fuzz oracle checks on
the full corpus.  Ranges write disjoint slices of the output.  On a
process pool data travels through two shared-memory blocks; the inline
pool's task gets the input slice and an output view directly, so it
stages nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt

from repro.cluster.pool import ClusterPool, TaskDict, get_default_pool
from repro.cluster.shm import SharedInt64
from repro.config import SortParams
from repro.engine.backend import split_batch, validate_batch
from repro.sim.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> cluster)
    from repro.service.backends import BatchOutcome

__all__ = ["cf_cluster_backend"]


def cf_cluster_backend(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
    pool: ClusterPool | None = None,
) -> "BatchOutcome":
    """Sort a micro-batch with ``cf-batched``, one segment range per pool task."""
    from repro.service.backends import BatchOutcome

    data, bounds = validate_batch("cf-cluster", data, offsets, params, w)
    if not offsets:
        return BatchOutcome(data=data.copy(), counters=Counters(), launches=0)
    if pool is None:
        pool = get_default_pool()
    cuts = split_batch(bounds, params.tile_elements, max(pool.procs, 1))
    tasks: list[TaskDict] = []
    for first, last in zip(cuts, cuts[1:]):
        lo, hi = bounds[first], bounds[last]
        tasks.append(
            {
                "task_id": f"range:{first}",
                "kind": "sort_range",
                "lo": lo,
                "hi": hi,
                "offsets": [b - lo for b in bounds[first:last]],
                "E": params.E,
                "u": params.u,
                "w": w,
            }
        )

    n = len(data)
    if not pool.procs:
        out = np.empty(n, dtype=np.int64)
        for task in tasks:
            task["data"] = data[task["lo"] : task["hi"]]
            task["out"] = out[task["lo"] : task["hi"]]
        results = pool.run(tasks)
    else:
        with SharedInt64(n) as shm_in, SharedInt64(n) as shm_out:
            shm_in.fill_from(data)
            for task in tasks:
                task.update(shm=shm_in.name, out_shm=shm_out.name, n=n)
            results = pool.run(tasks)
            out = shm_out.array.copy()

    total = Counters()
    for result in results:
        total.merge(Counters(**result["counters"]))
    launches = sum(result["launches"] for result in results)
    return BatchOutcome(data=out, counters=total, launches=launches)
