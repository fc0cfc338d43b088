"""The ``cf-cluster`` service backend: the batched engine lane, sharded.

Byte-identical to :func:`repro.engine.backend.cf_batched_backend` by
construction — the same :func:`~repro.engine.backend.validate_batch`,
first-fit :func:`~repro.engine.backend.pack_tiles` packing, per-tile
profile and :func:`~repro.mergesort.segmented.unpack_segments` — but the
two heavy phases execute as pool tasks instead of driver loops:

* each **long segment** (> one tile) becomes a ``pipeline_segment`` task
  (the batched pipeline, ``batched_mergesort``, exactly the
  single-process long path);
* the packed tile matrix is staged into shared memory and profiled/
  sorted by ``blocksort_rows`` tasks over fixed row blocks.

Tasks write disjoint shared-memory ranges and per-tile counters are
summed in tile order (integer sums commute anyway), so values, counters,
and launch counts match ``cf-batched`` bit for bit whether the pool runs
inline or across spawned processes — the identity the fuzz oracle checks
on the full corpus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt

from repro.cluster.pool import ClusterPool, TaskDict, get_default_pool
from repro.cluster.shm import SharedInt64
from repro.config import SortParams
from repro.engine.backend import pack_tiles, validate_batch
from repro.mergesort.segmented import unpack_segments
from repro.sim.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> cluster)
    from repro.service.backends import BatchOutcome

__all__ = ["cf_cluster_backend", "ROWS_PER_TASK"]

#: Packed tile rows one ``blocksort_rows`` task covers.  Fixed (not
#: pool-width dependent) so the task list — and the CLUSTER_REPORT built
#: from it — is a pure function of the input.
ROWS_PER_TASK = 4


def cf_cluster_backend(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
    pool: ClusterPool | None = None,
) -> "BatchOutcome":
    """Sort a micro-batch through the batched CF lane, as pool tasks."""
    from repro.service.backends import BatchOutcome

    E, u = params.E, params.u
    tile = u * E
    data, bounds = validate_batch("cf-cluster", data, offsets, params, w)

    out = data.copy()
    total = Counters()
    launches = 0
    if not offsets:
        return BatchOutcome(data=out, counters=total, launches=0)
    if pool is None:
        pool = get_default_pool()

    short: list[tuple[int, int]] = []
    long: list[tuple[int, int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        (short if hi - lo <= tile else long).append((lo, hi))

    tiles: list[list[tuple[int, int]]] = []
    packed = np.empty((0, tile), dtype=np.int64)
    if short:
        tiles, packed = pack_tiles(data, short, tile)

    n = len(data)
    n_rows = len(tiles)
    with SharedInt64(n) as shm_in, SharedInt64(n) as shm_out, SharedInt64(
        n_rows * tile
    ) as shm_packed:
        shm_in.fill_from(data)
        if n:
            shm_out.fill_from(out)
        if n_rows:
            shm_packed.array[:] = packed.ravel()
        tasks: list[TaskDict] = []
        for index, (lo, hi) in enumerate(long):
            tasks.append(
                {
                    "task_id": f"pipeline:{index}",
                    "kind": "pipeline_segment",
                    "shm": shm_in.name,
                    "out_shm": shm_out.name,
                    "n": n,
                    "lo": lo,
                    "hi": hi,
                    "E": E,
                    "u": u,
                    "w": w,
                    "variant": "cf",
                }
            )
        for row_lo in range(0, n_rows, ROWS_PER_TASK):
            tasks.append(
                {
                    "task_id": f"rows:{row_lo}",
                    "kind": "blocksort_rows",
                    "shm": shm_packed.name,
                    "rows": n_rows,
                    "tile": tile,
                    "row_lo": row_lo,
                    "row_hi": min(row_lo + ROWS_PER_TASK, n_rows),
                    "E": E,
                    "w": w,
                    "variant": "cf",
                }
            )
        results = pool.run(tasks)

        segment_results = results[: len(long)]
        row_results = results[len(long) :]
        out_view = shm_out.array
        for (lo, hi), result in zip(long, segment_results):
            total.merge(Counters(**result["counters"]))
            launches += result["launches"]
            out[lo:hi] = out_view[lo:hi]
        for result in row_results:
            for row_counters in result["counters_rows"]:
                total.merge(Counters(**row_counters))
            launches += result["launches"]
        if n_rows:
            sorted_tiles = shm_packed.array.reshape(n_rows, tile).copy()

    if n_rows:
        unpack_segments(out, sorted_tiles, tiles)
    return BatchOutcome(data=out, counters=total, launches=launches)
