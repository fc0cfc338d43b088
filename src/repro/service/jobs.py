"""Running one micro-batch: a direct backend call, or a cached runner job.

:func:`run_batch` is how every caller executes a
:class:`~repro.service.batching.MicroBatch`.  Without a
:class:`~repro.runner.cache.ResultCache` it makes one backend call on the
concatenated request arrays and the batch's segment offsets — the live
:class:`~repro.service.service.SortService`, ``run_synchronous`` and the
uncached replayer all go this way, so a batch costs only its backend.

With a cache, the batch becomes one :class:`~repro.runner.TileJob` of
kind ``"service_batch"`` (:func:`batch_job`) whose parameters *are* the
batch content (values, segment lengths, backend, sort geometry), run
through :func:`repro.runner.executor.execute` and rebuilt by
:func:`decode_outcome`.  Two identical batches then hit the same cache
entry, so repeated traffic is deduplicated at the launch level.  Both
paths return the same data, counters and launches.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.config import SortParams
from repro.errors import ParameterError
from repro.runner.cache import ResultCache
from repro.runner.executor import ExecutionStats, execute
from repro.runner.measure import counters_from
from repro.runner.spec import TileJob, make_job
from repro.service.backends import BatchOutcome, get_backend
from repro.service.batching import MicroBatch

__all__ = ["batch_job", "service_batch_tile", "run_batch", "decode_outcome"]


def batch_job(batch: MicroBatch, params: SortParams, w: int) -> TileJob:
    """Encode ``batch`` as a hashable, cacheable ``service_batch`` job."""
    values: list[int] = []
    lengths: list[int] = []
    for request in batch.requests:
        values.extend(int(v) for v in request.data.tolist())
        lengths.append(request.elements)
    return make_job(
        "service_batch",
        values=tuple(values),
        lengths=tuple(lengths),
        backend=batch.backend,
        E=params.E,
        u=params.u,
        w=w,
    )


def service_batch_tile(job_params: dict[str, Any]) -> dict[str, Any]:
    """The ``service_batch`` tile worker: sort one encoded micro-batch.

    Pure function of the job parameters (the runner's caching contract):
    decodes the concatenated values/lengths, dispatches to the named
    backend, and returns the segment-wise sorted data plus the launch's
    counters as plain JSON.  Only the cached path of :func:`run_batch`
    reaches it.
    """
    values = job_params["values"]
    lengths = job_params["lengths"]
    if not isinstance(values, tuple) or not isinstance(lengths, tuple):
        raise ParameterError("service_batch job needs tuple 'values' and 'lengths'")
    data = np.asarray([int(v) for v in values], dtype=np.int64)
    offsets: list[int] = []
    pos = 0
    for length in lengths:
        offsets.append(pos)
        pos += int(length)
    if pos != len(data):
        raise ParameterError(f"segment lengths sum to {pos}, but {len(data)} values given")
    backend = get_backend(str(job_params["backend"]))
    params = SortParams(int(job_params["E"]), int(job_params["u"]))
    outcome = backend(data, offsets, params, int(job_params["w"]))
    return {
        "data": [int(v) for v in outcome.data.tolist()],
        "counters": outcome.counters.as_dict(),
        "launches": int(outcome.launches),
    }


def decode_outcome(result: dict[str, Any]) -> BatchOutcome:
    """Rebuild a :class:`BatchOutcome` from a (possibly cached) job result."""
    data: npt.NDArray[np.int64] = np.asarray(result["data"], dtype=np.int64)
    counters = counters_from({str(k): int(v) for k, v in result["counters"].items()})
    return BatchOutcome(data=data, counters=counters, launches=int(result["launches"]))


def run_batch(
    batch: MicroBatch,
    params: SortParams,
    w: int,
    cache: ResultCache | None = None,
) -> tuple[BatchOutcome, ExecutionStats]:
    """Sort one micro-batch: one backend call, or a cached runner job.

    Without ``cache`` the batch's backend sorts the concatenated request
    arrays directly; the stats then read one job, one miss.  With
    ``cache`` the batch runs in-process (``workers=1`` — shard threads
    provide the service's parallelism) as a ``service_batch`` job through
    :func:`repro.runner.executor.execute`, so identical batches share one
    cache entry.
    """
    if cache is not None:
        job = batch_job(batch, params, w)
        results, stats = execute([job], cache=cache, workers=1)
        return decode_outcome(results[0]), stats
    start = time.perf_counter()
    arrays = [request.data for request in batch.requests]
    data = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    outcome = get_backend(batch.backend)(data, batch.offsets, params, w)
    stats = ExecutionStats(total=1, misses=1, wall_s=time.perf_counter() - start)
    return outcome, stats
