"""The service's sort-backend registry.

A *backend* turns one coalesced micro-batch — the concatenation of many
small requests plus their segment offsets — into the segment-wise sorted
concatenation, reporting simulator counters for the launch.  Seven ship
by default:

``cf``
    CF-Merge (the paper's conflict-free variant) through
    :func:`repro.mergesort.segmented.segmented_sort` — zero merge-phase
    bank conflicts for every input, so service latency is
    input-independent.  Short segments are packed into one lockstep
    pipeline sort; each segment longer than a tile runs through the
    batched pipeline, with counters equal to the lockstep simulator's on
    every field.
``cf-batched``
    The batched engine lane (:mod:`repro.engine.backend`): short
    segments are packed into independent blocksort tiles and the whole
    micro-batch is profiled/sorted in one vectorized pass, with per-tile
    counters bit-identical to the lockstep simulator's blocksort; each
    segment longer than a tile runs through the batched pipeline.
``cf-cluster``
    The batched engine lane sharded through the cluster worker pool
    (:mod:`repro.cluster.service`): long segments (batched pipeline) and
    packed tile rows execute as pool tasks over shared memory,
    byte-identical to ``cf-batched`` whether the pool runs inline or
    across processes.
``kway``
    The k-way CF pipeline (:func:`repro.mergesort.kway.kway_sort`,
    fan-in 4): ``log_k`` merge levels instead of ``log_2``, staged
    conflict-free gather schedule per segment.
``samplesort``
    Deterministic sample sort (:func:`repro.mergesort.samplesort.sample_sort`):
    single partition pass over blocksorted tiles, per-bucket blocksort,
    k-way fallback for oversized buckets.
``baseline``
    The Thrust-style serial shared-memory merge (variant ``"thrust"``)
    through the same segmented sort, vulnerable to the Section 4
    adversary.
``numpy``
    ``numpy.sort`` per segment: the pure-host reference oracle.  It
    reports zero simulator counters (nothing is simulated), so it serves
    as the correctness baseline the two simulated backends are checked
    against, not as a cost datapoint.

The registry is open: :func:`register_backend` lets experiments plug in
new variants without touching the scheduler or the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.config import SortParams
from repro.errors import ParameterError
from repro.mergesort.segmented import segmented_sort
from repro.sim.counters import Counters

__all__ = [
    "BatchOutcome",
    "SortBackend",
    "DEFAULT_BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
]


@dataclass
class BatchOutcome:
    """What one backend launch produced for one micro-batch."""

    #: Segment-wise sorted concatenation (same length/order as the input).
    data: npt.NDArray[np.int64]
    #: Aggregated simulator counters for the whole launch.
    counters: Counters
    #: Simulated kernel launches the batch cost (for the cost model).
    launches: int = 1


#: A backend: ``(concatenated data, segment offsets, params, w) -> outcome``.
SortBackend = Callable[
    [npt.NDArray[np.int64], Sequence[int], SortParams, int], BatchOutcome
]


def _simulated_backend(variant: str) -> SortBackend:
    """Build a backend running the segmented sort ``variant``."""

    def run(
        data: npt.NDArray[np.int64],
        offsets: Sequence[int],
        params: SortParams,
        w: int,
    ) -> BatchOutcome:
        """Sort each segment with ``segmented_sort``; return counters."""
        out, counters = segmented_sort(
            data, list(offsets), E=params.E, u=params.u, w=w, variant=variant
        )
        return BatchOutcome(data=out, counters=counters)

    run.__name__ = f"{variant}_backend"
    return run


def _numpy_backend(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> BatchOutcome:
    """Sort each segment with ``numpy.sort`` (host reference, no counters)."""
    out = data.copy()
    bounds = list(offsets) + [len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = np.sort(data[lo:hi])
    return BatchOutcome(data=out, counters=Counters(), launches=0)


def _cf_batched(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> BatchOutcome:
    """Sort the micro-batch through the batched engine lane."""
    from repro.engine.backend import cf_batched_backend

    return cf_batched_backend(data, offsets, params, w)


def _cf_cluster(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> BatchOutcome:
    """Sort the micro-batch through the cluster-sharded engine lane."""
    from repro.cluster.service import cf_cluster_backend

    return cf_cluster_backend(data, offsets, params, w)


#: Fan-in the ``kway`` backend merges with.
KWAY_BACKEND_FANIN = 4


def _kway_backend(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> BatchOutcome:
    """Sort each segment with the k-way CF pipeline (fan-in 4)."""
    from repro.mergesort.kway import kway_sort

    out = data.copy()
    counters = Counters()
    launches = 0
    bounds = list(offsets) + [len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi == lo:
            continue
        result = kway_sort(
            data[lo:hi], KWAY_BACKEND_FANIN, params.E, params.u, w, variant="cf"
        )
        out[lo:hi] = result.data
        counters.merge(result.total_counters)
        launches += 1 + result.merge_level_count
    return BatchOutcome(data=out, counters=counters, launches=max(launches, 1))


def _samplesort_backend(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> BatchOutcome:
    """Sort each segment with the deterministic sample-sort pipeline."""
    from repro.mergesort.samplesort import sample_sort

    out = data.copy()
    counters = Counters()
    launches = 0
    bounds = list(offsets) + [len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi == lo:
            continue
        result = sample_sort(data[lo:hi], params.E, params.u, w, variant="cf")
        out[lo:hi] = result.data
        counters.merge(result.total_counters)
        # Tile sort, scatter, bucket sort: three launch waves per segment.
        launches += 3 if result.n_tiles > 1 else 1
    return BatchOutcome(data=out, counters=counters, launches=max(launches, 1))


#: The names every stock service exposes, in dispatch-priority order.
DEFAULT_BACKENDS: tuple[str, ...] = (
    "cf",
    "cf-batched",
    "cf-cluster",
    "kway",
    "samplesort",
    "baseline",
    "numpy",
)

_REGISTRY: dict[str, SortBackend] = {
    "cf": _simulated_backend("cf"),
    "cf-batched": _cf_batched,
    "cf-cluster": _cf_cluster,
    "kway": _kway_backend,
    "samplesort": _samplesort_backend,
    "baseline": _simulated_backend("thrust"),
    "numpy": _numpy_backend,
}


def register_backend(name: str, backend: SortBackend) -> None:
    """Register (or replace) a backend under ``name``.

    Names must be identifier-like; a ``-`` separator is allowed (the
    stock ``cf-batched`` uses one).
    """
    if not name or not name.replace("-", "_").isidentifier():
        raise ParameterError(f"backend name must be an identifier, got {name!r}")
    _REGISTRY[name] = backend


def get_backend(name: str) -> SortBackend:
    """Look up a registered backend; unknown names raise ``ParameterError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ParameterError(f"unknown backend {name!r} (registered: {known})") from None


def available_backends() -> tuple[str, ...]:
    """The currently registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))
