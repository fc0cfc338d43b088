"""The service's sort-backend registry.

A *backend* turns one coalesced micro-batch — the concatenation of many
small requests plus their segment offsets — into the segment-wise sorted
concatenation, reporting simulator counters for the launch.  Seven ship
by default:

``cf``
    CF-Merge (the paper's conflict-free variant) through
    :func:`repro.mergesort.segmented.segmented_sort` — zero merge-phase
    bank conflicts for every input, so service latency is
    input-independent.  Short segments are packed into one batched
    pipeline sort, and each segment longer than a tile gets its own,
    with counters equal to the lockstep simulator's on every field.
``cf-batched``
    The batched engine lane (:mod:`repro.engine.backend`): short
    segments are packed into independent blocksort tiles and the whole
    micro-batch is profiled/sorted in one vectorized pass, with per-tile
    counters bit-identical to the lockstep simulator's blocksort; each
    segment longer than a tile runs through the batched pipeline.
``cf-cluster``
    ``cf-batched`` run on the cluster worker pool
    (:mod:`repro.cluster.service`): the batch is cut into at most one
    segment range per pool process, where no packed tile straddles the
    cut, and each range is one pool task over shared memory,
    byte-identical to ``cf-batched`` whether the pool runs inline or
    across processes.
``kway``
    The k-way CF pipeline on the batched lane
    (:func:`repro.mergesort.kway.batched_kway_sort`, fan-in 4), one call
    per segment longer than a tile: ``log_k`` merge levels instead of
    ``log_2``, staged conflict-free gather schedule.
``samplesort``
    Deterministic sample sort on the batched lane
    (:func:`repro.mergesort.samplesort.batched_sample_sort`), one call
    per segment longer than a tile: single partition pass over
    blocksorted tiles, per-bucket blocksort, k-way fallback for
    oversized buckets.

    Both blocksort every segment of at most one tile, each in its own
    tile, in one lane pass
    (:func:`repro.mergesort.pipeline.blocksort_segments`), with the
    data, counters and launches of one call per segment.
``baseline``
    The Thrust-style serial shared-memory merge (variant ``"thrust"``)
    through the same segmented sort, vulnerable to the Section 4
    adversary.
``numpy``
    ``numpy.sort`` per segment: the pure-host reference oracle.  It
    reports zero simulator counters (nothing is simulated), so it serves
    as the correctness baseline the simulated backends are checked
    against, not as a cost datapoint.

Every simulated backend reports counters equal, on every field, to the
lockstep simulator's (``gpu_mergesort``, ``kway_sort``, ``sample_sort``
and ``blocksort_tile`` stay as the oracles), yet none of them runs it
at coprime ``(w, E)``; CF at ``gcd(w, E) > 1`` is handed to the oracles.

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
from repro.mergesort.pipeline import blocksort_segments
from repro.mergesort.segmented import offset_bounds, segmented_sort
from repro.numtheory import coprime
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
    bounds = offset_bounds(data, offsets)
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

#: Sorts one segment: ``(keys, params, w) -> (sorted, counters, launches)``.
SegmentSort = Callable[
    [npt.NDArray[np.int64], SortParams, int],
    tuple[npt.NDArray[np.int64], Counters, int],
]


def _per_segment_backend(name: str, sort: SegmentSort) -> SortBackend:
    """Build a backend that sorts each segment longer than a tile with ``sort``.

    Segments of at most one tile share one lane blocksort pass, one
    launch each; at non-coprime ``(w, E)`` every segment takes ``sort``.
    """

    def run(
        data: npt.NDArray[np.int64],
        offsets: Sequence[int],
        params: SortParams,
        w: int,
    ) -> BatchOutcome:
        """Sort the short segments together, each longer one on its own."""
        out = data.copy()
        counters = Counters()
        launches = 0
        pack = coprime(w, params.E)
        short: list[tuple[int, int]] = []
        bounds = offset_bounds(data, offsets)
        for lo, hi in zip(bounds, bounds[1:]):
            if hi == lo:
                continue
            if pack and hi - lo <= params.tile_elements:
                short.append((lo, hi))
                continue
            out[lo:hi], seg_counters, seg_launches = sort(data[lo:hi], params, w)
            counters.merge(seg_counters)
            launches += seg_launches
        if short:
            sorted_short, tile_counters = blocksort_segments(
                [data[lo:hi] for lo, hi in short], params.E, params.u, w
            )
            for (lo, hi), segment in zip(short, sorted_short):
                out[lo:hi] = segment
            counters.merge(tile_counters)
            launches += len(short)
        return BatchOutcome(data=out, counters=counters, launches=max(launches, 1))

    run.__name__ = f"{name}_backend"
    return run


def _kway_segment(
    segment: npt.NDArray[np.int64], params: SortParams, w: int
) -> tuple[npt.NDArray[np.int64], Counters, int]:
    """The k-way CF pipeline (fan-in 4): blocksort plus one launch per level."""
    from repro.mergesort.kway import batched_kway_sort

    result = batched_kway_sort(segment, KWAY_BACKEND_FANIN, params.E, params.u, w)
    return result.data, result.total_counters, 1 + result.merge_level_count


def _samplesort_segment(
    segment: npt.NDArray[np.int64], params: SortParams, w: int
) -> tuple[npt.NDArray[np.int64], Counters, int]:
    """The deterministic sample sort: tile sort, scatter, bucket sort."""
    from repro.mergesort.samplesort import batched_sample_sort

    result = batched_sample_sort(segment, params.E, params.u, w)
    # Three launch waves per multi-tile segment, one for a single tile.
    return result.data, result.total_counters, 3 if result.n_tiles > 1 else 1


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
    "kway": _per_segment_backend("kway", _kway_segment),
    "samplesort": _per_segment_backend("samplesort", _samplesort_segment),
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
