"""Segmented sort: many independent segments in one launch-style batch.

Real GPU workloads often sort batches of small independent arrays
(adjacency lists, strings' suffixes, per-query candidate sets); Thrust
users express this as a segmented sort.  This module provides the same
API:

* short segments (at most one tile) are packed with the (segment-id, key)
  trick into one array — one pipeline sort orders every segment at once;
* long segments are sorted one pipeline call each.

Both passes run on the batched pipeline
(:func:`~repro.mergesort.pipeline.batched_mergesort`, whose result
equals the lockstep :func:`~repro.mergesort.pipeline.gpu_mergesort`'s on
every field), so the counters are the simulator's without running it.

The CF variant's zero-conflict guarantee is preserved in both passes, and
the packing keeps the sort stable per segment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import ParameterError
from repro.mergesort.pipeline import batched_mergesort
from repro.sim.counters import Counters

__all__ = [
    "KEY_BITS",
    "KEY_LIMIT",
    "offset_bounds",
    "segment_bounds",
    "segmented_sort",
    "unpack_segments",
]

#: Packed-word geometry: ``(rank << KEY_BITS) | (key + KEY_LIMIT)``, so
#: keys must fit in ``+-2^(KEY_BITS - 1)``.  The batched backends
#: (:mod:`repro.engine.backend`, :mod:`repro.cluster.service`) share it.
KEY_BITS = 40
KEY_LIMIT = 1 << (KEY_BITS - 1)


def offset_bounds(
    data: npt.NDArray[np.int64], offsets: Sequence[int]
) -> list[int]:
    """Validate a segmented batch's offsets; return ``offsets + [len(data)]``.

    ``data`` must be 1-D, and ``offsets`` must start at 0 (when present),
    be non-decreasing, and stay within ``data``.
    """
    if data.ndim != 1:
        raise ParameterError("data must be one-dimensional")
    bounds = list(offsets) + [len(data)]
    if offsets and bounds[0] != 0:
        raise ParameterError("the first segment offset must be 0")
    for prev, nxt in zip(bounds, bounds[1:]):
        if nxt < prev:
            raise ParameterError(
                "segment offsets must be non-decreasing and at most len(data)"
            )
    return bounds


def segment_bounds(
    data: npt.NDArray[np.int64], offsets: Sequence[int]
) -> list[int]:
    """:func:`offset_bounds` for a batch whose keys get packed.

    Keys must also fit in ``+-2^(KEY_BITS - 1)``, the packed word's key
    field.
    """
    bounds = offset_bounds(data, offsets)
    if len(data) and (data.min() <= -KEY_LIMIT or data.max() >= KEY_LIMIT):
        raise ParameterError(f"keys must fit in +-2^{KEY_BITS - 1}")
    return bounds


def unpack_segments(
    out: npt.NDArray[np.int64],
    sorted_rows: Sequence[npt.NDArray[np.int64]],
    row_segments: Sequence[Sequence[tuple[int, int]]],
) -> None:
    """Write sorted packed rows back into ``out``, segment by segment.

    Row ``i`` holds the packed words of the ``(lo, hi)`` segments in
    ``row_segments[i]``, in order (padding words sort last and are
    ignored); their keys land in ``out[lo:hi]``.
    """
    mask = np.int64((1 << KEY_BITS) - 1)
    for row, members in zip(sorted_rows, row_segments):
        keys = (row & mask) - KEY_LIMIT
        pos = 0
        for lo, hi in members:
            out[lo:hi] = keys[pos : pos + (hi - lo)]
            pos += hi - lo


def segmented_sort(
    data,
    segment_offsets,
    E: int,
    u: int,
    w: int = 32,
    variant: str = "thrust",
) -> tuple[np.ndarray, Counters]:
    """Sort each segment of ``data`` independently.

    ``segment_offsets`` lists the start of each segment (the first must be
    0); segment ``i`` spans ``[offsets[i], offsets[i+1])`` and the last
    runs to ``len(data)``.  Returns the segment-wise sorted array and the
    aggregated simulation counters.

    Keys must fit in ``+-2^39`` (they share a 64-bit word with the segment
    id during the batched pass).
    """
    data = np.asarray(data, dtype=np.int64)
    offsets = list(segment_offsets)
    bounds = segment_bounds(data, offsets)

    out = data.copy()
    total = Counters()
    if not offsets:
        return out, total
    tile = u * E

    # Partition segments into "short" (batched) and "long" (individual).
    short: list[tuple[int, int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        if hi - lo <= tile:
            short.append((lo, hi))
        else:
            result = batched_mergesort(data[lo:hi], E=E, u=u, w=w, variant=variant)
            out[lo:hi] = result.data
            total.merge(result.total_counters)

    # Batched pass: pack (segment rank, key) so one sort orders them all.
    if short:
        packed_parts = []
        for rank, (lo, hi) in enumerate(short):
            packed_parts.append(
                (np.int64(rank) << KEY_BITS) | (data[lo:hi] + KEY_LIMIT)
            )
        packed = np.concatenate(packed_parts)
        result = batched_mergesort(packed, E=E, u=u, w=w, variant=variant)
        total.merge(result.total_counters)
        unpack_segments(out, [result.data], [short])
    return out, total
