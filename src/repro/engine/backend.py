"""The ``cf-batched`` service backend: whole micro-batches, one lane pass.

The stock ``cf`` backend sorts a micro-batch by concatenating every
short segment into one packed array and running the full lockstep
mergesort pipeline over it.  This backend instead packs segments into
independent blocksort tiles (next-fit in submission order — a segment
never straddles tiles) and profiles/sorts **all** tiles in one batched
vectorized pass through :mod:`repro.engine.batch`:

* output contract — identical to every other backend: the segment-wise
  sorted concatenation (each tile is one ``np.sort`` over packed
  ``(rank, key)`` words, so segments come out sorted and in place);
* counter contract — per tile, bit-identical to the lockstep
  simulator's :func:`repro.mergesort.blocksort.blocksort_tile` (variant
  ``"cf"``) shared-memory counters on the same packed tile, summed over
  tiles (cross-validated in ``tests/test_engine_backend.py``);
* padding rule — tile tails are padded with a sentinel that sorts after
  every packed value; padding is per tile, never per segment.

Segments longer than one tile are sorted one by one by the batched
pipeline (:func:`repro.mergesort.pipeline.batched_mergesort`, like
:func:`repro.mergesort.segmented.segmented_sort`'s long path), so each
reports exactly the lockstep ``gpu_mergesort(..., "cf")`` counters,
compute and global traffic included.  The lane's CF profile requires
coprime ``(w, E)`` and a power-of-two ``u`` — geometry violations raise,
they are never silently approximated.

``cf-cluster`` (:mod:`repro.cluster.service`) is this backend run on the
cluster pool: :func:`split_batch` cuts a batch where no tile straddles
the cut, one segment range per pool process.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt

from repro.config import SortParams
from repro.engine.batch import batched_blocksort_profile, pad_and_stack
from repro.errors import ParameterError
from repro.mergesort.pipeline import batched_mergesort
from repro.mergesort.segmented import (
    KEY_BITS,
    KEY_LIMIT,
    segment_bounds,
    unpack_segments,
)
from repro.numtheory import coprime
from repro.sim.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> engine)
    from repro.service.backends import BatchOutcome

__all__ = ["cf_batched_backend", "pack_tiles", "split_batch", "validate_batch"]


def validate_batch(
    backend: str,
    data: npt.ArrayLike,
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> tuple[npt.NDArray[np.int64], list[int]]:
    """Check a batched-lane micro-batch; return ``(data, segment bounds)``.

    The geometry must suit the lane's CF profile (coprime ``w, E``, ``u``
    a power-of-two multiple of ``w``), and the segments must pass
    :func:`~repro.mergesort.segmented.segment_bounds`.  ``backend``
    names the caller in error messages.
    """
    E, u = params.E, params.u
    if not coprime(w, E):
        raise ParameterError(f"{backend} requires coprime w, E")
    if u % w or u & (u - 1):
        raise ParameterError(
            f"{backend} requires u={u} a power-of-two multiple of w={w}"
        )
    arr = np.asarray(data, dtype=np.int64)
    return arr, segment_bounds(arr, offsets)


def _next_fit(sizes: Sequence[int], tile: int) -> list[int]:
    """Where next-fit packing opens a tile: indices into ``sizes``.

    A segment joins the open tile while it fits and opens a new tile
    otherwise, so every tile holds a contiguous run of segments.
    """
    starts: list[int] = []
    fill = 0
    for index, size in enumerate(sizes):
        if size > tile:
            raise ParameterError(f"segment of {size} elements exceeds the tile ({tile})")
        if not starts or fill + size > tile:
            starts.append(index)
            fill = 0
        fill += size
    return starts


def pack_tiles(
    data: npt.NDArray[np.int64],
    segments: Sequence[tuple[int, int]],
    tile: int,
) -> tuple[list[list[tuple[int, int]]], npt.NDArray[np.int64]]:
    """Next-fit pack ``(lo, hi)`` segments into whole tiles.

    Returns ``(tiles, packed)``: per tile, the segments it holds (in
    order), and the stacked ``(n_tiles, tile)`` packed matrix.  Packed
    words are ``(rank << KEY_BITS) | (key + KEY_LIMIT)`` with globally
    increasing ranks, so sorting a tile orders its segments internally
    *and* keeps them grouped; the pad word ``len(segments) << KEY_BITS``
    sorts after every real word.
    """
    starts = _next_fit([hi - lo for lo, hi in segments], tile)
    tiles = [
        list(segments[start:end])
        for start, end in zip(starts, starts[1:] + [len(segments)])
    ]
    pad = np.int64(len(segments)) << KEY_BITS
    rows = []
    rank = 0
    for members in tiles:
        parts = []
        for lo, hi in members:
            parts.append((np.int64(rank) << KEY_BITS) | (data[lo:hi] + KEY_LIMIT))
            rank += 1
        rows.append(np.concatenate(parts))
    packed = pad_and_stack(rows, tile, int(pad))
    return tiles, packed


def split_batch(bounds: Sequence[int], tile: int, parts: int) -> list[int]:
    """Cut a batch into at most ``parts`` segment ranges that pack alone.

    ``bounds`` are the batch's segment bounds, ``offsets + [n]`` as
    :func:`validate_batch` returns them.  A boundary between two
    segments is a valid cut when no tile of :func:`pack_tiles`' next-fit
    packing holds segments on both sides of it (long and empty segments
    are not packed, so one lying inside a tile is no cut).  Each cut is
    the valid boundary nearest ``k * n / parts`` keys, ``0 < k < parts``;
    with fewer valid cuts there are fewer ranges.  Returns segment
    indices ``cuts`` from 0 to ``len(bounds) - 1``: range ``r`` holds
    segments ``cuts[r]:cuts[r + 1]``.

    Packed alone, a range opens its tiles exactly where the whole batch
    does, so :func:`cf_batched_backend` over the ranges builds the same
    tiles (segment ranks shift by a constant, keeping every comparison)
    and returns the same data, counters and launches, summed.
    """
    segments = len(bounds) - 1
    n = bounds[-1]
    short = [i for i in range(segments) if 0 < bounds[i + 1] - bounds[i] <= tile]
    opens = {
        short[s] for s in _next_fit([bounds[i + 1] - bounds[i] for i in short], tile)
    }
    # Key position of each valid cut -> its first segment boundary.
    valid: dict[int, int] = {}
    for j in range(1, segments):
        k = bisect_left(short, j)
        if 0 < bounds[j] < n and (k == len(short) or short[k] in opens):
            valid.setdefault(bounds[j], j)
    positions = sorted(valid)
    cuts = {0, segments}
    if positions:
        for part in range(1, parts):
            i = bisect_left(positions, part * n / parts)
            near = positions[max(i - 1, 0) : i + 1]
            cuts.add(valid[min(near, key=lambda p: abs(p * parts - part * n))])
    return sorted(cuts)


def cf_batched_backend(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> "BatchOutcome":
    """Sort a micro-batch through the batched CF engine lane."""
    from repro.service.backends import BatchOutcome

    E, u = params.E, params.u
    tile = u * E
    data, bounds = validate_batch("cf-batched", data, offsets, params, w)

    out = data.copy()
    total = Counters()
    launches = 0
    if not offsets:
        return BatchOutcome(data=out, counters=total, launches=0)

    short: list[tuple[int, int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        if hi - lo <= tile:
            short.append((lo, hi))
        else:
            result = batched_mergesort(data[lo:hi], E=E, u=u, w=w, variant="cf")
            out[lo:hi] = result.data
            total.merge(result.total_counters)
            launches += 1

    if short:
        tiles, packed = pack_tiles(data, short, tile)
        per_tile = batched_blocksort_profile(packed, E, w, "cf")
        for c in per_tile:
            total.merge(c)
        launches += len(tiles)
        unpack_segments(out, np.sort(packed, axis=1), tiles)
    return BatchOutcome(data=out, counters=total, launches=launches)
