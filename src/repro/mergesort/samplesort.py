"""Deterministic sample sort on the simulated blocksort (Dehne & Zaboli).

GPU sample sort replaces the merge tree with one *partition* pass: sort
tiles locally, pick splitters from a deterministic sample, scatter every
element to its bucket, and sort each bucket independently.  Dehne &
Zaboli's deterministic variant makes the sample *regular* — ``s``
equidistant samples from every sorted tile — so the bucket sizes carry a
worst-case bound instead of a probabilistic one: with ``p`` tiles,
``2p`` buckets and splitters every ``s/2`` sample ranks, a bucket holds
at most ``(s/2 + p)·tile/s`` elements for distinct keys — exactly one
tile at the default ``s = 2p``, so every bucket fits one blocksort.

Everything data-touching runs on the simulated blocksort (so the CF
variant's zero-conflict guarantee carries over verbatim); the host-side
splitter selection is charged analytically to the global counters, like
the merge pipeline's partition searches.  One host skeleton takes the
kernels: :func:`sample_sort` runs them on the lockstep simulator and is
the oracle; :func:`batched_sample_sort` sorts all tiles, and then all
buckets, in one batched engine-lane pass each, with the same result on
every field (``variant="cf"``, default oversampling):

1. **Tile sort** — every ``u*E`` tile through the blocksort kernel.
2. **Sample + splitters** — ``s`` equidistant elements per sorted tile;
   the ``p*s`` samples are sorted and the ``2p - 1`` splitters read off
   the cached ``sample_splitters`` plan ranks.
3. **Bucket scatter** — per element, a binary search over the splitters
   (bucket ids are monotone, so per tile each bucket's slice is one
   coalesced segment); charged as one read + one write pass.
4. **Bucket sort** — buckets up to one tile are padded and blocksorted;
   oversized buckets (duplicate-heavy inputs defeat the distinct-key
   bound) fall back to :func:`repro.mergesort.kway.kway_sort` (or
   :func:`~repro.mergesort.kway.batched_kway_sort`) and are counted in
   ``overflow_buckets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np
import numpy.typing as npt

from repro.engine.batch import pad_and_stack
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.mergesort.blocksort import BlocksortStats
from repro.mergesort.kway import KwaySortResult, batched_kway_sort, kway_sort
from repro.mergesort.pipeline import (
    BlocksortKernel,
    _batched_blocksort,
    _charge_tiles,
    _checked_input,
    _lane_input,
    _lockstep_blocksort,
)
from repro.mergesort.serial_merge import SENTINEL
from repro.mergesort.stats import MergePhaseStats
from repro.numtheory import coprime
from repro.sim.counters import Counters

__all__ = ["sample_sort", "batched_sample_sort", "SampleSortResult"]

IntArray = npt.NDArray[np.int64]

#: Fan-in of the k-way fallback sort for oversized buckets.
OVERFLOW_FANIN = 4


@dataclass
class SampleSortResult:
    """Everything measured while sample sorting one input."""

    #: The sorted output (same length as the input).
    data: IntArray
    #: Input length (before padding).
    n: int
    #: ``"thrust"`` or ``"cf"``.
    variant: str
    E: int
    u: int
    w: int
    #: Samples taken per sorted tile (``s``).
    oversample: int = 0
    #: Number of input tiles (``p``).
    n_tiles: int = 0
    #: Number of buckets (``2p`` for multi-tile inputs).
    n_buckets: int = 0
    #: Final bucket sizes, in bucket order.
    bucket_sizes: list[int] = field(default_factory=list)
    #: Largest bucket produced by the scatter.
    max_bucket: int = 0
    #: The regular-sampling bound ``(s/2 + p)·tile/s`` (distinct keys;
    #: equals one tile at the default ``s = 2p``).  Duplicate-heavy
    #: inputs may exceed it and overflow.
    bucket_bound: int = 0
    #: Buckets that exceeded one tile and took the k-way fallback.
    overflow_buckets: int = 0
    #: Phase-1 tile blocksort counters.
    tile_blocksort: BlocksortStats = field(default_factory=BlocksortStats)
    #: Phase-4 bucket blocksort counters.
    bucket_blocksort: BlocksortStats = field(default_factory=BlocksortStats)
    #: Phase-4 overflow (k-way fallback) merge counters.
    bucket_merge: MergePhaseStats = field(default_factory=MergePhaseStats)
    #: Analytically accounted global traffic + host splitter work.
    global_stats: Counters = field(default_factory=Counters)

    @property
    def total_counters(self) -> Counters:
        """All statistics rolled into one object."""
        return (
            self.tile_blocksort.total
            + self.bucket_blocksort.total
            + self.bucket_merge.total
            + self.global_stats
        )

    @property
    def merge_replays(self) -> int:
        """Bank-conflict replays during merge-like phases (the CF claim)."""
        return (
            self.tile_blocksort.merge.shared_replays
            + self.bucket_blocksort.merge.shared_replays
            + self.bucket_merge.merge.shared_replays
        )

    def as_dict(self) -> dict[str, Any]:
        """Every field as plain JSON types, counters keyed by phase."""
        out: dict[str, Any] = {
            "data": self.data.tolist(),
            "n": self.n,
            "variant": self.variant,
            "E": self.E,
            "u": self.u,
            "w": self.w,
            "oversample": self.oversample,
            "n_tiles": self.n_tiles,
            "n_buckets": self.n_buckets,
            "bucket_sizes": list(self.bucket_sizes),
            "max_bucket": self.max_bucket,
            "bucket_bound": self.bucket_bound,
            "overflow_buckets": self.overflow_buckets,
            "merge_replays": self.merge_replays,
            "global": self.global_stats.as_dict(),
            "bucket_merge.search": self.bucket_merge.search.as_dict(),
            "bucket_merge.merge": self.bucket_merge.merge.as_dict(),
        }
        for name in ("tile_blocksort", "bucket_blocksort"):
            for phase in ("stage", "search", "merge"):
                out[f"{name}.{phase}"] = getattr(getattr(self, name), phase).as_dict()
        return out


#: Sorts one oversized bucket with the k-way pipeline.
OverflowSort = Callable[[IntArray], KwaySortResult]


def _checked_args(
    data: npt.ArrayLike, variant: str, oversample: int | None, tile: int
) -> IntArray:
    """Validate what both entry points share; return ``data`` as int64."""
    if oversample is not None:
        _check_oversample(oversample, tile)
    return _checked_input(data, variant)


def _check_oversample(s: int, tile: int) -> None:
    """``s`` samples per tile must be even and in ``[2, tile]``."""
    if not 2 <= s <= tile or s % 2:
        raise ParameterError(
            f"oversample {s} must be even and in [2, tile={tile}]"
        )


def _sample_sort(
    values: IntArray,
    pad: int,
    E: int,
    u: int,
    w: int,
    variant: str,
    oversample: int | None,
    blocksort: BlocksortKernel,
    overflow: OverflowSort,
) -> SampleSortResult:
    """The skeleton: tile sort, splitters, scatter, then bucket sorts.

    ``pad`` fills the last tile and every bucket row; it must sort after
    every value.  All tiles go to one ``blocksort`` call, and so do all
    buckets of at most one tile; each oversized bucket goes to
    ``overflow``.
    """
    n = len(values)
    result = SampleSortResult(
        data=np.array([], dtype=np.int64), n=n, variant=variant, E=E, u=u, w=w
    )
    if n == 0:
        return result

    tile = u * E
    p = (n + tile - 1) // tile
    s = oversample if oversample is not None else min(2 * p, tile)
    _check_oversample(s, tile)
    result.oversample = s
    result.n_tiles = p
    q = 2 * p
    result.n_buckets = q
    result.bucket_bound = (s // 2 + p) * tile // s

    padded = np.full(p * tile, pad, dtype=np.int64)
    padded[:n] = values

    # ---- phase 1: tile blocksort -----------------------------------------
    sorted_tiles, result.tile_blocksort = blocksort(padded.reshape(p, tile))
    _charge_tiles(result.global_stats, p, tile)

    if p == 1:
        result.n_buckets = 1
        result.bucket_sizes = [n]
        result.max_bucket = n
        result.data = sorted_tiles[0][:n]
        return result

    # ---- phase 2: deterministic sample + splitters -----------------------
    # s equidistant ranks per sorted tile, last rank = tile - 1.
    local_ranks = (np.arange(1, s + 1, dtype=np.int64) * tile) // s - 1
    sample = np.concatenate([t[local_ranks] for t in sorted_tiles])
    # Strided sample reads: one transaction per sample (uncoalesced).
    result.global_stats.global_read_transactions += p * s
    result.global_stats.global_read_requests += p * s
    # Host-side sample sort, charged as comparisons.
    sample_size = p * s
    result.global_stats.compute_ops += sample_size * max(
        1, int(sample_size - 1).bit_length()
    )
    splitter_ranks = np.asarray(
        get_plan("sample_splitters", sample_size, s // 2, w, q)["idx"]
    )
    splitters = np.sort(sample)[splitter_ranks]

    # ---- phase 3: bucket scatter -----------------------------------------
    merged_tiles = np.concatenate(sorted_tiles)
    real = merged_tiles[merged_tiles != pad]
    ids = np.searchsorted(splitters, real, side="right")
    # One coalesced read pass + one segmented write pass (per tile, each
    # bucket's slice is contiguous: one segment per non-empty pair).
    result.global_stats.global_read_transactions += -(-n // 32)
    result.global_stats.global_read_requests += n
    segments = 0
    offset = 0
    for t in range(p):
        span = min(tile, n - offset)
        if span > 0:
            segments += len(np.unique(ids[offset : offset + span]))
        offset += span
    result.global_stats.global_write_transactions += -(-n // 32) + segments
    result.global_stats.global_write_requests += n
    # The per-element splitter binary search, charged as comparisons.
    result.global_stats.compute_ops += n * max(1, int(q - 1).bit_length())

    # ---- phase 4: per-bucket sort ----------------------------------------
    buckets: list[IntArray] = [real[ids == b] for b in range(q)]
    result.bucket_sizes = [len(bucket) for bucket in buckets]
    result.max_bucket = max(result.bucket_sizes)
    fits = [b for b, size in enumerate(result.bucket_sizes) if 0 < size <= tile]
    if fits:
        rows = pad_and_stack([buckets[b] for b in fits], tile, pad)
        sorted_rows, result.bucket_blocksort = blocksort(rows)
        for b, row in zip(fits, sorted_rows):
            buckets[b] = row[: len(buckets[b])]
        _charge_tiles(result.global_stats, len(fits), tile)
    for b, bucket in enumerate(buckets):
        if len(bucket) <= tile:
            continue
        # Duplicate-heavy inputs can defeat the distinct-key bound;
        # oversized buckets take the k-way pipeline, fully counted.
        result.overflow_buckets += 1
        fallback = overflow(bucket)
        result.bucket_blocksort.search.merge(fallback.blocksort_stats.search)
        result.bucket_blocksort.merge.merge(fallback.blocksort_stats.merge)
        result.bucket_blocksort.stage.merge(fallback.blocksort_stats.stage)
        result.bucket_merge.merge_into(fallback.merge_stats)
        result.global_stats.merge(fallback.global_stats)
        buckets[b] = fallback.data

    result.data = np.concatenate(buckets)
    return result


def sample_sort(
    data: npt.ArrayLike,
    E: int,
    u: int,
    w: int = 32,
    *,
    variant: str = "cf",
    oversample: int | None = None,
) -> SampleSortResult:
    """Sort ``data`` with the deterministic sample-sort pipeline.

    ``oversample`` is ``s``, the samples taken per sorted tile (must
    be even: the splitter stride is ``s/2``); the default
    ``min(2p, tile)`` makes the distinct-key bucket bound exactly one
    tile.  Geometry constraints are those of
    :func:`repro.mergesort.blocksort.blocksort_tile` (power-of-two
    ``u``, multiple of ``w``); violations raise ``ParameterError``.
    Every shared-memory round runs on the lockstep simulator: this is
    the oracle :func:`batched_sample_sort` is checked against.
    """
    values = _checked_args(data, variant, oversample, u * E)
    return _sample_sort(
        values, SENTINEL, E, u, w, variant, oversample,
        partial(_lockstep_blocksort, E=E, w=w, variant=variant, read_policy="bounded"),
        partial(kway_sort, k=OVERFLOW_FANIN, E=E, u=u, w=w, variant=variant),
    )


def batched_sample_sort(
    data: npt.ArrayLike, E: int, u: int, w: int = 32
) -> SampleSortResult:
    """:func:`sample_sort` on the batched engine lane; same result.

    Every field of the returned :class:`SampleSortResult` equals that of
    :func:`sample_sort` at its defaults (``variant="cf"``, default
    oversampling).  All tiles are blocksorted in one fused lane pass,
    and so are all buckets of at most one tile; oversized buckets take
    :func:`repro.mergesort.kway.batched_kway_sort`.  The lane runs on
    the input's own values, or on their dense ranks where those pack
    narrower (:func:`~repro.mergesort.pipeline._lane_input`).  With
    ``gcd(w, E) > 1`` there is no exact lane profile and
    :func:`sample_sort` runs instead.
    """
    values = _checked_args(data, "cf", None, u * E)
    if not coprime(w, E):
        return sample_sort(values, E, u, w)
    keys, pad, restore = _lane_input(values)
    result = _sample_sort(
        keys, pad, E, u, w, "cf", None,
        partial(_batched_blocksort, E=E, w=w, variant="cf"),
        partial(batched_kway_sort, k=OVERFLOW_FANIN, E=E, u=u, w=w),
    )
    result.data = restore(result.data)
    return result
