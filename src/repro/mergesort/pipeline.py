"""The full multi-level GPU mergesort driver (both variants).

Orchestrates blocksort over tiles of ``u*E`` elements followed by pairwise
merge levels, each output tile produced by one simulated thread block.
Global-memory traffic (coalesced tile loads/stores and the per-block
merge-path partition searches in global memory) is accounted analytically
— exactly, from the actual offsets.  Two entry points share that skeleton
and differ only in the kernels that count shared-memory traffic:

* :func:`gpu_mergesort` runs every shared-memory round through the
  lockstep simulator, one tile or block per kernel call — the oracle;
* :func:`batched_mergesort` runs on the batched engine lane
  (:mod:`repro.engine.batch`).  Blocksort stacks its levels into shared
  accounting passes; each merge level's blocks are merged at once by one
  packed-key sort, and their profiling is deferred, so the blocks of
  every level go through one search pass and one merge pass (a stacked
  pass holds whole levels of at most ``STACK_ROWS`` blocks, so large
  sorts keep one pass per level).  Per-level counters are row-range sums
  of those passes; compute ops follow in closed form.  Its result equals
  :func:`gpu_mergesort`'s on every field; CF at non-coprime ``(w, E)``
  (no exact lane profile there) is delegated to :func:`gpu_mergesort`.

:func:`blocksort_segments` serves many short inputs at once: each gets
its own tile, and all tiles go through one lane blocksort pass, with the
counters the one-tile sorts of those inputs would report.

Inputs of arbitrary length are padded to a whole number of tiles with
``+inf`` sentinels (Thrust pads likewise); sentinels are stripped from the
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Protocol, Sequence

import numpy as np
import numpy.typing as npt

from repro.engine.batch import (
    STACK_ROWS,
    batched_blocksort_phases,
    merge_tags,
    tagged_merge_profile,
    tagged_search_profile,
)
from repro.errors import ParameterError
from repro.mergesort.blocksort import BlocksortStats, blocksort_tile
from repro.mergesort.cf import cf_merge_block
from repro.mergesort.merge_path import merge_path_search, merge_path_search_steps
from repro.mergesort.register_merge import compare_exchange_count_odd_even
from repro.mergesort.serial_merge import SENTINEL, serial_merge_block
from repro.mergesort.stats import MergePhaseStats
from repro.numtheory import coprime
from repro.sim.counters import Counters

__all__ = ["gpu_mergesort", "batched_mergesort", "blocksort_segments", "MergesortResult"]

IntArray = npt.NDArray[np.int64]
Block = tuple[IntArray, IntArray]
#: Sorts a ``(tiles, u*E)`` matrix: ``-> (sorted rows, blocksort stats)``.
BlocksortKernel = Callable[[IntArray], tuple[list[IntArray], BlocksortStats]]


class MergeKernel(Protocol):
    """Merges one level's ``(A, B)`` blocks per call, in level order."""

    def __call__(self, blocks: list[Block]) -> list[IntArray]:
        """The merged blocks, in order."""

    def finish(self) -> list[MergePhaseStats]:
        """Every merged level's counters, in level order."""


def _charge_tiles(counters: Counters, n_tiles: int, tile: int) -> None:
    """Charge ``n_tiles`` fully coalesced tile loads and stores."""
    transactions = n_tiles * (tile // 32 + 1)
    counters.global_read_transactions += transactions
    counters.global_write_transactions += transactions


def _segments(lo: int, hi: int, seg: int = 32) -> int:
    """Coalesced segments touched by the word range ``[lo, hi)``."""
    if hi <= lo:
        return 0
    return (hi - 1) // seg - lo // seg + 1


@dataclass
class MergesortResult:
    """Everything measured while sorting one input."""

    #: The sorted output (same length as the input).
    data: np.ndarray
    #: Input length (before padding).
    n: int
    #: ``"thrust"`` or ``"cf"``.
    variant: str
    E: int
    u: int
    w: int
    #: Number of pairwise merge levels executed after blocksort.
    merge_level_count: int = 0
    #: Aggregated blocksort phase counters.
    blocksort_stats: BlocksortStats = field(default_factory=BlocksortStats)
    #: Aggregated merge-kernel phase counters (all levels).
    merge_stats: MergePhaseStats = field(default_factory=MergePhaseStats)
    #: Per-level merge counters, in level order.
    per_level: list[MergePhaseStats] = field(default_factory=list)
    #: Analytically accounted global-memory traffic.
    global_stats: Counters = field(default_factory=Counters)

    @property
    def total_counters(self) -> Counters:
        """All statistics rolled into one object."""
        return (
            self.blocksort_stats.total + self.merge_stats.total + self.global_stats
        )

    @property
    def merge_replays(self) -> int:
        """Bank-conflict replays during merge phases only (the paper's claim)."""
        return self.blocksort_stats.merge.shared_replays + self.merge_stats.merge.shared_replays

    def as_dict(self) -> dict[str, Any]:
        """Every field as plain JSON types, counters keyed by phase and level."""
        out: dict[str, Any] = {
            "data": self.data.tolist(),
            "n": self.n,
            "variant": self.variant,
            "E": self.E,
            "u": self.u,
            "w": self.w,
            "merge_level_count": self.merge_level_count,
            "merge_replays": self.merge_replays,
            "global": self.global_stats.as_dict(),
        }
        for phase in ("stage", "search", "merge"):
            out[f"blocksort.{phase}"] = getattr(self.blocksort_stats, phase).as_dict()
        for level, stats in enumerate(self.per_level):
            out[f"level{level}.search"] = stats.search.as_dict()
            out[f"level{level}.merge"] = stats.merge.as_dict()
        return out


def _checked_input(data, variant: str) -> IntArray:
    """Validate the arguments both entry points share; return ``data`` as int64."""
    if variant not in ("thrust", "cf"):
        raise ParameterError(f"unknown variant {variant!r}")
    data = np.asarray(data, dtype=np.int64)
    if data.ndim != 1:
        raise ParameterError("input must be one-dimensional")
    if np.any(data >= SENTINEL):
        raise ParameterError("input values must be < 2^63 - 1 (padding sentinel)")
    return data


def _mergesort(
    data: IntArray,
    pad: int,
    E: int,
    u: int,
    w: int,
    variant: str,
    blocksort: BlocksortKernel,
    merge: MergeKernel,
) -> MergesortResult:
    """The skeleton: pad, blocksort, then merge pairwise level by level.

    ``pad`` fills the last tile; it must sort after every value of
    ``data``.  Each level cuts every pair of runs into ``u*E``-element
    blocks along the merge path and hands all blocks to one ``merge``
    call; the levels' counters come from ``merge.finish()``.
    """
    n = len(data)
    result = MergesortResult(
        data=np.array([], dtype=np.int64), n=n, variant=variant, E=E, u=u, w=w
    )
    if n == 0:
        return result

    tile = u * E
    n_tiles = (n + tile - 1) // tile
    padded = np.full(n_tiles * tile, pad, dtype=np.int64)
    padded[:n] = data

    runs, result.blocksort_stats = blocksort(padded.reshape(n_tiles, tile))
    _charge_tiles(result.global_stats, n_tiles, tile)

    while len(runs) > 1:
        blocks: list[Block] = []
        pair_blocks: list[int] = []
        for pair_start in range(0, len(runs) - 1, 2):
            a_run, b_run = runs[pair_start], runs[pair_start + 1]
            n_blocks = (len(a_run) + len(b_run)) // tile
            pair_blocks.append(n_blocks)
            prev_cut = (0, 0)
            for k in range(1, n_blocks + 1):
                diag = k * tile
                if k < n_blocks:
                    cut = merge_path_search(a_run, b_run, diag)
                    steps = merge_path_search_steps(len(a_run), len(b_run), diag)
                    # Each global search step reads one word of A and one of B.
                    result.global_stats.global_read_transactions += 2 * steps
                    result.global_stats.global_read_requests += 2 * steps
                else:
                    cut = (len(a_run), len(b_run))
                blocks.append(
                    (a_run[prev_cut[0] : cut[0]], b_run[prev_cut[1] : cut[1]])
                )
                result.global_stats.global_read_transactions += _segments(
                    prev_cut[0], cut[0]
                ) + _segments(prev_cut[1], cut[1])
                result.global_stats.global_write_transactions += tile // 32
                prev_cut = cut
        merged = merge(blocks)
        next_runs: list[IntArray] = []
        first = 0
        for count in pair_blocks:
            next_runs.append(np.concatenate(merged[first : first + count]))
            first += count
        if len(runs) % 2:
            next_runs.append(runs[-1])
        runs = next_runs
        result.merge_level_count += 1

    result.per_level = merge.finish()
    for level_stats in result.per_level:
        result.merge_stats.merge_into(level_stats)
    result.data = runs[0][:n]
    return result


# ------------------------------------------------------- lockstep kernels
# ``blocksort_tile``, ``serial_merge_block`` and ``cf_merge_block`` are
# looked up as module globals at call time, so callers may wrap them.


def _lockstep_blocksort(
    tiles: IntArray, E: int, w: int, variant: str, read_policy: str
) -> tuple[list[IntArray], BlocksortStats]:
    """One simulated thread block per tile."""
    stats = BlocksortStats()
    runs = []
    for chunk in tiles:
        sorted_tile, tile_stats = blocksort_tile(
            chunk, E, w, variant, read_policy=read_policy
        )
        stats.search.merge(tile_stats.search)
        stats.merge.merge(tile_stats.merge)
        stats.stage.merge(tile_stats.stage)
        runs.append(sorted_tile)
    return runs, stats


class _LockstepMerge:
    """One simulated thread block per merge block, counted as it merges."""

    def __init__(
        self, E: int, w: int, variant: str, read_policy: str, simulate_search: bool
    ) -> None:
        self.E, self.w, self.variant = E, w, variant
        self.read_policy, self.simulate_search = read_policy, simulate_search
        self.per_level: list[MergePhaseStats] = []

    def __call__(self, blocks: list[Block]) -> list[IntArray]:
        level_stats = MergePhaseStats()
        merged = []
        for a_blk, b_blk in blocks:
            if self.variant == "thrust":
                merged_blk, stats = serial_merge_block(
                    a_blk, b_blk, self.E, self.w,
                    simulate_search=self.simulate_search,
                    read_policy=self.read_policy,
                )
            else:
                merged_blk, stats = cf_merge_block(
                    a_blk, b_blk, self.E, self.w,
                    simulate_search=self.simulate_search,
                )
            level_stats.merge_into(stats)
            merged.append(merged_blk)
        self.per_level.append(level_stats)
        return merged

    def finish(self) -> list[MergePhaseStats]:
        return self.per_level


# -------------------------------------------------------- batched kernels
# The lane counts shared-memory traffic only; compute ops follow in closed
# form from the kernels' instruction streams (``ops`` = compare-exchanges
# of the E-wide odd-even network, ``L = log2(u)`` blocksort levels).  The
# baseline runs the default ``"bounded"`` read policy and every search is
# simulated: the oracle's defaults.


def _batched_blocksort(
    tiles: IntArray, E: int, w: int, variant: str
) -> tuple[list[IntArray], BlocksortStats]:
    """Every tile in one fused lane pass, counters split by phase."""
    n_tiles, tile = tiles.shape
    u = tile // E
    levels = u.bit_length() - 1
    ops = compare_exchange_count_odd_even(E)
    stats = BlocksortStats()
    stats.stage, stats.search, stats.merge = batched_blocksort_phases(
        tiles, E, w, variant
    )
    # One Compute per staged word: the load, one stage per level, the final stage.
    stats.stage.compute_ops = n_tiles * u * E * (levels + 2)
    # Three ops per bisection step (two reads per step).
    stats.search.compute_ops = 3 * stats.search.shared_requests // 2
    # Register sort, then per level one op per serial-merge output step,
    # or one per gathered word plus the register network.
    per_level = u * E if variant == "thrust" else u * E + ops * u
    stats.merge.compute_ops = n_tiles * (ops * u + levels * per_level)
    return list(np.sort(tiles, axis=1)), stats


class _LaneMerge:
    """Merges each level at once; profiles queued levels in stacked passes.

    A call merges a level's blocks with one packed-key sort
    (:func:`~repro.engine.batch.merge_tags`) and queues their merge tags.
    Queued levels are profiled together — one search pass and one merge
    pass over every queued block, per-level counters summed from row
    ranges — when the next level would take the queue past
    :data:`~repro.engine.batch.STACK_ROWS` blocks, and at :meth:`finish`.
    """

    def __init__(self, E: int, w: int, variant: str) -> None:
        self.E, self.w, self.variant = E, w, variant
        self.per_level: list[MergePhaseStats] = []
        self._tags: list[npt.NDArray[np.bool_]] = []
        self._n_a: list[IntArray] = []

    def __call__(self, blocks: list[Block]) -> list[IntArray]:
        n_a = np.array([len(a_blk) for a_blk, _ in blocks], dtype=np.int64)
        from_a, merged = merge_tags(
            np.stack([np.concatenate(blk) for blk in blocks]), n_a
        )
        if self._tags and sum(map(len, self._tags)) + len(blocks) > STACK_ROWS:
            self._profile()
        self._tags.append(from_a)
        self._n_a.append(n_a)
        return list(merged)

    def _profile(self) -> None:
        E, w, variant = self.E, self.w, self.variant
        from_a = np.concatenate(self._tags)
        n_a = np.concatenate(self._n_a)
        u = from_a.shape[1] // E
        search = tagged_search_profile(from_a, n_a, E, w, mapped=variant == "cf")
        merge = tagged_merge_profile(from_a, n_a, E, w, variant)
        # Two ops per bisection step (two reads per step), or four with
        # CF's position -> address mapping.
        per_step = 2 if variant == "thrust" else 4
        # One op per output step, or one per gathered and per scattered
        # word plus the network.
        if variant == "thrust":
            per_block = u * E
        else:
            per_block = 2 * u * E + compare_exchange_count_odd_even(E) * u
        first = 0
        for tags in self._tags:
            rows = slice(first, first + len(tags))
            first += len(tags)
            stats = MergePhaseStats(search.total(rows), merge.total(rows))
            stats.search.compute_ops = per_step * stats.search.shared_requests // 2
            stats.merge.compute_ops = len(tags) * per_block
            self.per_level.append(stats)
        self._tags.clear()
        self._n_a.clear()

    def finish(self) -> list[MergePhaseStats]:
        if self._tags:
            self._profile()
        return self.per_level


def blocksort_segments(
    segments: Sequence[IntArray], E: int, u: int, w: int
) -> tuple[list[IntArray], Counters]:
    """Sort inputs of at most one tile each in one CF lane blocksort pass.

    Each segment fills its own tile with its own dense ranks, padded with
    the rank past its largest, as a one-tile :func:`batched_mergesort`,
    ``batched_kway_sort`` or ``batched_sample_sort`` call pads it.  So
    the returned counters (blocksort phases plus one coalesced load and
    store per tile) equal the sum of those calls' ``total_counters``
    with ``variant="cf"``.  Returns the sorted segments and the counters;
    needs at least one segment and coprime ``(w, E)``.
    """
    tile = u * E
    uniques = []
    rows = np.empty((len(segments), tile), dtype=np.int64)
    for row, segment in zip(rows, segments):
        values, ranks = np.unique(segment, return_inverse=True)
        row[: len(segment)] = ranks
        row[len(segment) :] = len(values)
        uniques.append(values)
    runs, stats = _batched_blocksort(rows, E, w, "cf")
    counters = stats.total
    _charge_tiles(counters, len(rows), tile)
    return [
        values[run[: len(segment)]]
        for values, run, segment in zip(uniques, runs, segments)
    ], counters


def gpu_mergesort(
    data,
    E: int,
    u: int,
    w: int = 32,
    variant: str = "thrust",
    *,
    read_policy: str = "bounded",
    simulate_search: bool = True,
) -> MergesortResult:
    """Sort ``data`` with the simulated GPU mergesort.

    Parameters
    ----------
    data:
        One-dimensional integer array.  Values must be below the padding
        sentinel (``2^63 - 1``).
    E, u, w:
        Elements per thread, threads per block, warp width.
    variant:
        ``"thrust"`` (baseline serial merge) or ``"cf"`` (CF-Merge).
    read_policy:
        Baseline replacement-read policy (see
        :mod:`repro.mergesort.serial_merge`); checked for both variants.
    simulate_search:
        Whether to simulate the shared-memory traffic of the per-thread
        merge-path searches (identical for both variants).

    Returns
    -------
    MergesortResult
        Sorted data plus the full measurement record.
    """
    if read_policy not in ("bounded", "always"):
        raise ParameterError(f"unknown read_policy {read_policy!r}")
    data = _checked_input(data, variant)
    return _mergesort(
        data, SENTINEL, E, u, w, variant,
        partial(_lockstep_blocksort, E=E, w=w, variant=variant, read_policy=read_policy),
        _LockstepMerge(E, w, variant, read_policy, simulate_search),
    )


def batched_mergesort(
    data, E: int, u: int, w: int = 32, variant: str = "thrust"
) -> MergesortResult:
    """:func:`gpu_mergesort` on the batched engine lane; same result.

    Same positional arguments and contract; every field of the returned
    :class:`MergesortResult` equals that of :func:`gpu_mergesort` at its
    defaults (``read_policy="bounded"``, searches simulated).  The lane
    runs on the dense ranks of the input (they keep every comparison,
    hence every counter, and fit the lane's key packing); the output maps
    them back.  ``variant="cf"`` with ``gcd(w, E) > 1`` has no exact lane
    profile and runs :func:`gpu_mergesort` itself.
    """
    data = _checked_input(data, variant)
    if variant == "cf" and not coprime(w, E):
        return gpu_mergesort(data, E, u, w, variant)
    values, ranks = np.unique(data, return_inverse=True)
    result = _mergesort(
        ranks.astype(np.int64, copy=False), len(values), E, u, w, variant,
        partial(_batched_blocksort, E=E, w=w, variant=variant),
        _LaneMerge(E, w, variant),
    )
    result.data = values[result.data]
    return result
