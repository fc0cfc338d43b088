"""The full multi-level GPU mergesort driver (both variants).

Orchestrates blocksort over tiles of ``u*E`` elements followed by pairwise
merge levels, each output tile produced by one simulated thread block.
A level is cut and merged at once: the kernels own the keys, and the
merge kernel merges the level's run pairs in place and returns each
``u*E``-word output block's A-count.  The blocks of one stable merge of
a run pair are exactly the blocks its merge-path cuts delimit (Green et
al., *Merge Path*), so those counts are the cuts.  Global-memory traffic — the
coalesced tile loads and stores, the per-block merge-path searches in
global memory, and each block's coalesced reads on both sides of its
cuts — follows in closed form from them.  Two entry points share that
skeleton and differ only in the kernels that count shared-memory
traffic:

* :func:`gpu_mergesort` cuts every run pair block by block with
  :func:`~repro.mergesort.merge_path.merge_path_search` and runs every
  shared-memory round through the lockstep simulator, one tile or block
  per kernel call — the oracle;
* :func:`batched_mergesort` runs on the batched engine lane
  (:mod:`repro.engine.batch`) as one stack of levels
  (:class:`~repro.engine.batch.LevelStack`): the blocksort levels and
  every merge level are ``(tiles, u)`` slabs of one stack, and advance
  one packed key array, packed once and unpacked once.  A merge level
  tags its pairs' B words and sorts all its equal-length run pairs in
  place with one sort, and a shorter last pair with one more; its merge
  tags, one row per block (padded with dead rows while an odd run
  waits), are queued behind the blocksort's.  Every queued level's
  searches replay in one pass and, for Thrust, every level's pointer
  merges in one more (a pass holds at most ``STACK_LANES`` thread lanes,
  so large sorts keep one pass per level).  Per-level counters are the stack's per-level
  totals; compute ops follow in closed form.  Its result equals
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
from typing import Any, Callable, Protocol, Sequence

import numpy as np
import numpy.typing as npt

from repro.engine.batch import LevelStack, span_dtype
from repro.errors import ParameterError
from repro.mergesort.blocksort import BlocksortStats, blocksort_tile
from repro.mergesort.cf import cf_merge_block
from repro.mergesort.merge_path import merge_path_search
from repro.mergesort.register_merge import compare_exchange_count_odd_even
from repro.mergesort.serial_merge import SENTINEL, serial_merge_block
from repro.mergesort.stats import MergePhaseStats
from repro.numtheory import coprime
from repro.sim.counters import Counters

__all__ = ["gpu_mergesort", "batched_mergesort", "blocksort_segments", "MergesortResult"]

IntArray = npt.NDArray[np.int64]
#: Sorts a ``(tiles, u*E)`` matrix: ``-> (sorted rows, blocksort stats)``.
BlocksortKernel = Callable[[IntArray], tuple[IntArray, BlocksortStats]]


class SortKernels(Protocol):
    """A sort's blocksort and merge kernels, called in level order; they
    own the keys from the blocksort to :meth:`finish`."""

    def blocksort(self, tiles: IntArray) -> None:
        """Sort every row of the ``(tiles, u*E)`` matrix into the keys."""

    def merge(self, run: int, paired: int) -> IntArray:
        """Merge each pair of consecutive ``run``-word runs of the keys'
        first ``paired`` words, in place.

        Every run is ``run`` words long but the last, which may be
        shorter; every length is a whole number of tiles.  Returns each
        ``u*E``-word output block's A-count, in order.
        """

    def finish(self) -> tuple[IntArray, BlocksortStats, list[MergePhaseStats]]:
        """The sorted keys, the blocksort's counters and every merged
        level's, in level order."""


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


def _charge_level(
    counters: Counters, a_counts: IntArray, run: int, paired: int, tile: int
) -> None:
    """Charge one merge level's global traffic from its blocks' A-counts.

    The level pairs ``paired`` words into runs of ``run`` words, the
    last pair's B possibly shorter.  Each block reads the coalesced
    segments its A and B ranges touch and writes one tile.  A block but
    a pair's last ends at a merge-path search in global memory over
    ``s`` candidate cuts: ``ceil(log2(s + 1))`` bisection steps (the bit
    length of ``s``), each reading one word of A and one of B.  At a
    pair's end no candidate is left (``s = 0``), so no search.  Plain
    integers: a level has a few blocks per pair, where NumPy's per-call
    cost would dominate.
    """
    counts = a_counts.tolist()
    per_pair = 2 * run // tile
    steps = coalesced = 0
    for first in range(0, len(counts), per_pair):
        n_b = min(paired - first * tile, 2 * run) - run
        cut_a = cut_b = 0
        for k, count in enumerate(counts[first : first + per_pair], 1):
            diag = k * tile
            lo_a, lo_b = cut_a, cut_b
            cut_a += count
            cut_b = diag - cut_a
            coalesced += _segments(lo_a, cut_a) + _segments(lo_b, cut_b)
            steps += (min(diag, run) - max(diag - n_b, 0)).bit_length()
    counters.global_read_transactions += 2 * steps + coalesced
    counters.global_read_requests += 2 * steps
    counters.global_write_transactions += len(counts) * (tile // 32)


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


def _lane_input(
    data: IntArray, bits: int = 1
) -> tuple[IntArray, int, Callable[[IntArray], IntArray]]:
    """``(keys, pad, restore)``: a lane sorts ``data`` itself, padded with
    ``max + 1``, unless its dense ranks (never past ``len(data)``) pack
    ``v << bits | tag`` narrower; then it sorts the ranks, padded with
    their count, and ``restore`` maps sorted keys back to values.  Both
    keep every comparison, hence every counter."""
    lo, pad = (int(data.min()), int(data.max()) + 1) if len(data) else (0, 0)
    kept = span_dtype(lo, pad, bits)
    # A signed dtype casts safely to another exactly when it is no wider.
    if kept is not None and np.can_cast(kept, span_dtype(0, len(data), bits)):
        return data, pad, lambda keys: keys
    values, ranks = np.unique(data, return_inverse=True)
    return ranks.astype(np.int64, copy=False), len(values), lambda keys: values[keys]


def _mergesort(
    data: IntArray,
    pad: int,
    E: int,
    u: int,
    w: int,
    variant: str,
    kernels: SortKernels,
) -> MergesortResult:
    """The skeleton: pad, blocksort, then merge pairwise level by level.

    ``pad`` fills the last tile; it must sort after every value of
    ``data``.  Each level has one ``kernels.merge`` call merge every
    pair of runs (an odd last run waits for the next level) and charges
    the level's global traffic from the returned A-counts; the sorted
    keys and the counters come from ``kernels.finish()``.
    """
    n = len(data)
    result = MergesortResult(
        data=np.array([], dtype=np.int64), n=n, variant=variant, E=E, u=u, w=w
    )
    if n == 0:
        return result

    tile = u * E
    n_tiles = (n + tile - 1) // tile
    total = n_tiles * tile
    padded = np.full(total, pad, dtype=np.int64)
    padded[:n] = data
    kernels.blocksort(padded.reshape(n_tiles, tile))
    del padded  # the kernels hold the keys from here
    _charge_tiles(result.global_stats, n_tiles, tile)

    run = tile
    while run < total:
        # An odd run count leaves a last run of at most ``run`` words.
        rest = total % (2 * run)
        paired = total - rest if rest <= run else total
        a_counts = kernels.merge(run, paired)
        _charge_level(result.global_stats, a_counts, run, paired, tile)
        result.merge_level_count += 1
        run *= 2

    keys, result.blocksort_stats, result.per_level = kernels.finish()
    for level_stats in result.per_level:
        result.merge_stats.merge_into(level_stats)
    result.data = keys[:n]
    return result


# ------------------------------------------------------- lockstep kernels
# ``blocksort_tile``, ``serial_merge_block`` and ``cf_merge_block`` are
# looked up as module globals at call time, so callers may wrap them.


def _lockstep_blocksort(
    tiles: IntArray, E: int, w: int, variant: str, read_policy: str
) -> tuple[IntArray, BlocksortStats]:
    """One simulated thread block per tile."""
    stats = BlocksortStats()
    runs = np.empty_like(tiles)
    for run, chunk in zip(runs, tiles):
        run[:], tile_stats = blocksort_tile(chunk, E, w, variant, read_policy=read_policy)
        stats.search.merge(tile_stats.search)
        stats.merge.merge(tile_stats.merge)
        stats.stage.merge(tile_stats.stage)
    return runs, stats


class _Lockstep:
    """One simulated thread block per tile, and per merge block cut by
    merge-path searches."""

    def __init__(
        self, E: int, u: int, w: int, variant: str, read_policy: str, simulate_search: bool
    ) -> None:
        self.E, self.u, self.w, self.variant = E, u, w, variant
        self.read_policy, self.simulate_search = read_policy, simulate_search
        self.blocksort_stats = BlocksortStats()
        self.per_level: list[MergePhaseStats] = []
        self.keys = np.zeros(0, dtype=np.int64)

    def blocksort(self, tiles: IntArray) -> None:
        runs, self.blocksort_stats = _lockstep_blocksort(
            tiles, self.E, self.w, self.variant, self.read_policy
        )
        self.keys = runs.reshape(-1)

    def merge(self, run: int, paired: int) -> IntArray:
        tile = self.u * self.E
        runs = self.keys[:paired]
        level_stats = MergePhaseStats()
        merged = np.empty_like(runs)
        a_counts = []
        for start in range(0, paired, 2 * run):
            a_run = runs[start : start + run]
            b_run = runs[start + run : start + 2 * run]
            prev_a = prev_b = 0
            for diag in range(tile, len(a_run) + len(b_run) + 1, tile):
                cut_a, cut_b = merge_path_search(a_run, b_run, diag)
                a_blk, b_blk = a_run[prev_a:cut_a], b_run[prev_b:cut_b]
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
                merged[start + diag - tile : start + diag] = merged_blk
                a_counts.append(cut_a - prev_a)
                prev_a, prev_b = cut_a, cut_b
        self.per_level.append(level_stats)
        runs[:] = merged
        return np.array(a_counts, dtype=np.int64)

    def finish(self) -> tuple[IntArray, BlocksortStats, list[MergePhaseStats]]:
        return self.keys, self.blocksort_stats, self.per_level


# -------------------------------------------------------- batched kernels


class _Lane:
    """A lane sort: its blocksort and merge levels on one level stack.

    :meth:`blocksort` queues the tiles' levels on a
    :class:`~repro.engine.batch.LevelStack`, which keeps their packed
    keys.  :meth:`merge` has the stack merge a level on those keys
    (:meth:`~repro.engine.batch.LevelStack.push_merge`): all equal-length
    run pairs with one in-place sort, a shorter last pair with one more,
    their merge tags queued as one ``u*E``-word row per block.  The stack
    profiles a full pass when the next level finds no slot, and the
    rest at :meth:`finish`, which unpacks the keys once, reads each
    level's counters from the stack and adds the compute ops in closed
    form.
    """

    def __init__(self, E: int, u: int, w: int, variant: str) -> None:
        self.E, self.u, self.w, self.variant = E, u, w, variant
        self.stack: LevelStack | None = None
        #: Blocks per merge level, in level order.
        self.blocks: list[int] = []

    def blocksort(self, tiles: IntArray) -> None:
        # The blocksort's levels, then one merge level per doubling of the runs.
        levels = self.u.bit_length() - 1 + (len(tiles) - 1).bit_length()
        self.stack = LevelStack(
            len(tiles), self.u, self.E, self.w, self.variant, levels, per_row=False
        )
        self.stack.blocksort(tiles)

    def merge(self, run: int, paired: int) -> IntArray:
        assert self.stack is not None, "blocksort runs first"
        n_a = self.stack.push_merge(run, paired)
        self.blocks.append(len(n_a))
        return n_a

    def finish(self) -> tuple[IntArray, BlocksortStats, list[MergePhaseStats]]:
        # The lane counts shared-memory traffic only; compute ops follow
        # in closed form from the kernels' instruction streams (``ops`` =
        # compare-exchanges of the E-wide odd-even network, ``L =
        # log2(u)`` blocksort levels).  The baseline runs the default
        # ``"bounded"`` read policy and every search is simulated: the
        # oracle's defaults.
        stack = self.stack
        assert stack is not None, "blocksort runs first"
        stack.flush()
        E, u, cf = self.E, self.u, self.variant == "cf"
        levels = u.bit_length() - 1
        ops = compare_exchange_count_odd_even(E)
        blocksort = BlocksortStats()
        blocksort.stage, blocksort.search, blocksort.merge, *late = stack.totals(levels)
        # One Compute per staged word: the load, one stage per level, the final stage.
        blocksort.stage.compute_ops = stack.rows * u * E * (levels + 2)
        # Three ops per bisection step (two reads per step).
        blocksort.search.compute_ops = 3 * blocksort.search.shared_requests // 2
        # Register sort, then per level one op per serial-merge output step,
        # or one per gathered word plus the register network.
        per_level = u * E + ops * u if cf else u * E
        blocksort.merge.compute_ops = stack.rows * (ops * u + levels * per_level)
        # Merge levels: two ops per bisection step (two reads per step), or
        # four with CF's position -> address mapping; one op per output
        # step, or one per gathered and per scattered word plus the network.
        per_step = 4 if cf else 2
        per_block = 2 * u * E + ops * u if cf else u * E
        merged = []
        for blocks, search, merge in zip(self.blocks, late[::2], late[1::2]):
            stats = MergePhaseStats(search, merge)
            stats.search.compute_ops = per_step * stats.search.shared_requests // 2
            stats.merge.compute_ops = blocks * per_block
            merged.append(stats)
        return stack.unpack(), blocksort, merged


def _batched_blocksort(
    tiles: IntArray, E: int, w: int, variant: str
) -> tuple[IntArray, BlocksortStats]:
    """Every tile on one lane level stack, counters split by phase."""
    lane = _Lane(E, tiles.shape[1] // E, w, variant)
    lane.blocksort(tiles)
    keys, stats, _ = lane.finish()
    return keys.reshape(tiles.shape), stats


def blocksort_segments(
    segments: Sequence[IntArray], E: int, u: int, w: int
) -> tuple[list[IntArray], Counters]:
    """Sort inputs of at most one tile each in one CF lane blocksort pass.

    Each non-empty segment fills its own tile, padded past every key of
    the batch, as a one-tile :func:`batched_mergesort`,
    ``batched_kway_sort`` or ``batched_sample_sort`` call pads it; an
    empty one takes no tile, as those calls charge an empty input
    nothing.  So the returned counters (blocksort phases plus one
    coalesced load and store per tile) equal the sum of those calls'
    ``total_counters`` with ``variant="cf"``.  The batch is ranked at
    most once (:func:`_lane_input`).  Returns the sorted segments and
    the counters; needs coprime ``(w, E)``.
    """
    tile = u * E
    lengths = np.array([len(segment) for segment in segments], dtype=np.int64)
    keys, pad, restore = _lane_input(np.concatenate([np.zeros(0, np.int64), *segments]))
    # Row-major, each non-empty segment's keys lead its own tile.
    words = np.arange(tile) < lengths[lengths > 0, None]
    runs = np.full(words.shape, pad, dtype=np.int64)
    runs[words] = keys
    counters = Counters()
    if len(runs):
        runs, stats = _batched_blocksort(runs, E, w, "cf")
        counters = stats.total
        _charge_tiles(counters, len(runs), tile)
    return np.split(restore(runs[words]), np.cumsum(lengths))[:-1], counters


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
        _Lockstep(E, u, w, variant, read_policy, simulate_search),
    )


def batched_mergesort(
    data, E: int, u: int, w: int = 32, variant: str = "thrust"
) -> MergesortResult:
    """:func:`gpu_mergesort` on the batched engine lane; same result.

    Same positional arguments and contract; every field of the returned
    :class:`MergesortResult` equals that of :func:`gpu_mergesort` at its
    defaults (``read_policy="bounded"``, searches simulated).  The lane
    runs on the input's own values, or on their dense ranks where those
    pack narrower (:func:`_lane_input`; both keep every comparison, hence
    every counter), and the output maps ranks back.  ``variant="cf"``
    with ``gcd(w, E) > 1`` has no exact lane profile and runs
    :func:`gpu_mergesort` itself.
    """
    data = _checked_input(data, variant)
    if variant == "cf" and not coprime(w, E):
        return gpu_mergesort(data, E, u, w, variant)
    keys, pad, restore = _lane_input(data)
    result = _mergesort(keys, pad, E, u, w, variant, _Lane(E, u, w, variant))
    result.data = restore(result.data)
    return result
