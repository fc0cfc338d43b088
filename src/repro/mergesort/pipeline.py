"""The full multi-level GPU mergesort driver (both variants).

Orchestrates blocksort over tiles of ``u*E`` elements followed by pairwise
merge levels, each output tile produced by one simulated thread block.
Global-memory traffic (coalesced tile loads/stores and the per-block
merge-path partition searches in global memory) is accounted analytically
— exactly, from the actual offsets.  Two entry points share that skeleton
and differ only in the kernels that count shared-memory traffic:

* :func:`gpu_mergesort` runs every shared-memory round through the
  lockstep simulator, one tile or block per kernel call — the oracle;
* :func:`batched_mergesort` blocksorts every tile in one fused pass of
  the batched engine lane (:mod:`repro.engine.batch`) and profiles each
  merge level's blocks in one batched search pass plus one batched merge
  pass, with compute ops derived in closed form.  Its result equals
  :func:`gpu_mergesort`'s on every field; CF at non-coprime ``(w, E)``
  (no exact lane profile there) is delegated to :func:`gpu_mergesort`.

Inputs of arbitrary length are padded to a whole number of tiles with
``+inf`` sentinels (Thrust pads likewise); sentinels are stripped from the
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np
import numpy.typing as npt

from repro.engine.batch import (
    batched_blocksort_phases,
    batched_cf_merge_profile,
    batched_search_profile,
    batched_serial_merge_profile,
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

__all__ = ["gpu_mergesort", "batched_mergesort", "MergesortResult"]

IntArray = npt.NDArray[np.int64]
Block = tuple[IntArray, IntArray]
#: Sorts a ``(tiles, u*E)`` matrix: ``-> (sorted rows, blocksort stats)``.
BlocksortKernel = Callable[[IntArray], tuple[list[IntArray], BlocksortStats]]
#: Merges one level's ``(A, B)`` blocks: ``-> (merged blocks, level stats)``.
MergeKernel = Callable[[list[Block]], tuple[list[IntArray], MergePhaseStats]]


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
    call.
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
    # Tile load + store, fully coalesced.
    result.global_stats.global_read_transactions += n_tiles * (tile // 32 + 1)
    result.global_stats.global_write_transactions += n_tiles * (tile // 32 + 1)

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
        merged, level_stats = merge(blocks)
        next_runs: list[IntArray] = []
        first = 0
        for count in pair_blocks:
            next_runs.append(np.concatenate(merged[first : first + count]))
            first += count
        if len(runs) % 2:
            next_runs.append(runs[-1])
        runs = next_runs
        result.per_level.append(level_stats)
        result.merge_stats.merge_into(level_stats)
        result.merge_level_count += 1

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


def _lockstep_merge(
    blocks: list[Block],
    E: int,
    w: int,
    variant: str,
    read_policy: str,
    simulate_search: bool,
) -> tuple[list[IntArray], MergePhaseStats]:
    """One simulated thread block per merge block."""
    level_stats = MergePhaseStats()
    merged = []
    for a_blk, b_blk in blocks:
        if variant == "thrust":
            merged_blk, stats = serial_merge_block(
                a_blk, b_blk, E, w,
                simulate_search=simulate_search,
                read_policy=read_policy,
            )
        else:
            merged_blk, stats = cf_merge_block(
                a_blk, b_blk, E, w, simulate_search=simulate_search
            )
        level_stats.merge_into(stats)
        merged.append(merged_blk)
    return merged, level_stats


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


def _batched_merge(
    blocks: list[Block], E: int, w: int, variant: str
) -> tuple[list[IntArray], MergePhaseStats]:
    """One level's blocks in one search pass plus one merge pass."""
    tile = len(blocks[0][0]) + len(blocks[0][1])
    u = tile // E
    level_stats = MergePhaseStats()
    level_stats.search = sum(
        batched_search_profile(blocks, E, w, mapped=variant == "cf"), Counters()
    )
    # Two ops per bisection step (two reads per step), or four with CF's
    # position -> address mapping.
    per_step = 2 if variant == "thrust" else 4
    level_stats.search.compute_ops = per_step * level_stats.search.shared_requests // 2
    if variant == "thrust":
        level_stats.merge = sum(batched_serial_merge_profile(blocks, E, w), Counters())
        # One op per output step.
        level_stats.merge.compute_ops = len(blocks) * u * E
    else:
        level_stats.merge = sum(
            batched_cf_merge_profile(len(blocks), tile, E, w), Counters()
        )
        # One op per gathered and per scattered word, plus the network.
        ops = compare_exchange_count_odd_even(E)
        level_stats.merge.compute_ops = len(blocks) * (2 * u * E + ops * u)
    merged = np.sort(np.stack([np.concatenate(blk) for blk in blocks]), axis=1)
    return list(merged), level_stats


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
        partial(
            _lockstep_merge, E=E, w=w, variant=variant,
            read_policy=read_policy, simulate_search=simulate_search,
        ),
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
        partial(_batched_merge, E=E, w=w, variant=variant),
    )
    result.data = values[result.data]
    return result
