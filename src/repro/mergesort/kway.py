"""True k-way merging: block kernel and sort pipeline.

Two layers, from the block kernel up:

* :func:`kway_merge_block` — one thread block merges ``k`` sorted runs
  whose lengths sum to ``u*E``: a host-assisted k-way merge-path
  partition (stable multisequence selection) hands each thread a
  ``k``-fragment window of exactly ``E`` elements, a staged CRS-style
  gather brings the window into registers, an oblivious odd-even
  network merges it, and the cached scatter plan writes it back.  Two
  gather schedules are provided (Sitchinava & Weichert's staging
  framework, generalized to ``k`` subsequences):

  - ``"staged"`` — ``k*E`` sub-rounds, one ``(run, residue)`` slot per
    round.  Each slot's active addresses form a subset of a
    stride-``E`` arithmetic progression, so the schedule is provably
    conflict free for coprime ``(E, w)`` at **every** ``k``.  For
    non-coprime geometries the ``rho`` partition shift is applied and
    the residual conflicts are measured, exactly like the pairwise CF
    kernel.
  - ``"fused"`` — ``E`` rounds; odd-indexed runs are reversed in the
    layout (the ``pi`` generalization) and each thread reads its ``E``
    elements in residue-sorted order.  For ``k == 2`` this *is* the
    paper's Algorithm 1 (zero conflicts, coprime geometry); for
    ``k > 2`` a thread's residues need not cover ``0..E-1``, the
    per-round address sets stop being permutations of residue classes,
    and the reappearing conflicts are measured rather than hidden.

  ``variant="thrust"`` replaces gather+network+scatter with the
  baseline per-thread *serial* k-way merge in shared memory (``k``
  head loads, then ``E`` data-dependent replacement reads) — the
  multiway analogue of the serial pairwise merge, conflict-prone.

* :func:`kway_sort` — the full pipeline: blocksort over ``u*E`` tiles,
  then ``ceil(log_k(n_tiles))`` k-way merge levels (vs. the pairwise
  pipeline's ``ceil(log2)``), with the same analytic global-memory
  accounting as :func:`repro.mergesort.pipeline.gpu_mergesort`.  As in
  that module, one host skeleton (padding, levels, global traffic from
  each block's fragment lengths) takes injected kernels:
  :func:`kway_sort` cuts every group block by block and runs each block
  on the lockstep simulator, and is the oracle;
  :func:`batched_kway_sort` merges each level's groups with one
  packed-key sort (plus one for a short last group) and profiles all
  of the level's blocks at once
  (:func:`~repro.engine.batch.kway_level_profile`).  It returns the
  same result on every field, for ``variant="cf"`` and the staged
  schedule (the ``kway`` service backend's configuration).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.engine.batch import (
    BatchCounters,
    kway_compute_ops,
    kway_gather_addresses,
    kway_level_profile,
    kway_merge_tags,
    kway_thread_cuts,
    odd_even_sort_rows,
)
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.mergesort.blocksort import BlocksortStats
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
from repro.sim.block import ThreadBlock
from repro.sim.counters import Counters
from repro.sim.instructions import Compute, Instruction, SharedRead, SharedWrite
from repro.sim.trace import AccessTrace

__all__ = [
    "kway_merge_path_search",
    "kway_merge_block",
    "kway_sort",
    "batched_kway_sort",
    "KwaySortResult",
    "kway_level_count",
]

IntArray = npt.NDArray[np.int64]
ThreadProgram = Generator[Instruction, "int | None", None]

#: Valid k-way gather schedules.
KWAY_SCHEDULES = ("staged", "fused")


# ------------------------------------------------------------- partitioning


def kway_merge_path_search(
    runs: Sequence[npt.ArrayLike], diagonal: int
) -> tuple[int, ...]:
    """Stable k-way merge-path cut: how far each run reaches ``diagonal``.

    The multiway generalization of the two-run merge-path search:
    returns ``cuts`` with ``sum(cuts) == diagonal`` such that the first
    ``diagonal`` elements of the stable k-way merge are exactly
    ``runs[r][:cuts[r]]`` for every ``r``.  Ties are broken by run
    index then in-run position (the stability contract every kernel in
    this module shares), implemented as a multisequence selection: find
    the ``diagonal``-th smallest value, count strictly-smaller entries
    per run, and distribute the leftover equal entries in run order.
    """
    arrays = [np.asarray(r, dtype=np.int64) for r in runs]
    if not arrays:
        raise ParameterError("kway_merge_path_search needs at least one run")
    lens = [len(a) for a in arrays]
    total = sum(lens)
    if not 0 <= diagonal <= total:
        raise ParameterError(
            f"diagonal {diagonal} out of range [0, {total}]"
        )
    if diagonal == 0:
        return (0,) * len(arrays)
    if diagonal == total:
        return tuple(lens)
    flat = np.concatenate(arrays)
    pivot = int(np.partition(flat, diagonal - 1)[diagonal - 1])
    less = [int(np.searchsorted(a, pivot, side="left")) for a in arrays]
    equal = [
        int(np.searchsorted(a, pivot, side="right")) - lo
        for a, lo in zip(arrays, less)
    ]
    need = diagonal - sum(less)
    cuts: list[int] = []
    for lo, eq in zip(less, equal):
        take = min(eq, need)
        cuts.append(lo + take)
        need -= take
    return tuple(cuts)


def kway_level_count(n_runs: int, k: int) -> int:
    """Merge levels :func:`kway_sort` executes: ``ceil(log_k(n_runs))``."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    levels = 0
    remaining = n_runs
    while remaining > 1:
        remaining = -(-remaining // k)
        levels += 1
    return levels


# ------------------------------------------------------------ thread programs


def _kway_search_kernel(
    pivot: int, lens: Sequence[int], addr_of: Callable[[int, int], int], k: int
) -> ThreadProgram:
    """Per-thread multisequence selection traffic: one lower-bound binary
    search per run against the thread's (host-computed) pivot value.

    As in the pairwise kernels, the driver recomputes the cut; the
    program replicates the honest traffic shape — it reads the staged
    cells through the layout mapping and compares them.
    """
    for r in range(k):
        lo, hi = 0, int(lens[r])
        while lo < hi:
            mid = (lo + hi) // 2
            yield Compute(2)
            value = yield SharedRead(addr_of(r, mid))
            assert value is not None
            if value < pivot:
                lo = mid + 1
            else:
                hi = mid


def _kway_gather_kernel(
    addresses: IntArray, active: npt.NDArray[np.bool_], regs: list[int]
) -> ThreadProgram:
    """Slot-scheduled gather: inactive slots predicate to ``Compute(0)``
    pairs so the warp stays lockstep-aligned without joining the access
    round."""
    for s in range(len(addresses)):
        if active[s]:
            yield Compute(1)
            value = yield SharedRead(int(addresses[s]))
            assert value is not None
            regs.append(value)
        else:
            yield Compute(0)
            yield Compute(0)


def _kway_scatter_kernel(addresses: IntArray, values: IntArray) -> ThreadProgram:
    for j in range(len(addresses)):
        yield Compute(1)
        yield SharedWrite(int(addresses[j]), int(values[j]))


def _kway_serial_kernel(
    starts: IntArray,
    ends: IntArray,
    addr_of: Callable[[int, int], int],
    out_row: IntArray,
    E: int,
    k: int,
) -> ThreadProgram:
    """Baseline per-thread serial k-way merge: ``k`` head loads, then
    ``E`` replacement reads following the taken run — fully
    data-dependent shared traffic, the multiway conflict-prone shape."""
    heads: list[int | None] = [None] * k
    ptrs = [int(p) for p in starts]
    stops = [int(p) for p in ends]
    for r in range(k):
        if ptrs[r] < stops[r]:
            yield Compute(1)
            head = yield SharedRead(addr_of(r, ptrs[r]))
            assert head is not None
            heads[r] = head
        else:
            yield Compute(0)
            yield Compute(0)
    for step in range(E):
        yield Compute(k)  # the k-way minimum (ties to the lowest run index)
        taken = -1
        best = 0
        for r in range(k):
            h = heads[r]
            if h is not None and (taken < 0 or h < best):
                taken, best = r, h
        out_row[step] = best
        ptrs[taken] += 1
        if ptrs[taken] < stops[taken]:
            refill = yield SharedRead(addr_of(taken, ptrs[taken]))
            assert refill is not None
            heads[taken] = refill
        else:
            heads[taken] = None
            yield Compute(0)


# ------------------------------------------------------------- block kernel


def kway_merge_block(
    runs: Sequence[npt.ArrayLike],
    E: int,
    w: int,
    *,
    variant: str = "cf",
    schedule: str = "staged",
    simulate_search: bool = True,
    trace: AccessTrace | None = None,
) -> tuple[IntArray, MergePhaseStats]:
    """Merge ``k >= 2`` sorted runs totalling ``u*E`` elements in one block.

    ``variant="cf"`` stages the concatenated runs in shared memory
    through the cached ``rho`` plan, gathers each thread's ``E``-element
    window with the selected ``schedule`` (see the module docstring),
    merges in registers with the odd-even network, and scatters through
    the cached scatter plan.  ``variant="thrust"`` serially k-way merges
    each window directly in shared memory (plain layout, data-dependent
    reads).  Empty and unequal runs are fine; the run lengths must sum
    to a positive multiple of ``E`` whose quotient ``u`` is a multiple
    of ``w``.

    Returns the merged array and per-phase counters; the trace phases
    are ``"search"``, then ``"gather"``/``"scatter"`` (cf) or
    ``"merge"`` (thrust).
    """
    if variant not in ("thrust", "cf"):
        raise ParameterError(f"unknown variant {variant!r}")
    if schedule not in KWAY_SCHEDULES:
        raise ParameterError(f"unknown k-way schedule {schedule!r}")
    arrays = [np.asarray(r, dtype=np.int64) for r in runs]
    k = len(arrays)
    if k < 2:
        raise ParameterError(f"kway_merge_block needs k >= 2 runs, got {k}")
    for i, run in enumerate(arrays):
        if run.ndim != 1:
            raise ParameterError(f"run {i} is not one-dimensional")
        # Neighbours, not np.diff: a difference of 2^63 or more wraps.
        if np.any(run[1:] < run[:-1]):
            raise ParameterError(f"run {i} is not sorted")
    total = sum(len(a) for a in arrays)
    if total == 0:
        raise ParameterError("kway_merge_block needs a non-empty total")
    if total % E:
        raise ParameterError(f"total length {total} is not a multiple of E={E}")
    u = total // E
    if u % w:
        raise ParameterError(f"block width u={u} must be a multiple of w={w}")

    cuts, bases, merged = kway_thread_cuts(arrays, E)
    lens = np.asarray(cuts[-1], dtype=np.int64)
    stats = MergePhaseStats()
    counters = stats.merge

    if variant == "thrust":
        staged = np.concatenate(arrays)

        def addr_of(r: int, m: int) -> int:
            return int(bases[r]) + m

    else:
        rho_fwd = np.asarray(get_plan("rho", total, E, w)["fwd"])
        if schedule == "fused":
            parts = [a if r % 2 == 0 else a[::-1] for r, a in enumerate(arrays)]
        else:
            parts = arrays
        staged = np.empty(total, dtype=np.int64)
        staged[rho_fwd] = np.concatenate(parts)

        def addr_of(r: int, m: int) -> int:
            if schedule == "fused" and r % 2:
                pos = int(bases[r]) + int(lens[r]) - 1 - m
            else:
                pos = int(bases[r]) + m
            return int(rho_fwd[pos])

    if simulate_search:
        diagonals = np.maximum(np.arange(u, dtype=np.int64) * E - 1, 0)
        pivots = merged[diagonals]

        def search_factory(tid: int) -> ThreadProgram:
            return _kway_search_kernel(
                int(pivots[tid]), [int(x) for x in lens], addr_of, k
            )

        if trace is not None:
            trace.set_phase("search")
        search_block = ThreadBlock(
            u=u, w=w, shared_words=total, program_factory=search_factory,
            counters=stats.search, trace=trace,
        )
        search_block.shared.load_array(staged)
        search_block.run()

    if variant == "thrust":
        out_matrix = np.zeros((u, E), dtype=np.int64)
        if trace is not None:
            trace.set_phase("merge")
        merge_exec = ThreadBlock(
            u=u, w=w, shared_words=total,
            program_factory=lambda tid: _kway_serial_kernel(
                cuts[tid], cuts[tid + 1], addr_of, out_matrix[tid], E, k
            ),
            counters=counters, trace=trace,
        )
        merge_exec.shared.load_array(staged)
        merge_exec.run()
        flat_out = out_matrix.reshape(-1)
        if not np.array_equal(flat_out, merged):  # pragma: no cover
            raise ParameterError("k-way serial merge mismatch")
        return flat_out, stats

    # --- CF path: gather -> register network -> scatter -------------------
    gather_addr, gather_active = kway_gather_addresses(
        cuts, bases, lens, E, w, rho_fwd, schedule
    )
    reg_rows: list[list[int]] = [[] for _ in range(u)]
    if trace is not None:
        trace.set_phase("gather")
    gather_exec = ThreadBlock(
        u=u, w=w, shared_words=total,
        program_factory=lambda tid: _kway_gather_kernel(
            gather_addr[tid], gather_active[tid], reg_rows[tid]
        ),
        counters=counters, trace=trace,
    )
    gather_exec.shared.load_array(staged)
    gather_exec.run()

    reg_matrix = np.array(reg_rows, dtype=np.int64)
    merged_matrix, ops_per_row = odd_even_sort_rows(reg_matrix)
    counters.compute_ops += ops_per_row * u

    # Cross-check: the simulated gather + network equals the host merge.
    expected = merged.reshape(u, E)
    if not np.array_equal(merged_matrix, expected):  # pragma: no cover
        bad = int(np.flatnonzero((merged_matrix != expected).any(axis=1))[0])
        raise ParameterError(f"k-way gather mismatch for thread {bad}")

    scatter_addr = np.asarray(get_plan("scatter", total, E, w)["fwd"]).reshape(u, E)
    if trace is not None:
        trace.set_phase("scatter")
    scatter_exec = ThreadBlock(
        u=u, w=w, shared_words=total,
        program_factory=lambda tid: _kway_scatter_kernel(
            scatter_addr[tid], merged_matrix[tid]
        ),
        counters=counters, trace=trace,
    )
    scatter_exec.run()

    data = scatter_exec.shared.snapshot()
    out = np.asarray(data[rho_fwd], dtype=np.int64)
    return out, stats


# ------------------------------------------------------------ sort pipeline


@dataclass
class KwaySortResult:
    """Everything measured while k-way sorting one input."""

    #: The sorted output (same length as the input).
    data: IntArray
    #: Input length (before padding).
    n: int
    #: Merge fan-in.
    k: int
    #: ``"thrust"`` or ``"cf"``.
    variant: str
    #: ``"staged"`` or ``"fused"`` (cf gather schedule).
    schedule: str
    E: int
    u: int
    w: int
    #: Number of k-way merge levels executed after blocksort.
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
        """Bank-conflict replays during merge phases only (the CF claim)."""
        return (
            self.blocksort_stats.merge.shared_replays
            + self.merge_stats.merge.shared_replays
        )

    def as_dict(self) -> dict[str, Any]:
        """Every field as plain JSON types, counters keyed by phase and level."""
        out: dict[str, Any] = {
            "data": self.data.tolist(),
            "n": self.n,
            "k": self.k,
            "variant": self.variant,
            "schedule": self.schedule,
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


# Kernels a level hands its runs to: ``merge(runs, run)`` merges each
# group of ``k`` ``run``-word runs (the last may hold fewer words) and
# returns the merged groups, each ``u*E``-word block's fragment length
# in each run of its group (``(blocks, k)``) and the level's counters.
KwayMergeKernel = Callable[[IntArray, int], tuple[IntArray, IntArray, MergePhaseStats]]


def _checked_args(
    data: npt.ArrayLike, k: int, variant: str, schedule: str, read_policy: str
) -> IntArray:
    """Validate what both entry points share; return ``data`` as int64."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if schedule not in KWAY_SCHEDULES:
        raise ParameterError(f"unknown k-way schedule {schedule!r}")
    if read_policy not in ("bounded", "always"):
        raise ParameterError(f"unknown read_policy {read_policy!r}")
    return _checked_input(data, variant)


def _charge_kway_level(counters: Counters, counts: IntArray, run: int, tile: int) -> None:
    """Charge one merge level's global traffic from its blocks' fragments.

    Groups are back to back in ``counts``, ``k*run // tile`` blocks to a
    full one.  Each block reads the coalesced segments of its fragments
    (offsets within their runs) and writes one tile.  Each cut inside a
    group is one bisection per run in global memory, of the bit length
    of the run's length in steps, each reading one word.
    """
    per_group = counts.shape[1] * run // tile
    steps = coalesced = 0
    for first in range(0, len(counts), per_group):
        hi = np.cumsum(counts[first : first + per_group], axis=0)
        lo = hi - counts[first : first + per_group]
        coalesced += int(np.where(hi > lo, (hi - 1) // 32 - lo // 32 + 1, 0).sum())
        steps += (len(hi) - 1) * sum(int(n).bit_length() for n in hi[-1])
    counters.global_read_transactions += steps + coalesced
    counters.global_read_requests += steps
    counters.global_write_transactions += len(counts) * (tile // 32)


def _kway_sort(
    values: IntArray, pad: int, k: int, E: int, u: int, w: int, variant: str,
    schedule: str, blocksort: BlocksortKernel, merge: KwayMergeKernel,
) -> KwaySortResult:
    """The skeleton: pad, blocksort, then merge ``k`` runs per group.

    ``pad`` fills the last tile; it must sort after every value.  Each
    level hands every group of up to ``k`` runs to one ``merge`` call (a
    last group of one run waits for the next level) and charges the
    level's global traffic from the returned fragment lengths.
    """
    n = len(values)
    result = KwaySortResult(
        data=np.array([], dtype=np.int64), n=n, k=k, variant=variant,
        schedule=schedule, E=E, u=u, w=w,
    )
    if n == 0:
        return result

    tile = u * E
    n_tiles = (n + tile - 1) // tile
    padded = np.full(n_tiles * tile, pad, dtype=np.int64)
    padded[:n] = values
    keys, result.blocksort_stats = blocksort(padded.reshape(n_tiles, tile))
    keys = keys.reshape(-1)
    _charge_tiles(result.global_stats, n_tiles, tile)

    run = tile
    while run < len(keys):
        rest = len(keys) % (k * run)
        grouped = len(keys) - rest if rest <= run else len(keys)
        keys[:grouped], counts, level_stats = merge(keys[:grouped], run)
        _charge_kway_level(result.global_stats, counts, run, tile)
        result.per_level.append(level_stats)
        result.merge_stats.merge_into(level_stats)
        result.merge_level_count += 1
        run *= k
    result.data = keys[:n]
    return result


def _lockstep_merge(
    runs: IntArray, run: int, k: int, E: int, u: int, w: int, variant: str,
    schedule: str, simulate_search: bool,
) -> tuple[IntArray, IntArray, MergePhaseStats]:
    """One simulated thread block per block, cut from its group by the
    stable k-way merge path."""
    tile = u * E
    level_stats = MergePhaseStats()
    merged = np.empty_like(runs)
    counts = np.zeros((len(runs) // tile, k), dtype=np.int64)
    block = 0
    for start in range(0, len(runs), k * run):
        group = [runs[p : p + run] for p in range(start, min(start + k * run, len(runs)), run)]
        cuts = kway_thread_cuts(group, tile)[0]
        for prev, cut in zip(cuts, cuts[1:]):
            merged[block * tile : (block + 1) * tile], stats = kway_merge_block(
                [r[p:c] for r, p, c in zip(group, prev, cut)], E, w,
                variant=variant, schedule=schedule, simulate_search=simulate_search,
            )
            level_stats.merge_into(stats)
            counts[block, : len(group)] = cut - prev
            block += 1
    return merged, counts, level_stats


def _lane_merge(
    runs: IntArray, run: int, k: int, E: int, u: int, w: int
) -> tuple[IntArray, IntArray, MergePhaseStats]:
    """Every full group as a row of one packed-key sort, a short last
    group as one more, their ``u*E``-word blocks as one lane level.

    A short group's missing runs are empty fragments, whose gather slots
    no warp issues.  Compute ops are closed form (:func:`kway_compute_ops`).
    """
    tile = u * E
    full = len(runs) - len(runs) % (k * run)
    blocks = []
    for lo, hi in ((0, full), (full, len(runs))):
        if hi > lo:
            rows = runs[lo:hi].reshape(-1, min(k * run, hi - lo))
            tags = np.arange(rows.shape[1]) // run
            blocks.append(kway_merge_tags(rows, tags, k).reshape(-1, tile))
    packed = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    search, merge = BatchCounters(len(packed), u, w), BatchCounters(len(packed), u, w)
    counts = kway_level_profile(packed, k, E, w, search=search, merge=merge)
    stats = MergePhaseStats(search.total(), merge.total())
    per_read, per_block = kway_compute_ops(E, u)
    stats.search.compute_ops = per_read * stats.search.shared_requests
    stats.merge.compute_ops = per_block * len(counts)
    return (packed >> (k - 1).bit_length()).reshape(-1), counts, stats


def kway_sort(
    data: npt.ArrayLike,
    k: int,
    E: int,
    u: int,
    w: int = 32,
    *,
    variant: str = "cf",
    schedule: str = "staged",
    read_policy: str = "bounded",
    simulate_search: bool = True,
) -> KwaySortResult:
    """Sort ``data`` with blocksort + ``ceil(log_k(n_tiles))`` merge levels.

    The k-way analogue of :func:`repro.mergesort.pipeline.gpu_mergesort`:
    identical blocksort and identical global-memory accounting style,
    but each merge level combines up to ``k`` runs per group through
    :func:`kway_merge_block`, so an ``n``-element input needs
    ``ceil(log_k(n / (u*E)))`` levels instead of ``ceil(log2(...))``.
    Every shared-memory round runs on the lockstep simulator: this is
    the oracle :func:`batched_kway_sort` is checked against.
    """
    values = _checked_args(data, k, variant, schedule, read_policy)
    return _kway_sort(
        values, SENTINEL, k, E, u, w, variant, schedule,
        partial(_lockstep_blocksort, E=E, w=w, variant=variant, read_policy=read_policy),
        partial(
            _lockstep_merge, k=k, E=E, u=u, w=w, variant=variant, schedule=schedule,
            simulate_search=simulate_search,
        ),
    )


def batched_kway_sort(
    data: npt.ArrayLike, k: int, E: int, u: int, w: int = 32
) -> KwaySortResult:
    """:func:`kway_sort` on the batched engine lane; same result.

    Every field of the returned :class:`KwaySortResult` equals that of
    :func:`kway_sort` at its defaults (``variant="cf"``, the ``"staged"``
    schedule, ``read_policy="bounded"``, searches simulated).  Every
    tile is blocksorted in one fused lane pass, and each merge level is
    one lane level (:func:`~repro.engine.batch.kway_level_profile`).
    The lane runs on the input's own values, or on their dense ranks
    where those pack narrower beside the run tags
    (:func:`~repro.mergesort.pipeline._lane_input`).  With ``gcd(w, E) >
    1`` there is no exact lane profile and :func:`kway_sort` runs instead.
    """
    values = _checked_args(data, k, "cf", "staged", "bounded")
    if not coprime(w, E):
        return kway_sort(values, k, E, u, w)
    keys, pad, restore = _lane_input(values, (k - 1).bit_length())
    result = _kway_sort(
        keys, pad, k, E, u, w, "cf", "staged",
        partial(_batched_blocksort, E=E, w=w, variant="cf"),
        partial(_lane_merge, k=k, E=E, u=u, w=w),
    )
    result.data = restore(result.data)
    return result
