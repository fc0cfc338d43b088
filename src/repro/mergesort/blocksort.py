"""Blocksort: each thread block sorts one tile of ``u * E`` elements.

Pipeline (mirrors Thrust's CTA mergesort):

1. *Load*: each thread reads its ``E`` contiguous elements from shared
   memory into registers (round ``m`` touches addresses ``{iE + m}`` — a
   complete residue system when ``GCD(w, E) == 1``, which is exactly the
   coprime heuristic's purpose) and sorts them with the odd-even
   transposition network.
2. *Merge levels*: ``log2(u)`` rounds; at level ``g`` (group size, runs of
   ``g*E`` elements), pairs of runs are merged by ``2g`` threads each.
   Every level stages the current runs to shared memory, finds per-thread
   splits by merge-path search, and merges:

   * ``variant="thrust"`` — the serial merge of
     :mod:`repro.mergesort.serial_merge`, reading shared memory with
     data-dependent addresses (conflicts measured);
   * ``variant="cf"`` — the staging pass writes each pair's runs in the
     *gather layout* (``B``-side run reversed within its pair region — a
     free permutation of the writes, conflict free because each round's
     destinations form one residue class inside an aligned ``wE`` window),
     then the dual subsequence gather loads registers conflict free and
     the odd-even network merges them.

3. *Final stage*: the sorted tile is written back to shared in plain
   order, ready for the coalesced global store.

``u`` must be a power of two (as are Thrust's 256/512).  The non-coprime
case is supported with best-effort conflict avoidance: ``rho`` is applied
per pair region whenever the region is a multiple of the partition size;
remaining conflicts are *measured*, never hidden (the paper's own
implementation is coprime-only).
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import partition_size
from repro.engine.batch import odd_even_sort_rows
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.mergesort.merge_path import merge_path_partition
from repro.mergesort.stats import MergePhaseStats
from repro.sim.block import ThreadBlock
from repro.sim.counters import Counters
from repro.sim.instructions import Compute, SharedRead, SharedWrite
from repro.sim.trace import AccessTrace

__all__ = ["blocksort_tile", "BlocksortStats"]


class BlocksortStats(MergePhaseStats):
    """Phase counters for blocksort; adds the staging write/read passes."""

    def __init__(self) -> None:
        super().__init__()
        self.stage = Counters()

    @property
    def total(self) -> Counters:
        return self.search + self.merge + self.stage


def _region_rho(region: int, w: int, E: int) -> np.ndarray:
    """The pair region's position->address table, from the plan cache.

    ``rho`` needs the region to be a whole number of ``wE/d`` partitions;
    for smaller (sub-partition) pair regions it degrades to the identity —
    any resulting conflicts are measured, not hidden.  With ``d == 1``
    ``rho`` is the identity anyway.
    """
    if region % partition_size(w, E) == 0:
        return np.asarray(get_plan("rho", region, E, w)["fwd"])
    return np.asarray(get_plan("tids", region, 0, 1)["tids"])


def _stage_kernel_plain(tid: int, E: int, values: np.ndarray):
    """Write the thread's ``E`` registers to ``[iE, iE+E)`` (round m -> iE+m)."""

    def program():
        base = tid * E
        for m in range(E):
            yield Compute(1)
            yield SharedWrite(base + m, int(values[m]))

    return program()


def _stage_kernel_pair_layout(
    tid: int, E: int, values: np.ndarray, region: int, rho_tab: np.ndarray
):
    """Write registers into the pair gather layout (CF variant staging).

    Element ``m`` of thread ``tid`` lives at global input position
    ``q = tid*E + m``; within its pair region (size ``region = 2R``) the
    ``A``-side half keeps its position and the ``B``-side half reverses.
    Each element is written in round ``dest mod E`` so every round's
    destinations lie in one residue class — conflict free for coprime
    ``w, E``.
    """
    base = tid * E
    pbase = (base // region) * region
    half = region // 2

    dests = []
    for m in range(E):
        local = (base + m) - pbase
        dest_local = local if local < half else (3 * half - 1 - local)
        dest = pbase + int(rho_tab[dest_local])
        dests.append((dest % E, dest, m))
    dests.sort()  # execute in round order

    def program():
        for _, dest, m in dests:
            yield Compute(1)
            yield SharedWrite(dest, int(values[m]))

    return program()


def _load_kernel(tid: int, E: int, out: np.ndarray):
    """Read the thread's ``E`` contiguous elements (round m -> iE+m)."""

    def program():
        base = tid * E
        for m in range(E):
            yield Compute(1)
            out[m] = yield SharedRead(base + m)

    return program()


def _pair_search_kernel(
    tid: int, E: int, pbase: int, half: int, mapped: bool, rho_tab: np.ndarray
):
    """Merge-path search within the thread's pair region.

    ``mapped=True`` reads through the CF layout (B reversed, ``rho``).
    """
    region = 2 * half
    tau = tid - (pbase // E)  # thread index within the pair
    diagonal = tau * E

    def a_addr(x):
        return pbase + (int(rho_tab[x]) if mapped else x)

    def b_addr(x):
        if mapped:
            return pbase + int(rho_tab[region - 1 - x])
        return pbase + half + x

    def program():
        lo = max(0, diagonal - half)
        hi = min(diagonal, half)
        while lo < hi:
            mid = (lo + hi) // 2
            yield Compute(3)
            a_val = yield SharedRead(a_addr(mid))
            b_val = yield SharedRead(b_addr(diagonal - 1 - mid))
            if a_val <= b_val:
                lo = mid + 1
            else:
                hi = mid

    return program()


def _pair_serial_merge_kernel(
    tid, E, pbase, half, a_lo, a_len, b_lo, b_len, out, read_policy
):
    """Baseline serial merge within a pair region (addresses pair-relative)."""
    SENTINEL = np.iinfo(np.int64).max
    a_ptr = pbase + a_lo
    a_end = a_ptr + a_len
    b_ptr = pbase + half + b_lo
    b_end = b_ptr + b_len

    def program():
        # Predicated-off loads still occupy a lockstep slot (Compute(0)) so
        # the warp stays aligned; see serial_merge._merge_kernel.
        pa, pb = a_ptr, b_ptr
        if pa < a_end:
            a_key = yield SharedRead(pa)
        else:
            yield Compute(0)
            a_key = SENTINEL
        if pb < b_end:
            b_key = yield SharedRead(pb)
        else:
            yield Compute(0)
            b_key = SENTINEL
        for step in range(E):
            yield Compute(1)
            take_a = pa < a_end and (pb >= b_end or a_key <= b_key)
            if take_a:
                out[step] = a_key
                pa += 1
                if pa < a_end:
                    a_key = yield SharedRead(pa)
                elif read_policy == "always":
                    yield SharedRead(a_end - 1)
                    a_key = SENTINEL
                else:
                    yield Compute(0)
                    a_key = SENTINEL
            else:
                out[step] = b_key
                pb += 1
                if pb < b_end:
                    b_key = yield SharedRead(pb)
                elif read_policy == "always":
                    yield SharedRead(b_end - 1)
                    b_key = SENTINEL
                else:
                    yield Compute(0)
                    b_key = SENTINEL

    return program()


def _pair_gather_kernel(tid, E, pbase, half, a_off, a_len, out, rho_tab):
    """CF gather within a pair region (Algorithm 1, pair-relative).

    ``a_off`` is the thread's offset into the pair's A run; ``B``'s
    elements sit reversed in the upper half of the region.
    """
    region = 2 * half
    tau = tid - (pbase // E)
    b_off = tau * E - a_off
    k = a_off % E

    def program():
        for j in range(E):
            yield Compute(1)
            a_idx = (j - k) % E
            if a_idx < a_len:
                local = a_off + a_idx
            else:
                b_idx = (k - j - 1) % E
                local = region - 1 - (b_off + b_idx)
            out[j] = yield SharedRead(pbase + int(rho_tab[local]))

    return program()


def blocksort_tile(
    tile,
    E: int,
    w: int,
    variant: str = "thrust",
    *,
    read_policy: str = "bounded",
    trace: AccessTrace | None = None,
) -> tuple[np.ndarray, BlocksortStats]:
    """Sort one tile of ``u*E`` elements with a simulated thread block.

    Returns the sorted tile and per-phase counters.  ``u`` is inferred from
    ``len(tile) / E`` and must be a power-of-two multiple of ``w``.
    """
    if variant not in ("thrust", "cf"):
        raise ParameterError(f"unknown variant {variant!r}")
    if read_policy not in ("bounded", "always"):
        raise ParameterError(f"unknown read_policy {read_policy!r}")
    tile = np.asarray(tile, dtype=np.int64)
    if len(tile) % E:
        raise ParameterError(f"tile length {len(tile)} not a multiple of E={E}")
    u = len(tile) // E
    if u % w or u < w:
        raise ParameterError(f"thread count {u} must be a positive multiple of w={w}")
    if u & (u - 1):
        raise ParameterError(f"thread count {u} must be a power of two")

    stats = BlocksortStats()
    shared_words = u * E

    # --- phase 1: load E contiguous elements per thread, sort in registers
    regs = [np.empty(E, dtype=np.int64) for _ in range(u)]
    if trace is not None:
        trace.set_phase("stage")
    load_block = ThreadBlock(
        u=u, w=w, shared_words=shared_words,
        program_factory=lambda tid: _load_kernel(tid, E, regs[tid]),
        counters=stats.stage, trace=trace,
    )
    load_block.shared.load_array(tile)
    load_block.run()
    sorted_rows, ops_per_row = odd_even_sort_rows(np.stack(regs))
    stats.merge.compute_ops += ops_per_row * u
    regs = list(sorted_rows)

    # --- phase 2: log2(u) merge levels --------------------------------
    g = 1
    while g < u:
        region = 2 * g * E  # pair region size, in elements
        half = g * E
        rho_tab = _region_rho(region, w, E)

        # Stage current runs to shared (plain for baseline, pair layout for CF).
        if variant == "thrust":
            def stage_factory(tid, _E=E, _regs=regs):
                return _stage_kernel_plain(tid, _E, _regs[tid])
        else:
            def stage_factory(tid, _E=E, _regs=regs, _region=region, _tab=rho_tab):
                return _stage_kernel_pair_layout(tid, _E, _regs[tid], _region, _tab)
        if trace is not None:
            trace.set_phase("stage")
        stage_block = ThreadBlock(
            u=u, w=w, shared_words=shared_words,
            program_factory=stage_factory, counters=stats.stage, trace=trace,
        )
        stage_block.run()
        staged = stage_block.shared.snapshot()

        # Host mirror of the runs (plain order) for split computation.
        plain = np.concatenate(regs)

        # Per-pair merge-path splits.
        n_pairs = u * E // region
        pair_sizes: list[list[int]] = []
        for p in range(n_pairs):
            a_run = plain[p * region : p * region + half]
            b_run = plain[p * region + half : (p + 1) * region]
            cuts = merge_path_partition(a_run, b_run, E)
            pair_sizes.append(
                [cuts[t + 1][0] - cuts[t][0] for t in range(region // E)]
            )

        # Search traffic.
        def search_factory(tid):
            p = (tid * E) // region
            return _pair_search_kernel(
                tid, E, p * region, half, mapped=(variant == "cf"), rho_tab=rho_tab
            )

        if trace is not None:
            trace.set_phase("search")
        search_block = ThreadBlock(
            u=u, w=w, shared_words=shared_words,
            program_factory=search_factory, counters=stats.search, trace=trace,
        )
        search_block.shared.load_array(staged)
        search_block.run()

        # Merge.
        outputs = [np.empty(E, dtype=np.int64) for _ in range(u)]
        if variant == "thrust":
            def merge_factory(tid):
                p = (tid * E) // region
                tau = tid - p * (region // E)
                sizes = pair_sizes[p]
                a_off = sum(sizes[:tau])
                b_off = tau * E - a_off
                return _pair_serial_merge_kernel(
                    tid, E, p * region, half, a_off, sizes[tau],
                    b_off, E - sizes[tau], outputs[tid], read_policy,
                )
        else:
            def merge_factory(tid):
                p = (tid * E) // region
                tau = tid - p * (region // E)
                sizes = pair_sizes[p]
                a_off = sum(sizes[:tau])
                return _pair_gather_kernel(
                    tid, E, p * region, half, a_off, sizes[tau], outputs[tid],
                    rho_tab,
                )

        if trace is not None:
            trace.set_phase("merge")
        merge_block = ThreadBlock(
            u=u, w=w, shared_words=shared_words,
            program_factory=merge_factory, counters=stats.merge, trace=trace,
        )
        merge_block.shared.load_array(staged)
        merge_block.run()

        if variant == "cf":
            sorted_rows, ops_per_row = odd_even_sort_rows(np.stack(outputs))
            stats.merge.compute_ops += ops_per_row * u
            outputs = list(sorted_rows)

        regs = outputs
        g *= 2

    # --- phase 3: final staging (plain order, for the coalesced store) ----
    final_block = ThreadBlock(
        u=u, w=w, shared_words=shared_words,
        program_factory=lambda tid: _stage_kernel_plain(tid, E, regs[tid]),
        counters=stats.stage,
    )
    final_block.run()
    return final_block.shared.snapshot(), stats
