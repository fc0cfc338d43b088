"""Cross-tile vectorized conflict profiling (the batched engine core).

The lockstep simulator in :mod:`repro.sim` is exact but advances one
generator per thread per round — too slow to profile thousands of
tiles.  This module recomputes the *same* shared-memory round counts
with NumPy: it stacks same-shape tiles into 2D ``(tiles, lane)`` arrays
and runs each warp-synchronous round as **one** vectorized pass over
every tile at once, accumulating per-tile
:class:`~repro.sim.counters.Counters` in a struct-of-arrays
(:class:`BatchCounters`).  Only the shared read/write rounds are modeled
(they are what differs per input); compute costs are analytic in
:mod:`repro.perf.cost_model`.  A single tile is simply a batch of one.

Bit-identity contract: every profile here returns, per tile, exactly the
shared-memory counters the lockstep simulator reports for that tile
(:func:`~repro.mergesort.serial_merge.serial_merge_block`,
:func:`~repro.mergesort.cf.cf_merge_block`,
:func:`~repro.mergesort.blocksort.blocksort_tile`; cross-validated in
the test-suite, e.g. ``tests/test_engine_batch.py``).
The accumulator makes warps globally distinct across tiles (warp slot =
``tile * ceil(u/w) + tid // w``), so dedup/bincount statistics never mix
tiles; data-dependent loops run while *any* tile is live — extra
iterations contribute nothing to tiles that already converged, because
every count is masked per lane.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.engine.arena import ENGINE_ARENA
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.numtheory import coprime
from repro.sim.counters import Counters

__all__ = [
    "BatchCounters",
    "pad_and_stack",
    "odd_even_sort_rows",
    "batched_pointer_merge_profile",
    "batched_serial_merge_profile",
    "batched_search_profile",
    "batched_cf_merge_profile",
    "batched_blocksort_profile",
    "batched_blocksort_phases",
    "kway_thread_cuts",
    "kway_gather_addresses",
    "batched_kway_merge_profile",
    "fusion_stats",
    "reset_fusion_stats",
]

#: Matches :data:`repro.mergesort.serial_merge.SENTINEL`.
SENTINEL = np.iinfo(np.int64).max

#: Keys packed as ``2*value + tag`` must stay inside int64: |value| < 2^62.
_PACK_LIMIT = 1 << 62

IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]


class _FusionStats:
    """Process-global fusion accounting: how much round traffic was folded.

    Every counter is a pure call count (no wall-clock, no warm-state), so
    deltas are deterministic for a given profile call — the runner's
    engine tiles report them into BASELINE-gated metrics.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.round_calls = 0
        self.round_many_calls = 0
        self.rounds_folded = 0
        self.stage_passes = 0
        self.stage_rounds_folded = 0
        self.fused_blocksorts = 0
        self.fallback_blocksorts = 0
        self.fused_merges = 0
        self.fallback_merges = 0
        self.fused_searches = 0
        self.fallback_searches = 0

    def note_round(self) -> None:
        with self._lock:
            self.round_calls += 1

    def note_round_many(self, rounds: int) -> None:
        with self._lock:
            self.round_many_calls += 1
            self.rounds_folded += rounds

    def note_stage(self, rounds: int) -> None:
        with self._lock:
            self.stage_passes += 1
            self.stage_rounds_folded += rounds

    def note_profile(self, name: str, fused: bool) -> None:
        attr = ("fused_" if fused else "fallback_") + name
        with self._lock:
            setattr(self, attr, getattr(self, attr) + 1)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "round_calls": float(self.round_calls),
                "round_many_calls": float(self.round_many_calls),
                "rounds_folded": float(self.rounds_folded),
                "stage_passes": float(self.stage_passes),
                "stage_rounds_folded": float(self.stage_rounds_folded),
                "fused_blocksorts": float(self.fused_blocksorts),
                "fallback_blocksorts": float(self.fallback_blocksorts),
                "fused_merges": float(self.fused_merges),
                "fallback_merges": float(self.fallback_merges),
                "fused_searches": float(self.fused_searches),
                "fallback_searches": float(self.fallback_searches),
            }

    def reset(self) -> None:
        with self._lock:
            self.round_calls = 0
            self.round_many_calls = 0
            self.rounds_folded = 0
            self.stage_passes = 0
            self.stage_rounds_folded = 0
            self.fused_blocksorts = 0
            self.fallback_blocksorts = 0
            self.fused_merges = 0
            self.fallback_merges = 0
            self.fused_searches = 0
            self.fallback_searches = 0


_FUSION = _FusionStats()


def fusion_stats() -> dict[str, float]:
    """Process-global fused-pass counters (for telemetry exports)."""
    return _FUSION.snapshot()


def reset_fusion_stats() -> None:
    """Reset :func:`fusion_stats` counters (tests and profiling runs)."""
    _FUSION.reset()


class BatchCounters:
    """Per-tile shared-memory counters, accumulated as arrays of length T.

    One instance accounts every round of a batched profile; each
    :meth:`round` charges every active warp what
    :meth:`repro.sim.banks.BankModel.round_cost` charges it (duplicate
    addresses broadcast, a round costs its largest bank multiplicity),
    applied per tile."""

    def __init__(self, tiles: int, u: int, w: int) -> None:
        if tiles < 1:
            raise ParameterError(f"batch needs >= 1 tile, got {tiles}")
        if u < 1 or w < 1:
            raise ParameterError(f"u={u} and w={w} must be >= 1")
        self.tiles = tiles
        self.u = u
        self.w = w
        #: Warp slots per tile — ceil so a partial trailing warp (u % w
        #: != 0, possible in search profiles) still gets its own slot and
        #: never aliases the next tile's first warp.
        self._slots = -(-u // w)
        lane = np.arange(tiles * u, dtype=np.int64)
        self._tile_of = lane // u
        self._warp_of = self._tile_of * self._slots + (lane % u) // w
        self._col_of = (lane % u) % w
        self._row_base = np.arange(tiles * self._slots, dtype=np.int64)[:, None] * w
        zeros = lambda: np.zeros(tiles, dtype=np.int64)  # noqa: E731
        self.shared_read_rounds = zeros()
        self.shared_write_rounds = zeros()
        self.shared_cycles = zeros()
        self.shared_replays = zeros()
        self.shared_excess = zeros()
        self.broadcast_reads = zeros()
        self.shared_requests = zeros()

    def round(self, addresses: IntArray, active: BoolArray, kind: str = "read") -> None:
        """Account one warp-synchronous round across every tile at once.

        ``addresses`` is ``(tiles, u)`` (broadcastable); ``active`` masks
        lanes that access memory this round; warps with no active lane
        are free.  Per-tile statistics equal accounting each tile's row
        alone: duplicates can only occur *within* a warp (the warp slot
        is part of the dedup key), and every warp is one fixed ``w``-wide
        row — so the dedup is a per-row sort plus neighbor diff, never a
        batch-wide hash.
        """
        _FUSION.note_round()
        shape = (self.tiles, self.u)
        act = np.broadcast_to(np.asarray(active, dtype=bool), shape)
        T, w = self.tiles, self.w
        n_rows = T * self._slots
        if self.u % w == 0:
            # Full warps: each warp row is a contiguous w-wide chunk of
            # the address matrix, so inactive lanes become sentinels with
            # one np.where — no scatter needed.
            addr2 = np.broadcast_to(np.asarray(addresses, dtype=np.int64), shape)
            if act.all():
                mat = addr2.astype(np.int64).reshape(n_rows, w)
                requests_t = np.full(T, self.u, dtype=np.int64)
                mat.sort(axis=1)
                fresh = np.empty((n_rows, w), dtype=bool)
                fresh[:, 0] = True
                np.not_equal(mat[:, 1:], mat[:, :-1], out=fresh[:, 1:])
            else:
                if not act.any():
                    return
                mat = np.where(act, addr2, SENTINEL).reshape(n_rows, w)
                requests_t = act.sum(axis=1, dtype=np.int64)
                mat.sort(axis=1)
                fresh = mat != SENTINEL
                fresh[:, 1:] &= mat[:, 1:] != mat[:, :-1]
        else:
            flat = act.ravel()
            if not flat.any():
                return
            addr = (
                np.broadcast_to(np.asarray(addresses), shape)
                .ravel()[flat]
                .astype(np.int64)
            )
            requests_t = np.bincount(self._tile_of[flat], minlength=T)
            # Scatter active addresses into fixed (warp row, lane) cells;
            # inactive cells (and padding slots of the partial trailing
            # warp) hold a sentinel that sorts after every address.
            mat = np.full((n_rows, w), SENTINEL, dtype=np.int64)
            mat[self._warp_of[flat], self._col_of[flat]] = addr
            mat.sort(axis=1)
            fresh = mat != SENTINEL
            fresh[:, 1:] &= mat[:, 1:] != mat[:, :-1]

        # Distinct addresses per (warp row, bank): one flat bincount.
        counts = np.bincount(
            (self._row_base + mat % w)[fresh], minlength=n_rows * w
        ).reshape(n_rows, w)
        per_warp_max = counts.max(axis=1)
        per_warp_excess = np.maximum(counts - 1, 0).sum(axis=1)

        uniq_rows = fresh.sum(axis=1)
        n_warps_t = (uniq_rows > 0).reshape(T, self._slots).sum(axis=1)
        cycles_t = per_warp_max.reshape(T, self._slots).sum(axis=1)
        excess_t = per_warp_excess.reshape(T, self._slots).sum(axis=1)
        uniq_t = uniq_rows.reshape(T, self._slots).sum(axis=1)

        if kind == "read":
            self.shared_read_rounds += n_warps_t
            self.broadcast_reads += requests_t - uniq_t
        else:
            self.shared_write_rounds += n_warps_t
        self.shared_requests += requests_t
        self.shared_cycles += cycles_t
        self.shared_replays += cycles_t - n_warps_t
        self.shared_excess += excess_t

    def round_many(
        self,
        addresses: npt.NDArray[np.integer],
        active: BoolArray | None,
        kind: str = "read",
        *,
        assume_distinct: bool = False,
    ) -> None:
        """Account ``R`` stacked warp-synchronous rounds in one pass.

        ``addresses`` is ``(R, tiles, u)`` (broadcastable); ``active``
        masks lanes per round, or ``None`` for all-active rounds.  The
        result is bit-identical to calling :meth:`round` on each leading
        slice in order — every round's dedup/bank statistics are computed
        in its own warp rows, and the final fold is an integer sum, which
        commutes.  Rounds with no active lane contribute exact zeros.
        All rounds of one call share ``kind``.

        ``assume_distinct=True`` asserts the caller's invariant that all
        active addresses within any warp and round are pairwise distinct
        (true for bounded pointer merges, whose per-thread windows are
        disjoint): dedup collapses to a per-bank population count, so the
        keys are bare bank ids.  Otherwise addresses are packed into
        ``(bank, address)`` keys; either way one row-wise sort plus
        run-length prefix arithmetic replaces per-round dedup + a flat
        histogram, with the narrowest dtype the address span permits.

        The stacked scratch matrices come from the engine arena (checked
        out per call, reused across batched passes); partial trailing
        warps (``u % w != 0``) fall back to per-round :meth:`round`
        scatter accounting.
        """
        addr = np.asarray(addresses)
        if addr.ndim != 3:
            raise ParameterError("round_many expects (rounds, tiles, u) addresses")
        R = int(addr.shape[0])
        if R == 0:
            return
        T, u, w = self.tiles, self.u, self.w
        shape = (R, T, u)
        if u % w:
            addr64 = np.broadcast_to(addr.astype(np.int64, copy=False), shape)
            if active is None:
                ones = np.ones((T, u), dtype=bool)
                for r in range(R):
                    self.round(addr64[r], ones, kind=kind)
            else:
                act3 = np.broadcast_to(np.asarray(active, dtype=bool), shape)
                for r in range(R):
                    self.round(addr64[r], act3[r], kind=kind)
            return
        _FUSION.note_round_many(R)
        if active is None:
            act3 = None
            requests_t = np.full(T, R * u, dtype=np.int64)
        else:
            act3 = np.broadcast_to(np.asarray(active, dtype=bool), shape)
            requests_t = act3.sum(axis=(0, 2), dtype=np.int64)
            if not requests_t.any():
                return
        addr3 = np.broadcast_to(addr, shape)
        if assume_distinct and w <= 127:
            self._distinct_rounds(addr3, act3, requests_t, kind)
            return
        amin = int(addr3.min())
        amax = int(addr3.max())
        # Key layout: bank id in the high bits, (offset) address below —
        # distinct keys == distinct addresses (the bank is a function of
        # the address), and sorted keys group each bank contiguously.
        shift = 0 if assume_distinct else max(amax - amin, 1).bit_length()
        top = w << shift
        # Raw addresses land in the key buffer before the offset/pack, so
        # the dtype must hold both them and the packed keys.
        if top < (1 << 31) and -(1 << 31) < amin and amax < (1 << 31):
            dtype: type = np.int32
        elif top < (1 << 63):
            dtype = np.int64
        else:  # pragma: no cover - pathological address span
            raise ParameterError("round_many address span too wide to key")
        sent = np.iinfo(dtype).max
        n_rows = R * T * self._slots
        grp = (R, T, self._slots)
        with ENGINE_ARENA.lease((n_rows, w), dtype) as work, ENGINE_ARENA.lease(
            (n_rows, w), dtype
        ) as scratch:
            k3 = work.reshape(shape)
            np.copyto(k3, addr3)
            bank_of = scratch
            if assume_distinct:
                # w <= 127 went through _distinct_rounds; this branch
                # keys on bare bank ids with w as the inactive sentinel.
                if w & (w - 1) == 0:
                    np.bitwise_and(work, w - 1, out=work)
                else:
                    np.remainder(work, w, out=work)
                sent = w
            else:
                if w & (w - 1) == 0:
                    np.bitwise_and(work, w - 1, out=bank_of)
                else:
                    np.remainder(work, w, out=bank_of)
                np.left_shift(bank_of, shift, out=bank_of)
                work -= amin
                work += bank_of
            if act3 is not None:
                keys = np.where(act3, k3, dtype(sent)).reshape(n_rows, w)
            else:
                keys = work
            keys.sort(axis=1)
            valid = keys != sent
            if assume_distinct:
                bank_change = np.empty((n_rows, w), dtype=bool)
                bank_change[:, 0] = True
                np.not_equal(keys[:, 1:], keys[:, :-1], out=bank_change[:, 1:])
                fresh = valid
            else:
                fresh = np.empty((n_rows, w), dtype=bool)
                fresh[:, 0] = True
                np.not_equal(keys[:, 1:], keys[:, :-1], out=fresh[:, 1:])
                fresh &= valid
                np.right_shift(keys, shift, out=bank_of)
                bank_change = np.empty((n_rows, w), dtype=bool)
                bank_change[:, 0] = True
                np.not_equal(
                    bank_of[:, 1:], bank_of[:, :-1], out=bank_change[:, 1:]
                )
            is_start = bank_change & valid
            # Distinct-addresses-in-bank counts via one prefix pass: at
            # any position, count = inclusive #fresh so far minus the
            # #fresh before the current bank run began.  The run starts'
            # exclusive counts are nondecreasing, so zeroing non-starts
            # is a safe max-accumulate identity.
            c = np.cumsum(fresh, axis=1, dtype=dtype)
            uniq_rows = c[:, -1].copy()
            ce = np.subtract(c, fresh)
            np.multiply(ce, is_start, out=ce)
            np.maximum.accumulate(ce, axis=1, out=ce)
            np.subtract(c, ce, out=c)
            np.multiply(c, valid, out=c)
            per_warp_max = c.max(axis=1)
            occupied = is_start.sum(axis=1, dtype=np.int64)
        n_warps_t = (occupied > 0).reshape(grp).sum(axis=(0, 2), dtype=np.int64)
        cycles_t = per_warp_max.reshape(grp).sum(axis=(0, 2), dtype=np.int64)
        excess_t = (uniq_rows - occupied).reshape(grp).sum(
            axis=(0, 2), dtype=np.int64
        )
        uniq_t = uniq_rows.reshape(grp).sum(axis=(0, 2), dtype=np.int64)
        if kind == "read":
            self.shared_read_rounds += n_warps_t
            self.broadcast_reads += requests_t - uniq_t
        else:
            self.shared_write_rounds += n_warps_t
        self.shared_requests += requests_t
        self.shared_cycles += cycles_t
        self.shared_replays += cycles_t - n_warps_t
        self.shared_excess += excess_t

    def _distinct_rounds(
        self,
        addr3: npt.NDArray[np.integer],
        act3: BoolArray | None,
        requests_t: IntArray,
        kind: str,
    ) -> None:
        """:meth:`round_many` body for pairwise-distinct active addresses.

        With no duplicates, per-bank *distinct* counts are plain run
        lengths of the sorted bank ids: uniq == requests (broadcasts are
        exactly zero), excess == active - occupied banks, and the max
        count per warp is the longest bank run — all from one int8 row
        sort plus index arithmetic, with no prefix sums or histograms.
        """
        R, T, u = addr3.shape
        w = self.w
        n_rows = R * T * self._slots
        grp = (R, T, self._slots)
        with ENGINE_ARENA.lease((n_rows, w), addr3.dtype) as scratch:
            s3 = scratch.reshape(addr3.shape)
            np.copyto(s3, addr3)
            if w & (w - 1) == 0:
                np.bitwise_and(scratch, w - 1, out=scratch)
            else:
                np.remainder(scratch, w, out=scratch)
            banks = (
                scratch if scratch.dtype == np.int32
                else scratch.astype(np.int32)
            )
            if act3 is not None:
                # w is the inactive sentinel (sorts after every bank).
                keys = np.where(
                    act3, banks.reshape(addr3.shape), np.int32(w)
                ).reshape(n_rows, w)
            else:
                keys = banks
            keys.sort(axis=1)
            valid = keys < w
            is_start = np.empty((n_rows, w), dtype=bool)
            is_start[:, 0] = valid[:, 0]
            np.not_equal(keys[:, 1:], keys[:, :-1], out=is_start[:, 1:])
            is_start[:, 1:] &= valid[:, 1:]
            # Longest bank run per row: position minus the position of
            # the current run's start (max-accumulated), plus one.  Run
            # starts are monotone, so a zero at non-starts is a safe
            # accumulate identity.
            idx = np.broadcast_to(
                np.arange(w, dtype=np.int32)[None, :], (n_rows, w)
            )
            start = np.multiply(is_start, idx)
            np.maximum.accumulate(start, axis=1, out=start)
            np.subtract(idx, start, out=start)
            start += np.int32(1)
            np.multiply(start, valid, out=start)
            per_warp_max = start.max(axis=1)
            occupied = is_start.sum(axis=1, dtype=np.int64)
        n_warps_t = (occupied > 0).reshape(grp).sum(axis=(0, 2), dtype=np.int64)
        cycles_t = per_warp_max.reshape(grp).sum(axis=(0, 2), dtype=np.int64)
        occupied_t = occupied.reshape(grp).sum(axis=(0, 2), dtype=np.int64)
        if kind == "read":
            self.shared_read_rounds += n_warps_t
            # Distinct addresses: uniq == requests, zero broadcast reads.
        else:
            self.shared_write_rounds += n_warps_t
        self.shared_requests += requests_t
        self.shared_cycles += cycles_t
        self.shared_replays += cycles_t - n_warps_t
        self.shared_excess += requests_t - occupied_t

    def total(self) -> Counters:
        """Every tile's counters summed into one :class:`Counters`."""
        return Counters(
            shared_read_rounds=int(self.shared_read_rounds.sum()),
            shared_write_rounds=int(self.shared_write_rounds.sum()),
            shared_cycles=int(self.shared_cycles.sum()),
            shared_replays=int(self.shared_replays.sum()),
            shared_excess=int(self.shared_excess.sum()),
            broadcast_reads=int(self.broadcast_reads.sum()),
            shared_requests=int(self.shared_requests.sum()),
        )

    def to_counters(self) -> list[Counters]:
        """Materialize one :class:`Counters` per tile."""
        out = []
        for t in range(self.tiles):
            c = Counters()
            c.shared_read_rounds = int(self.shared_read_rounds[t])
            c.shared_write_rounds = int(self.shared_write_rounds[t])
            c.shared_cycles = int(self.shared_cycles[t])
            c.shared_replays = int(self.shared_replays[t])
            c.shared_excess = int(self.shared_excess[t])
            c.broadcast_reads = int(self.broadcast_reads[t])
            c.shared_requests = int(self.shared_requests[t])
            out.append(c)
        return out


def pad_and_stack(
    arrays: Sequence[npt.ArrayLike], length: int, fill: int
) -> IntArray:
    """Stack 1-D arrays into a ``(len(arrays), length)`` int64 matrix.

    Short rows are padded on the right with ``fill``; rows longer than
    ``length`` are an error (padding rules are the *caller's* contract —
    see ``docs/PERFORMANCE.md``)."""
    if not arrays:
        raise ParameterError("pad_and_stack needs at least one array")
    out = np.full((len(arrays), length), fill, dtype=np.int64)
    for i, raw in enumerate(arrays):
        row = np.asarray(raw, dtype=np.int64)
        if row.ndim != 1:
            raise ParameterError(f"row {i} must be one-dimensional")
        if len(row) > length:
            raise ParameterError(
                f"row {i} has {len(row)} elements > lane length {length}"
            )
        out[i, : len(row)] = row
    return out


def odd_even_sort_rows(rows: npt.ArrayLike) -> tuple[IntArray, int]:
    """Sort every row with the odd-even transposition network, vectorized.

    Returns ``(sorted_rows, ops_per_row)``.  Identical outputs and
    compare-exchange count to running
    :func:`repro.mergesort.register_merge.odd_even_transposition_sort`
    on each row (the network is fixed; phases touch disjoint pairs, so
    each phase is two fancy-indexed min/max passes)."""
    out = np.array(rows, dtype=np.int64, copy=True)
    if out.ndim != 2:
        raise ParameterError("odd_even_sort_rows expects a 2-D array")
    n = out.shape[1]
    plan = get_plan("oddeven", n, 0, 1)
    lo = np.asarray(plan["lo"])
    hi = np.asarray(plan["hi"])
    ptr = np.asarray(plan["phase_ptr"])
    for k in range(len(ptr) - 1):
        s, e = int(ptr[k]), int(ptr[k + 1])
        if s == e:
            continue
        li, hj = lo[s:e], hi[s:e]
        a, b = out[:, li], out[:, hj]
        swap = a > b
        out[:, li] = np.where(swap, b, a)
        out[:, hj] = np.where(swap, a, b)
    return out, int(len(lo))


def _take(backing: IntArray, idx: IntArray) -> IntArray:
    """Row-wise gather: ``backing[t, idx[t, i]]`` for every lane."""
    return np.take_along_axis(backing, idx, axis=1)


def batched_pointer_merge_profile(
    backing: IntArray,
    a_ptr: IntArray,
    a_end: IntArray,
    b_ptr: IntArray,
    b_end: IntArray,
    E: int,
    w: int,
    *,
    read_policy: str = "bounded",
    acc: BatchCounters | None = None,
) -> BatchCounters:
    """Serial-merge rounds for explicit per-thread pointer ranges.

    Each thread merges ``backing[a_ptr:a_end]`` with
    ``backing[b_ptr:b_end]`` (both sorted), reading from ``backing``'s
    address space: two head-load rounds, then ``E`` advance rounds, as
    :func:`repro.mergesort.serial_merge.serial_merge_block` issues them.
    Every argument is ``(tiles, u)`` over a shared ``(tiles, L)``
    ``backing``.  Passing ``acc`` folds the rounds into an existing
    accumulator."""
    if read_policy not in ("bounded", "always"):
        raise ParameterError(f"unknown read_policy {read_policy!r}")
    T, u = a_ptr.shape
    if acc is None:
        acc = BatchCounters(T, u, w)
    last = backing.shape[1] - 1

    a_ptr = a_ptr.astype(np.int64, copy=True)
    b_ptr = b_ptr.astype(np.int64, copy=True)
    a_active = a_ptr < a_end
    acc.round(a_ptr, a_active)
    a_key = np.where(a_active, _take(backing, np.minimum(a_ptr, last)), SENTINEL)
    b_active = b_ptr < b_end
    acc.round(b_ptr, b_active)
    b_key = np.where(b_active, _take(backing, np.minimum(b_ptr, last)), SENTINEL)

    pa = a_ptr.copy()
    pb = b_ptr.copy()
    for _ in range(E):
        take_a = (pa < a_end) & ((pb >= b_end) | (a_key <= b_key))
        pa = np.where(take_a, pa + 1, pa)
        pb = np.where(take_a, pb, pb + 1)
        next_addr = np.where(take_a, pa, pb)
        in_range = np.where(take_a, pa < a_end, pb < b_end)
        if read_policy == "always":
            clamped = np.where(take_a, np.maximum(a_end - 1, 0), np.maximum(b_end - 1, 0))
            addr = np.where(in_range, next_addr, clamped)
            active = np.ones((T, u), dtype=bool)
        else:
            addr = next_addr
            active = in_range
        acc.round(np.minimum(addr, last), active)
        new_key = _take(backing, np.minimum(addr, last))
        loaded = active & in_range
        a_key = np.where(take_a & loaded, new_key, np.where(take_a, SENTINEL, a_key))
        b_key = np.where(~take_a & loaded, new_key, np.where(~take_a, SENTINEL, b_key))
    return acc


def _stack_pairs(
    pairs: Sequence[tuple[npt.ArrayLike, npt.ArrayLike]], E: int
) -> tuple[IntArray, IntArray, int]:
    """Stack (A, B) pairs into one backing matrix + per-tile ``|A|``."""
    if not pairs:
        raise ParameterError("batched profile needs at least one (a, b) pair")
    rows = [
        np.concatenate(
            [np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]
        )
        for a, b in pairs
    ]
    total = len(rows[0])
    if any(len(r) != total for r in rows):
        raise ParameterError("batched tiles must share one |A|+|B| size")
    if total == 0 or total % E:
        raise ParameterError(f"|A|+|B| = {total} must be a positive multiple of E = {E}")
    backing = np.stack(rows)
    n_a = np.asarray([len(np.asarray(a)) for a, _ in pairs], dtype=np.int64)
    return backing, n_a, total


def _batched_block_cuts(
    backing: IntArray, n_a: IntArray, E: int, u: int
) -> IntArray:
    """Per-thread merge-path cuts ``a_off[t, i]`` at diagonals ``i*E``.

    Replicates :func:`repro.mergesort.merge_path.merge_path_search`
    element-wise (same ``lo``/``hi``/``mid`` trajectory, ties toward A),
    vectorized over tiles × threads.  Out-of-range probe indices only
    occur on lanes whose search already converged; they are clipped and
    their comparisons discarded by the ``live`` mask.
    """
    T = backing.shape[0]
    total = backing.shape[1]
    n_a_col = n_a[:, None]
    n_b_col = total - n_a_col
    diag = (np.arange(u, dtype=np.int64) * E)[None, :]
    lo = np.maximum(0, np.broadcast_to(diag - n_b_col, (T, u))).astype(np.int64)
    hi = np.minimum(np.broadcast_to(diag, (T, u)), n_a_col).astype(np.int64)
    live = lo < hi
    last = total - 1
    while live.any():
        mid = (lo + hi) // 2
        a_idx = np.minimum(np.maximum(mid, 0), np.maximum(n_a_col - 1, 0))
        b_idx = np.minimum(np.maximum(diag - 1 - mid, 0), np.maximum(n_b_col - 1, 0))
        a_val = _take(backing, np.minimum(a_idx, last))
        b_val = _take(backing, np.minimum(n_a_col + b_idx, last))
        go_right = a_val <= b_val
        lo = np.where(live & go_right, mid + 1, lo)
        hi = np.where(live & ~go_right, mid, hi)
        live = lo < hi
    return lo


def _pack_dtype(backing: IntArray) -> type | None:
    """Narrowest dtype holding ``2*v + tag``, or ``None`` past int64."""
    if backing.size == 0:
        return np.int32
    lo, hi = int(backing.min()), int(backing.max())
    if -(1 << 30) <= lo and hi < (1 << 30):
        return np.int32
    if -_PACK_LIMIT <= lo and hi < _PACK_LIMIT:
        return np.int64
    return None


def _values_packable(backing: IntArray) -> bool:
    """True when every value survives the ``2*v + tag`` packing in int64."""
    return _pack_dtype(backing) is not None


def _halves_sorted(backing: IntArray, n_a: IntArray) -> bool:
    """True when every tile's A half and B half are each sorted ascending.

    One descent is allowed per row, exactly at the A/B boundary
    ``n_a - 1`` (and only when both halves are non-empty) — the single
    vectorized check the fused single-sort profiles gate on.
    """
    total = backing.shape[1]
    if total < 2:
        return True
    ascending = backing[:, 1:] >= backing[:, :-1]
    at_boundary = (
        np.arange(total - 1, dtype=np.int64)[None, :] == (n_a[:, None] - 1)
    )
    return bool(np.all(ascending | at_boundary))


def _packed_merge_tags(packed: IntArray) -> tuple[IntArray, IntArray]:
    """Stable ties-to-A merge via one packed-key sort.

    ``packed`` is ``2*value + tag`` with ``tag`` 1 on every B position
    (the helper owns and sorts it in place along the last axis).
    Sorting orders by value with A before B on ties; the low bit of the
    sorted keys says which half each merged output came from, and an
    arithmetic shift recovers the sorted values exactly (``2v + tag``
    is monotone in ``v``; ``>> 1`` floors back for negatives too).
    Returns ``(from_a, merged)``.
    """
    packed.sort(axis=-1)
    return 1 - (packed & 1), packed >> 1


def _fused_pointer_merge_rounds(
    acc: BatchCounters,
    take_a: BoolArray,
    a_ptr: IntArray,
    a_end: IntArray,
    b_ptr: IntArray,
    b_end: IntArray,
    E: int,
    length: int,
    read_policy: str,
) -> None:
    """Replay :func:`batched_pointer_merge_profile`'s rounds in closed form.

    ``take_a`` is ``(tiles, u, E)``: the merge decision each thread makes
    at each of its ``E`` steps (known up front from the packed-sort
    tags).  Pointer trajectories then collapse to cumulative sums —
    after step ``j`` a thread has consumed ``csum[j]`` A elements and
    ``j + 1 - csum[j]`` B elements — so every round's addresses and
    active masks are closed-form and the whole merge (initial key loads
    plus ``E`` advance rounds) folds into one :meth:`BatchCounters
    .round_many` call, bit-identical to the sequential loop.  Every
    address stays below ``length``, so the sequential loop's safety
    clamp is a no-op here and is skipped.

    Under ``bounded`` reads each active lane's address sits inside its
    own thread's A or B window; windows are pairwise disjoint within a
    warp (merge-path cuts are nondecreasing, pair regions disjoint), so
    the accounting runs with ``assume_distinct=True``.
    """
    T, u = a_ptr.shape
    dt: type = np.int32 if length < (1 << 31) else np.int64
    a_ptr_n = a_ptr.astype(dt)
    b_ptr_n = b_ptr.astype(dt)
    a_end_n = a_end.astype(dt)
    b_end_n = b_end.astype(dt)
    # Round-major layout keeps every pass below contiguous: step j of
    # all lanes lives in one (T, u) slab.
    take_aE = np.ascontiguousarray(take_a.transpose(2, 0, 1))
    # Slab-wise running sum: ~13x faster than np.cumsum(axis=0) with its
    # per-element bool->int cast.
    csum = np.empty((E, T, u), dtype=dt)
    np.copyto(csum[0], take_aE[0])
    for j in range(1, E):
        np.add(csum[j - 1], take_aE[j], out=csum[j])
    pa = a_ptr_n[None] + csum
    # Reuse csum's buffer for pb = b_ptr + (step - csum).
    np.subtract(np.arange(1, E + 1, dtype=dt)[:, None, None], csum, out=csum)
    pb = csum
    pb += b_ptr_n[None]
    with ENGINE_ARENA.lease((E + 2, T, u), dt) as rounds, ENGINE_ARENA.lease(
        (E + 2, T, u), np.bool_
    ) as lives:
        rounds[0] = a_ptr_n
        rounds[1] = b_ptr_n
        np.copyto(lives[0], a_ptr_n < a_end_n)
        np.copyto(lives[1], b_ptr_n < b_end_n)
        if read_policy == "always":
            np.copyto(rounds[2:], pb)
            np.copyto(rounds[2:], pa, where=take_aE)
            np.less(pb, b_end_n[None], out=lives[2:])
            in_a_range = pa < a_end_n[None]
            np.copyto(lives[2:], in_a_range, where=take_aE)
            np.copyto(
                rounds[2:],
                np.maximum(b_end_n - 1, 0)[None],
                where=~(lives[2:] | take_aE),
            )
            np.copyto(
                rounds[2:],
                np.maximum(a_end_n - 1, 0)[None],
                where=take_aE & ~in_a_range,
            )
            lives[2:] = True
            acc.round_many(rounds, lives, kind="read")
        else:
            # Select per-lane pointer and liveness with arithmetic
            # blends (masked copyto is far slower than full passes).
            in_a = pa < a_end_n[None]
            in_b = pb < b_end_n[None]
            np.logical_xor(in_a, in_b, out=in_a)
            np.logical_and(in_a, take_aE, out=in_a)
            np.logical_xor(in_b, in_a, out=lives[2:])
            np.subtract(pa, pb, out=pa)
            np.multiply(pa, take_aE, out=pa)
            np.add(pb, pa, out=rounds[2:])
            acc.round_many(rounds, lives, kind="read", assume_distinct=True)


def batched_serial_merge_profile(
    pairs: Sequence[tuple[npt.ArrayLike, npt.ArrayLike]],
    E: int,
    w: int,
    *,
    read_policy: str = "bounded",
) -> list[Counters]:
    """Baseline serial-merge profiles, one per (A, B) pair.

    Per pair, bit-identical to the ``stats.merge`` shared-memory counters
    of :func:`repro.mergesort.serial_merge.serial_merge_block` (compute
    ops excepted), for every pair in one vectorized pass.  When every
    tile's halves are sorted (the contract real merge inputs satisfy)
    and values survive key packing, the fused path runs:
    one packed-key sort yields the merge decisions, the merge-path cuts
    fall out of a prefix sum over the source tags, and all pointer-merge
    rounds fold into a single stacked accounting pass.  Otherwise the
    original bisection + sequential pointer loop runs — both paths give
    identical counters per tile."""
    if read_policy not in ("bounded", "always"):
        raise ParameterError(f"unknown read_policy {read_policy!r}")
    backing, n_a, total = _stack_pairs(pairs, E)
    u = total // E
    if u % w:
        raise ParameterError(f"thread count {u} must be a multiple of w = {w}")
    T = backing.shape[0]
    diag = (np.arange(u, dtype=np.int64) * E)[None, :]
    fused = _values_packable(backing) and _halves_sorted(backing, n_a)
    _FUSION.note_profile("merges", fused)
    if fused:
        tag = (
            np.arange(total, dtype=np.int64)[None, :] >= n_a[:, None]
        ).astype(np.int64)
        from_a, _ = _packed_merge_tags(backing * 2 + tag)
        take_a = from_a.reshape(T, u, E) != 0
        # Cut at diagonal i*E = #A outputs before thread i; whole-row
        # prefix sums collapse to per-thread tag counts.
        cnt = take_a.sum(axis=2, dtype=np.int64)
        a_off = np.cumsum(cnt, axis=1) - cnt
    else:
        a_off = _batched_block_cuts(backing, n_a, E, u)
    # a_end[i] = next thread's cut; the last thread ends at |A|.
    a_end = np.empty_like(a_off)
    a_end[:, :-1] = a_off[:, 1:]
    a_end[:, -1] = n_a
    b_ptr = n_a[:, None] + (diag - a_off)
    b_end = n_a[:, None] + (diag + E) - a_end
    if fused:
        acc = BatchCounters(T, u, w)
        _fused_pointer_merge_rounds(
            acc, take_a, a_off, a_end, b_ptr, b_end, E, total, read_policy
        )
    else:
        acc = batched_pointer_merge_profile(
            backing, a_off, a_end, b_ptr, b_end, E, w, read_policy=read_policy
        )
    return acc.to_counters()


def batched_search_profile(
    pairs: Sequence[tuple[npt.ArrayLike, npt.ArrayLike]],
    E: int,
    w: int,
    *,
    mapped: bool = False,
) -> list[Counters]:
    """Per-thread merge-path search profiles, one per (A, B) pair.

    Per pair, bit-identical to the ``stats.search`` counters of
    :func:`repro.mergesort.serial_merge.serial_merge_block`, or — with
    ``mapped=True`` — of :func:`repro.mergesort.cf.cf_merge_block`,
    whose search addresses go through the CF layout (the cached ``rho``
    plan, a position -> address table); the search trajectory itself
    reads plain values either way.

    When the tiles' halves are sorted and values survive key packing,
    the bisections are *replayed* instead of executed: the final cuts
    come from one packed-key sort, and along the real probe path every
    branch outcome equals ``cut > mid`` (each branch keeps
    ``lo <= cut <= hi``), so the probe addresses and live masks are
    reproduced exactly with no data reads, and all probe rounds fold
    into one stacked accounting pass."""
    backing, n_a, total = _stack_pairs(pairs, E)
    T = backing.shape[0]
    u = total // E
    n_a_col = n_a[:, None]
    n_b_col = total - n_a_col
    acc = BatchCounters(T, u, w)
    fwd = np.asarray(get_plan("rho", total, E, w)["fwd"]) if mapped else None
    last = total - 1

    fused = _values_packable(backing) and _halves_sorted(backing, n_a)
    _FUSION.note_profile("searches", fused)
    cuts: IntArray | None = None
    if fused:
        tag = (
            np.arange(total, dtype=np.int64)[None, :] >= n_a_col
        ).astype(np.int64)
        from_a, _ = _packed_merge_tags(backing * 2 + tag)
        cnt = from_a.reshape(T, u, E).sum(axis=2, dtype=np.int64)
        cuts = np.cumsum(cnt, axis=1) - cnt

    rounds_addr: list[IntArray] = []
    rounds_live: list[BoolArray] = []
    diag = (np.arange(u, dtype=np.int64) * E)[None, :]
    lo = np.maximum(0, np.broadcast_to(diag - n_b_col, (T, u))).astype(np.int64)
    hi = np.minimum(np.broadcast_to(diag, (T, u)), n_a_col).astype(np.int64)
    live = lo < hi
    while live.any():
        mid = (lo + hi) // 2
        b_idx = diag - 1 - mid
        if fwd is not None:
            a_addr = fwd[np.minimum(mid, last)]
            # rho(pi(clip(b_idx, 0, n_b-1) % total)); the ``% total``
            # folds the n_b == 0 clip artifact (-1) into a valid address.
            b_pos = (
                np.minimum(np.maximum(b_idx, 0), n_b_col - 1) % total
            )
            b_addr = fwd[total - 1 - b_pos]
        else:
            a_addr = mid
            b_addr = n_a_col + np.minimum(
                np.maximum(b_idx, 0), np.maximum(n_b_col - 1, 0)
            )
        if cuts is not None:
            rounds_addr.append(np.broadcast_to(a_addr, (T, u)))
            rounds_live.append(live)
            rounds_addr.append(np.broadcast_to(b_addr, (T, u)))
            rounds_live.append(live)
            go_right = cuts > mid
        else:
            acc.round(a_addr, live)
            acc.round(b_addr, live)
            a_val = _take(
                backing,
                np.minimum(
                    np.minimum(np.maximum(mid, 0), np.maximum(n_a_col - 1, 0)), last
                ),
            )
            b_val = _take(
                backing,
                np.minimum(
                    n_a_col
                    + np.minimum(np.maximum(b_idx, 0), np.maximum(n_b_col - 1, 0)),
                    last,
                ),
            )
            go_right = a_val <= b_val
        lo = np.where(live & go_right, mid + 1, lo)
        hi = np.where(live & ~go_right, mid, hi)
        live = lo < hi
    if rounds_addr:
        acc.round_many(np.stack(rounds_addr), np.stack(rounds_live), kind="read")
    return acc.to_counters()


def batched_cf_merge_profile(tiles: int, total: int, E: int, w: int) -> list[Counters]:
    """CF-Merge gather + scatter profiles for ``tiles`` same-size pairs.

    Computed analytically — ``E`` read rounds and ``E`` write rounds per
    warp, one cycle each — and pinned to the merge-phase counters of
    :func:`repro.mergesort.cf.cf_merge_block` by the test-suite.  The
    *whole point* of the paper is that this profile is input
    independent, so the batch is ``tiles`` identical counter sets."""
    if total % E:
        raise ParameterError("|A|+|B| must be a multiple of E")
    u = total // E
    if u % w:
        raise ParameterError(f"thread count {u} must be a multiple of w={w}")
    n_warps = u // w
    out = []
    for _ in range(tiles):
        c = Counters()
        c.shared_read_rounds = E * n_warps
        c.shared_write_rounds = E * n_warps
        c.shared_cycles = 2 * E * n_warps
        c.shared_requests = 2 * E * u
        out.append(c)
    return out


def _batched_stage_rounds(acc: BatchCounters, u: int, E: int, kind: str) -> None:
    """Count the thread-contiguous staging rounds (round m -> {iE + m}).

    With full warps the whole pass folds to one closed-form update from
    the ``fused_stage`` plan: staging round ``m`` reads ``i*E + m``, a
    cyclic bank rotation of round 0, so all ``E`` rounds share round 0's
    cycle/excess profile, every address is distinct (zero broadcasts),
    and the fold is exact — bit-identical to ``E`` :meth:`~BatchCounters
    .round` calls (asserted in ``tests/test_engine_batch.py``).
    """
    if u % acc.w == 0:
        plan = get_plan("fused_stage", u, E, acc.w)
        n_warps = int(np.asarray(plan["n_warps"])[0])
        cycles = int(np.asarray(plan["cycles"])[0])
        excess = int(np.asarray(plan["excess"])[0])
        if kind == "read":
            acc.shared_read_rounds += E * n_warps
            # Every staged address is distinct: no broadcast reads.
        else:
            acc.shared_write_rounds += E * n_warps
        acc.shared_requests += E * u
        acc.shared_cycles += E * cycles
        acc.shared_replays += E * (cycles - n_warps)
        acc.shared_excess += E * excess
        _FUSION.note_stage(E)
        return
    base = np.asarray(get_plan("stage", u, E, acc.w)["base"])
    ones = np.ones((1, u), dtype=bool)
    for m in range(E):
        acc.round((base + m)[None, :], ones, kind=kind)


def batched_blocksort_profile(
    tiles: IntArray,
    E: int,
    w: int,
    variant: str = "thrust",
    *,
    read_policy: str = "bounded",
) -> list[Counters]:
    """Blocksort profiles, one per row of the ``(n_tiles, u*E)`` ``tiles``.

    Per tile, bit-identical to the *shared memory* counters of
    :func:`repro.mergesort.blocksort.blocksort_tile` (load + staging +
    searches + merges; compute ops excepted).  The ``cf`` variant is
    supported for coprime ``w, E`` only (its structured passes are
    conflict free by theorem there; the simulator remains the reference
    elsewhere).

    Each merge level runs *fused*: one packed-key sort per level
    advances the data **and** yields every thread's merge-path cut (a
    prefix sum over source tags) and merge decisions.  The per-pair
    bisections are then replayed without data reads (branch outcome
    ``== cut > mid`` along the real probe path) and folded — with the
    closed-form pointer-merge rounds — into stacked accounting passes;
    staging rounds fold analytically.  Tiles holding values past the
    ``2*v + tag`` packing range (|v| >= 2^62) are first replaced by
    their ranks, which keep every comparison (order and ties) and hence
    every counter; :func:`fusion_stats` counts such passes as
    ``fallback_blocksorts``."""
    tiles, u, pack_dtype = _blocksort_input(tiles, E, w, variant, read_policy)
    acc = BatchCounters(tiles.shape[0], u, w)
    _fused_blocksort_rounds(
        acc, acc, acc, tiles, E, w, u, variant, read_policy, pack_dtype
    )
    return acc.to_counters()


def batched_blocksort_phases(
    tiles: IntArray, E: int, w: int, variant: str = "thrust"
) -> tuple[Counters, Counters, Counters]:
    """Blocksort ``(stage, search, merge)`` counters, summed over the rows.

    The same pass as :func:`batched_blocksort_profile` (bounded read
    policy), accounted per phase: each sum is bit-identical to the
    matching :class:`~repro.mergesort.blocksort.BlocksortStats` field of
    :func:`~repro.mergesort.blocksort.blocksort_tile` summed over the
    tiles (shared memory only; compute ops excepted)."""
    tiles, u, pack_dtype = _blocksort_input(tiles, E, w, variant, "bounded")
    T = tiles.shape[0]
    stage, search, merge = (BatchCounters(T, u, w) for _ in range(3))
    _fused_blocksort_rounds(
        stage, search, merge, tiles, E, w, u, variant, "bounded", pack_dtype
    )
    return stage.total(), search.total(), merge.total()


def _blocksort_input(
    tiles: IntArray, E: int, w: int, variant: str, read_policy: str
) -> tuple[IntArray, int, type]:
    """Validate a blocksort batch; return ``(tiles, u, pack dtype)``.

    Rows holding values past the packing range come back as dense ranks.
    """
    tiles = np.asarray(tiles, dtype=np.int64)
    if tiles.ndim != 2:
        raise ParameterError("batched blocksort expects a (tiles, u*E) array")
    T, L = tiles.shape
    if L % E:
        raise ParameterError(f"tile length {L} not a multiple of E={E}")
    u = L // E
    if u % w or u & (u - 1):
        raise ParameterError(f"thread count {u} must be a power-of-two multiple of w")
    if variant not in ("thrust", "cf"):
        raise ParameterError(f"unknown variant {variant!r}")
    if read_policy not in ("bounded", "always"):
        raise ParameterError(f"unknown read_policy {read_policy!r}")
    if variant == "cf" and not coprime(w, E):
        raise ParameterError("cf blocksort profile requires coprime w, E")

    pack_dtype = _pack_dtype(tiles)
    _FUSION.note_profile("blocksorts", pack_dtype is not None)
    if pack_dtype is None:
        # Dense ranks keep every comparison (order and ties), hence every
        # counter, and always fit the packing.
        tiles = np.unique(tiles, return_inverse=True)[1].reshape(T, L)
        pack_dtype = np.int32 if tiles.size <= (1 << 30) else np.int64
    return tiles, u, pack_dtype


def _fused_blocksort_rounds(
    stage: BatchCounters,
    search: BatchCounters,
    merge: BatchCounters,
    tiles: IntArray,
    E: int,
    w: int,
    u: int,
    variant: str,
    read_policy: str,
    pack_dtype: type,
) -> None:
    """All blocksort rounds via per-level packed sorts + stacked accounting.

    Staging, search and merge rounds land in the ``stage``, ``search``
    and ``merge`` accumulators; passing one accumulator three times
    counts the whole tile in it."""
    T, L = tiles.shape

    # Phase 1: load E contiguous words per thread, sort in registers.
    _batched_stage_rounds(stage, u, E, kind="read")
    # The packed keys persist across levels: each level adds its own B
    # tags to the (tag-cleared) keys, sorts pair regions in place, and
    # clears the tag bit again — ``2 * merged`` is exactly the sorted
    # keys with the low bit dropped, so no unpack/repack pass is needed.
    # ``pack_dtype`` narrows to int32 whenever the value range allows,
    # roughly tripling sort throughput.
    packed = np.sort(
        tiles.astype(pack_dtype, copy=False).reshape(T, u, E), axis=2
    ).reshape(T, L)
    packed *= 2

    g, level = 1, 0
    while g < u:
        region = 2 * g * E
        half = g * E
        plan = get_plan("fused_level", u, E, w, level=level)
        pbase = np.asarray(plan["pbase"])
        diag = np.asarray(plan["diag"])
        pair_last = np.asarray(plan["pair_last"])
        tag = np.asarray(plan["tag"])

        # Staging writes (same residue rounds for both variants).
        _batched_stage_rounds(stage, u, E, kind="write")

        # One packed sort per level: merge decisions from the low bit
        # (stable, ties to A), and (via per-thread tag counts) every
        # thread's merge-path cut.
        n_pairs = L // region
        packed += tag.astype(pack_dtype)[None, :]
        packed.reshape(T, n_pairs, region).sort(axis=2)
        take_a = (packed.reshape(T, u, E) & 1) == 0
        # pbase + diag == tid*E, and the cut is the count of A-half
        # outputs between the pair's base and the thread's diagonal;
        # per-thread counts + a (T, u) prefix replace a (T, L) one.
        cnt = take_a.sum(axis=2, dtype=np.int64)
        excl = np.cumsum(cnt, axis=1) - cnt
        a_off = excl - excl[:, pbase // E]

        # Replay the per-pair bisections: along the real probe path the
        # branch taken at ``mid`` is exactly ``cut > mid``, so the probe
        # addresses and live masks reproduce with no data reads.  The
        # whole replay runs in int32 (addresses < L < 2^31 by packing),
        # writing straight into leased round buffers sized by the worst
        # bisection depth.
        pbase32 = pbase.astype(np.int32)
        diag32 = diag.astype(np.int32)
        cut32 = a_off.astype(np.int32)
        lo = np.broadcast_to(np.asarray(plan["lo"]), (T, u)).astype(np.int32)
        hi = np.broadcast_to(np.asarray(plan["hi"]), (T, u)).astype(np.int32)
        max_rounds = 2 * int(np.max(np.asarray(plan["hi"]) - np.asarray(plan["lo"]))).bit_length()
        live = lo < hi
        if max_rounds and live.any():
            if variant == "cf":
                b_base = pbase32 + np.int32(region - 1)
            else:
                b_base = pbase32 + np.int32(half)
            with ENGINE_ARENA.lease(
                (max_rounds, T, u), np.int32
            ) as probes, ENGINE_ARENA.lease(
                (max_rounds, T, u), np.bool_
            ) as probe_live:
                it = 0
                while live.any():
                    mid = (lo + hi) // 2
                    b_idx = np.clip(diag32 - 1 - mid, 0, half - 1)
                    np.add(pbase32, mid, out=probes[2 * it])
                    if variant == "cf":
                        np.subtract(b_base, b_idx, out=probes[2 * it + 1])
                    else:
                        np.add(b_base, b_idx, out=probes[2 * it + 1])
                    probe_live[2 * it] = live
                    probe_live[2 * it + 1] = live
                    go_right = cut32 > mid
                    lo = np.where(live & go_right, mid + 1, lo)
                    hi = np.where(live & ~go_right, mid, hi)
                    live = lo < hi
                    it += 1
                search.round_many(probes[: 2 * it], probe_live[: 2 * it], kind="read")

        # Merges.
        if variant == "thrust":
            a_end = np.empty_like(a_off)
            a_end[:, :-1] = a_off[:, 1:]
            a_end[:, -1] = 0
            a_end = np.where(pair_last, half, a_end)
            _fused_pointer_merge_rounds(
                merge,
                take_a,
                pbase + a_off,
                pbase + a_end,
                pbase + half + (diag - a_off),
                pbase + half + (diag - a_off) + (E - (a_end - a_off)),
                E,
                L,
                read_policy,
            )
        else:
            # CF gather: E conflict-free read rounds per warp, per tile.
            n_warps = u // w
            merge.shared_read_rounds += E * n_warps
            merge.shared_cycles += E * n_warps
            merge.shared_requests += E * u

        np.bitwise_and(packed, -2, out=packed)
        g *= 2
        level += 1

    # Final staging pass.
    _batched_stage_rounds(stage, u, E, kind="write")


# --------------------------------------------------------------- k-way merge


def kway_thread_cuts(
    runs: Sequence[npt.ArrayLike], E: int
) -> tuple[IntArray, IntArray, IntArray]:
    """Stable per-thread k-way partition of ``runs`` into ``E``-wide chunks.

    Returns ``(cuts, bases, merged)``: ``cuts[i, r]`` is how many elements
    of run ``r`` precede diagonal ``i*E`` of the stable k-way merge (ties
    broken by run index, then in-run position — the multiway merge-path
    generalization), ``bases[r]`` is run ``r``'s start offset in the
    concatenated layout, and ``merged`` is the full stable merge.  Thread
    ``i``'s fragment of run ``r`` is ``runs[r][cuts[i, r]:cuts[i + 1, r]]``;
    the fragments of one thread total exactly ``E`` elements.
    """
    arrays = [np.asarray(r, dtype=np.int64) for r in runs]
    k = len(arrays)
    if k < 1:
        raise ParameterError("kway_thread_cuts needs at least one run")
    lens = np.array([len(a) for a in arrays], dtype=np.int64)
    total = int(lens.sum())
    if E < 1:
        raise ParameterError(f"E must be >= 1, got {E}")
    if total % E:
        raise ParameterError(f"total run length {total} is not a multiple of E={E}")
    u = total // E
    flat = (
        np.concatenate(arrays) if total else np.zeros(0, dtype=np.int64)
    )
    order = np.argsort(flat, kind="stable")
    merged = flat[order]
    run_of = np.repeat(np.arange(k, dtype=np.int64), lens)
    taken = run_of[order]
    cuts = np.zeros((u + 1, k), dtype=np.int64)
    if u:
        csum = np.cumsum(
            taken[:, None] == np.arange(k, dtype=np.int64)[None, :], axis=0
        )
        cuts[1:] = csum[E - 1 :: E]
    return cuts, np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64), merged


def kway_gather_addresses(
    cuts: IntArray,
    bases: IntArray,
    lens: IntArray,
    E: int,
    w: int,
    rho_fwd: IntArray,
    schedule: str = "staged",
) -> tuple[IntArray, BoolArray]:
    """The k-way gather address matrix for one block, ``(u, slots)``.

    ``schedule="staged"`` runs ``k*E`` sub-rounds (the ``kway_rounds``
    plan): slot ``(r, j)`` reads each thread's element of run ``r`` at
    layout residue ``j`` mod ``E``, if its fragment holds one.  Every
    slot's active addresses are a subset of a stride-``E`` arithmetic
    progression, so the schedule is conflict free whenever
    ``GCD(E, w) == 1`` — for *any* ``k``.

    ``schedule="fused"`` generalizes the paper's dual subsequence gather:
    odd-indexed runs are reversed in the layout (``pi``), and each thread
    reads its ``E`` elements in residue-sorted order over ``E`` rounds.
    For ``k == 2`` the residues cover ``0..E-1`` exactly (CF-Merge's
    Lemma) and the schedule *is* Algorithm 1; for ``k > 2`` residues can
    repeat within a thread, so conflicts reappear and are measured.
    """
    u = int(cuts.shape[0]) - 1
    k = int(cuts.shape[1])
    if schedule == "staged":
        plan = get_plan("kway_rounds", k * E, E, w, k)
        run = np.asarray(plan["run"])
        resid = np.asarray(plan["resid"])
        start = bases[None, :] + cuts[:-1, :]  # (u, k)
        end = bases[None, :] + cuts[1:, :]
        s_start = start[:, run]  # (u, k*E)
        p = s_start + ((resid[None, :] - s_start) % E)
        active = p < end[:, run]
        addr = np.asarray(rho_fwd)[np.where(active, p, 0)]
        return addr.astype(np.int64), active
    if schedule == "fused":
        pos_parts = []
        thr_parts = []
        for r in range(k):
            length = int(lens[r])
            x = np.arange(length, dtype=np.int64)
            thr = np.searchsorted(cuts[1:, r], x, side="right")
            pos = bases[r] + (x if r % 2 == 0 else length - 1 - x)
            pos_parts.append(pos)
            thr_parts.append(thr)
        pos = np.concatenate(pos_parts) if pos_parts else np.zeros(0, np.int64)
        thr = np.concatenate(thr_parts) if thr_parts else np.zeros(0, np.int64)
        order = np.lexsort((pos, pos % E, thr))
        addr = np.asarray(rho_fwd)[pos[order]].reshape(u, E)
        return addr.astype(np.int64), np.ones((u, E), dtype=bool)
    raise ParameterError(f"unknown k-way schedule {schedule!r}")


def batched_kway_merge_profile(
    groups: Sequence[Sequence[npt.ArrayLike]],
    E: int,
    w: int,
    *,
    schedule: str = "staged",
) -> list[Counters]:
    """CF k-way merge counters for same-shape groups, one vectorized pass.

    Per group, bit-identical to the *merge*-phase counters of
    :func:`repro.mergesort.kway.kway_merge_block` with
    ``variant="cf"``, ``simulate_search=False`` on the same runs
    (cross-validated in ``tests/test_engine_kway.py`` and
    ``benchmarks/bench_kway.py``): the gather rounds replay the exact
    slot schedule, the scatter rounds replay the cached scatter plan,
    and the register network's compare-exchanges are charged from the
    ``oddeven`` plan.
    """
    if not groups:
        raise ParameterError("batched_kway_merge_profile needs >= 1 group")
    k = len(groups[0])
    addr_mats = []
    active_mats = []
    total = -1
    for runs in groups:
        if len(runs) != k:
            raise ParameterError(
                f"every group must have the same k; got {len(runs)} and {k}"
            )
        cuts, bases, _ = kway_thread_cuts(runs, E)
        lens = np.asarray(cuts[-1])
        group_total = int(lens.sum())
        if total < 0:
            total = group_total
            if total == 0:
                raise ParameterError("k-way groups must be non-empty")
            u = total // E
            if u % w:
                raise ParameterError(
                    f"block width u={u} must be a multiple of w={w}"
                )
            rho_fwd = np.asarray(get_plan("rho", total, E, w)["fwd"])
        elif group_total != total:
            raise ParameterError("every group must have the same total length")
        addr, active = kway_gather_addresses(
            cuts, bases, lens, E, w, rho_fwd, schedule
        )
        addr_mats.append(addr)
        active_mats.append(active)

    stacked_addr = np.stack(addr_mats)  # (T, u, slots)
    stacked_active = np.stack(active_mats)
    T = len(groups)
    acc = BatchCounters(T, u, w)
    # Every gather slot and every scatter round folds into one stacked
    # accounting pass each (bit-identical: the per-round fold commutes).
    acc.round_many(
        stacked_addr.transpose(2, 0, 1), stacked_active.transpose(2, 0, 1), "read"
    )
    scatter = np.asarray(get_plan("scatter", total, E, w)["addr"])  # (E, u)
    acc.round_many(np.broadcast_to(scatter[:, None, :], (E, T, u)), None, "write")
    ops_per_row = int(np.asarray(get_plan("oddeven", E, 0, 1)["lo"]).shape[0])
    out = acc.to_counters()
    for c in out:
        c.compute_ops = 2 * u * E + ops_per_row * u
    return out
