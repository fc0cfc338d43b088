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
:func:`~repro.mergesort.blocksort.blocksort_tile`,
:func:`~repro.mergesort.kway.kway_merge_block`; cross-validated in
the test-suite, e.g. ``tests/test_engine_batch.py``).
Every round is accounted warp row by warp row (row = round, tile,
``tid // w``), so statistics never mix tiles or rounds; data-dependent
loops run a fixed number of steps for every tile — steps past a lane's
convergence contribute nothing, because every count is masked per lane.

The accounting is lane-major.  NumPy runs a reduction or scan along a
short trailing axis as one short inner loop per row, so the ``w``-wide
warp axis is never the axis a loop runs along: each warp row's keys are
sorted along the row (narrow warp rows in groups of 32 lanes, as NumPy's
sort pays per row too), then transposed once to ``(w, rows)``, and every
statistic — distinct addresses, occupied banks, the largest per-bank
count (the round's cycles in the DMM model) — is ``w`` slab passes
that each span every row of every stacked round.  The same holds for
the ``E``-wide per-thread merge tags, which are kept step-major.

Fixed cost per call is what the small sorts pay, so a lane sort is one
stack of levels (:class:`LevelStack`).  After the Merge Path cuts (Green
et al.) a blocksort level and a merge level do the same work — ``u``
threads per tile-sized row, each bisecting for its cut and then merging
``E`` words — so both become ``(tiles, u)`` slabs of one ``(levels,
tiles, u)`` stack with per-row geometry (A base, ``|A|``, ``|B|``, each
thread's diagonal, a last-thread-of-pair mask).  A merge level with
fewer blocks than tiles is padded with rows that are dead in both the
search and the pointer rounds.  Every queued level's bisections replay
in one loop accounted in one :meth:`BatchCounters.round_many` call, and
for ``thrust`` every level's pointer-merge rounds in one more; each pass
folds its per-round sums into per-level totals (all the pipeline reads)
and, where the caller reads them, per-row totals (for
:func:`batched_blocksort_profile`).  A pass holds
whole levels of at most :data:`STACK_LANES` thread lanes (rows times
``u``), so large batches keep one pass per level and bounded scratch.
The blocksort's staging rounds are one closed-form update.

There is one bisection replay (:func:`_search_pass`) and one
pointer-merge replay (:func:`_merge_pass`); the pair profiles run them
on one level whose rows are the pairs.  Values past the ``2*v + tag``
packing range are replaced by their dense ranks first (same
comparisons, same counters), and a merge or search pair whose halves
are not two sorted runs raises :class:`~repro.errors.ParameterError`.
A k-way merge level (:func:`kway_level_profile`) is one packed ``(value,
run)`` sort per group shape with its blocks as rows; its search shares
the bisection (:func:`_bisect`) but places reads by ordinal, since one
lockstep round there mixes probes of different runs.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.engine.arena import ENGINE_ARENA
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.numtheory import coprime
from repro.sim.counters import Counters
from repro.telemetry.stats import CounterSet

__all__ = [
    "BatchCounters",
    "pad_and_stack",
    "odd_even_sort_rows",
    "batched_serial_merge_profile",
    "batched_search_profile",
    "merge_tags",
    "LevelStack",
    "batched_cf_merge_profile",
    "batched_blocksort_profile",
    "kway_thread_cuts",
    "kway_gather_addresses",
    "kway_merge_tags",
    "kway_level_profile",
    "kway_compute_ops",
    "batched_kway_merge_profile",
    "batched_kway_search_profile",
    "FUSION",
    "fusion_stats",
    "reset_fusion_stats",
]

#: Thread lanes (tile rows times ``u``) one stacked accounting pass
#: holds: 64 rows of the paper's ``u = 512``.  A pass takes whole levels
#: while their lanes fit (a level wider than this runs alone), so small
#: sorts fold every level into one pass while large ones keep one pass
#: per level, and scratch, which grows with lanes, stays bounded at every
#: ``u``.
STACK_LANES = 64 * 512

IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]
#: Index arrays the replays narrow to int32 where addresses allow.
AnyIntArray = npt.NDArray[np.integer[Any]]


#: Process-global fusion accounting: how much round traffic was folded.
#: Every counter is a pure call count (no wall-clock, no warm-state), so
#: deltas are deterministic for a given profile call — the runner's
#: engine tiles report them into BASELINE-gated metrics.
FUSION = CounterSet(
    "round_calls",
    "round_many_calls",
    "rounds_folded",
    "stage_passes",
    "stage_rounds_folded",
    "fused_blocksorts",
    "fallback_blocksorts",
    "fused_merges",
    "fallback_merges",
    "fused_searches",
    "fallback_searches",
)


def fusion_stats() -> dict[str, float]:
    """Process-global fused-pass counters (for telemetry exports)."""
    return {name: float(value) for name, value in FUSION.snapshot().items()}


def reset_fusion_stats() -> None:
    """Reset :func:`fusion_stats` counters (tests and profiling runs)."""
    FUSION.reset()


class BatchCounters:
    """Per-tile shared-memory counters, accumulated as arrays of length T.

    One instance accounts every round of a batched profile; each round
    charges every active warp what
    :meth:`repro.sim.banks.BankModel.round_cost` charges it (duplicate
    addresses broadcast, a round costs its largest bank multiplicity),
    applied per tile (not with ``per_tile=False``, for a caller that reads
    only the per-round sums :meth:`round_many` returns)."""

    def __init__(self, tiles: int, u: int, w: int, *, per_tile: bool = True) -> None:
        if tiles < 1:
            raise ParameterError(f"batch needs >= 1 tile, got {tiles}")
        if u < 1 or w < 1:
            raise ParameterError(f"u={u} and w={w} must be >= 1")
        self.tiles = tiles
        self.u = u
        self.w = w
        self.per_tile = per_tile
        #: Warp slots per tile — ceil so a partial trailing warp (u % w
        #: != 0, possible in search profiles) still gets its own slot and
        #: never aliases the next tile's first warp.
        self._slots = -(-u // w)
        #: One row per counter field; each field attribute is a row view.
        self._counts = np.zeros((len(_SHARED_FIELDS), tiles), dtype=np.int64)
        (
            self.shared_read_rounds,
            self.shared_write_rounds,
            self.shared_cycles,
            self.shared_replays,
            self.shared_excess,
            self.broadcast_reads,
            self.shared_requests,
        ) = self._counts

    def round(self, addresses: IntArray, active: BoolArray, kind: str = "read") -> None:
        """Account one warp-synchronous round across every tile at once.

        ``addresses`` is ``(tiles, u)`` (broadcastable); ``active`` masks
        lanes that access memory this round; warps with no active lane
        are free.  The same accounting as a one-round :meth:`round_many`
        (the fusion ledger counts it as a single round).
        """
        FUSION.add(round_calls=1)
        shape = (self.tiles, self.u)
        self._account(
            np.broadcast_to(np.asarray(addresses), shape)[None],
            np.broadcast_to(np.asarray(active, dtype=bool), shape)[None],
            kind,
            distinct=False,
        )

    def round_many(
        self,
        addresses: npt.NDArray[np.integer],
        active: BoolArray | None,
        kind: str = "read",
        *,
        assume_distinct: bool = False,
    ) -> IntArray:
        """Account ``R`` stacked warp-synchronous rounds in one pass.

        ``addresses`` is ``(R, tiles, u)`` (broadcastable); ``active``
        masks lanes per round, or ``None`` for all-active rounds.  Every
        round's dedup and bank statistics stay in its own warp rows, and
        the fold over rounds is an integer sum, which commutes — so the
        result is bit-identical to accounting each round on its own.
        Rounds with no active lane contribute exact zeros.  All rounds of
        one call share ``kind``.  Returns the ``(5, R)`` per-round sums
        over every tile (warps issued, requests, distinct addresses,
        occupied banks, cycles), which :func:`_charge` turns into counter
        rows — so a caller can fold rounds per level as well as per tile.

        ``assume_distinct=True`` asserts the caller's invariant that all
        active addresses within any warp and round are pairwise distinct
        (true for bounded pointer merges, whose per-thread windows are
        disjoint): the keys are then bare bank ids, with no address
        dedup.  A partial trailing warp (``u % w != 0``) is padded to a
        whole warp with inactive lanes.

        The work is lane-major: each warp row's keys are sorted along the
        row, then transposed once to ``(w, rows)``.  Every statistic —
        distinct addresses, occupied banks, the largest per-bank count —
        is then ``w`` slab passes that each span all rows of all rounds,
        instead of one short NumPy loop per row.
        """
        addr = np.asarray(addresses)
        if addr.ndim != 3:
            raise ParameterError("round_many expects (rounds, tiles, u) addresses")
        R = int(addr.shape[0])
        if R == 0:
            return np.zeros((5, 0), dtype=np.int64)
        FUSION.add(round_many_calls=1, rounds_folded=R)
        return self._account(addr, active, kind, distinct=assume_distinct)

    def _account(
        self,
        addresses: npt.NDArray[np.integer],
        active: BoolArray | None,
        kind: str,
        distinct: bool,
    ) -> IntArray:
        """Charge ``R`` stacked rounds: the body of :meth:`round_many`.

        Each lane's key is ``bank << shift | low bits`` — distinct keys
        are distinct addresses, and a sorted row groups each bank — or
        the bare bank id when ``distinct``.  Inactive and padding lanes
        get a key ``>= w << shift``, so they sort last in their row.

        NumPy's sort pays per row, so warp rows narrower than 32 lanes
        sort in groups (:func:`_sort_rows`), whatever their round or tile;
        rows that only fill the last group are inactive and never read.
        """
        R = int(addresses.shape[0])
        T, u, w, S = self.tiles, self.u, self.w, self._slots
        shape = (R, T, u)
        addr = _full(addresses, shape)
        act = None
        if active is not None:
            act = _full(np.asarray(active, dtype=bool), shape)
            if not act.any():
                return np.zeros((5, R), dtype=np.int64)
        # Two addresses of the span differ in their low ``shift`` bits.
        shift = 0 if distinct else max(int(addr.max()) - int(addr.min()), 1).bit_length()
        limit = w << shift
        bits = limit.bit_length()  # every key, inactive or not, is below 2**bits
        if bits > 63:  # pragma: no cover - pathological address span
            raise ParameterError("round_many address span too wide to key")
        # log2 of the warp rows sorted as one: 32 // w rounded down to a
        # power of two, fewer where an int64 cannot hold the prefix.
        group = min(max((32 // w).bit_length() - 1, 0), 63 - bits)
        dtype: type = np.int32 if bits + group < 32 else np.int64
        n = R * T * S
        g = 1 << group
        with ENGINE_ARENA.lease((-(-n // g) * g, w), dtype) as padded:
            keys = padded[:n]
            padded[n:] = limit
            rows = keys.reshape(R, T, S * w)
            key = rows[..., :u]
            rows[..., u:] = limit
            if distinct:
                _bank_ids(addr, w, out=key)
                if act is not None:
                    _push_inactive(key, act, limit, np.empty_like(key))
                _sort_rows(padded, group, bits)
                # Bank ids and the inactive marks below 2w fit a byte.
                lanes = np.empty((w, n), dtype=_count_dtype(2 * w))
                _transpose_into(lanes, keys)
                totals = _warp_row_totals(lanes, lanes, limit, True)
            else:
                with ENGINE_ARENA.lease((n, w), dtype) as spare:
                    banks = spare.reshape(w, n)
                    scratch = spare.reshape(-1)[: R * T * u].reshape(shape)
                    np.bitwise_and(
                        addr, (1 << shift) - 1, out=key, dtype=dtype, casting="unsafe"
                    )
                    _bank_ids(addr, w, out=scratch)
                    np.left_shift(scratch, shift, out=scratch)
                    key |= scratch
                    if act is not None:
                        _push_inactive(key, act, limit, scratch)
                    _sort_rows(padded, group, bits)
                    lanes = np.empty((w, n), dtype=dtype)
                    _transpose_into(lanes, keys)
                    np.right_shift(lanes, shift, out=banks)
                    totals = _warp_row_totals(lanes, banks, limit, False)
        # Rows run (round, tile, slot): per tile, sum the rounds, then the
        # slots; per round, sum each round's contiguous rows.
        by_round = totals.reshape(5, R, T * S)
        if self.per_tile:
            per_slot = np.add.reduce(
                by_round, axis=1, dtype=_count_dtype(R * w + 1)
            ).reshape(5, T, S)
            per_tile = per_slot[..., 0].astype(np.int64)
            for s in range(1, S):
                per_tile += per_slot[..., s]
            _charge(self._counts, per_tile, kind)
        # A warp's statistics are at most w each: a round's sums fit T*S*w.
        per_round = np.add.reduce(by_round, axis=2, dtype=_count_dtype(T * S * w + 1))
        return per_round.astype(np.int64)

    def total(self, rows: slice = slice(None)) -> Counters:
        """The counters of the tiles in ``rows`` (all by default), summed."""
        self._check_per_tile()
        sums = self._counts[:, rows].sum(axis=1).tolist()
        return Counters(**dict(zip(_SHARED_FIELDS, sums)))

    def to_counters(self) -> list[Counters]:
        """Materialize one :class:`Counters` per tile."""
        self._check_per_tile()
        return [
            Counters(**dict(zip(_SHARED_FIELDS, tile)))
            for tile in self._counts.T.tolist()
        ]

    def _check_per_tile(self) -> None:
        if not self.per_tile:
            raise ParameterError("this accumulator keeps no per-tile counters")


#: The :class:`Counters` fields a :class:`BatchCounters` accumulates, in
#: the order of its rows.
_SHARED_FIELDS = (
    "shared_read_rounds",
    "shared_write_rounds",
    "shared_cycles",
    "shared_replays",
    "shared_excess",
    "broadcast_reads",
    "shared_requests",
)


#: Counter rows (:data:`_SHARED_FIELDS` order) as sums of the five
#: per-round statistics :meth:`BatchCounters.round_many` returns: warps
#: issued, requests, distinct addresses, occupied banks, cycles.
_CHARGE = {
    kind: np.array(
        [
            [read, 0, 0, 0, 0],  # shared_read_rounds: warps issued
            [1 - read, 0, 0, 0, 0],  # shared_write_rounds: warps issued
            [0, 0, 0, 0, 1],  # shared_cycles
            [-1, 0, 0, 0, 1],  # shared_replays: cycles beyond the first
            [0, 0, 1, -1, 0],  # shared_excess: distinct less occupied
            [0, read, -read, 0, 0],  # broadcast_reads: requests less distinct
            [0, 1, 0, 0, 0],  # shared_requests
        ],
        dtype=np.int64,
    )
    for kind, read in (("read", 1), ("write", 0))
}


def _charge(counts: IntArray, stats: npt.NDArray[np.integer], kind: str) -> None:
    """Add ``(5, X)`` round statistics to ``(7, X)`` counter rows."""
    counts += _CHARGE[kind] @ stats


#: Lanes per block of the lane-major transpose: one strided copy of a
#: large ``(rows, w)`` matrix thrashes the cache, blocks of this many
#: lanes stay in it.
_TRANSPOSE_LANES = 1 << 14


def _full(array: npt.NDArray[Any], shape: tuple[int, ...]) -> npt.NDArray[Any]:
    """``array`` broadcast to ``shape`` (skipping the cost when it already fits)."""
    return array if array.shape == shape else np.broadcast_to(array, shape)


def _count_dtype(limit: int) -> np.dtype[Any]:
    """The narrowest unsigned dtype holding every value below ``limit``."""
    return np.min_scalar_type(limit - 1)


def _bank_ids(addr: npt.NDArray[np.integer], w: int, out: AnyIntArray) -> None:
    """``out = addr % w`` (non-negative, as in :class:`~repro.sim.BankModel`)."""
    if w & (w - 1) == 0:
        np.bitwise_and(addr, w - 1, out=out, casting="unsafe")
    else:
        np.remainder(addr, w, out=out, casting="unsafe")


def _push_inactive(
    key: AnyIntArray, act: BoolArray, limit: int, scratch: AnyIntArray
) -> None:
    """Raise inactive lanes' keys to ``>= limit`` so they sort last.

    ``key | limit`` keeps every bit below ``limit``'s top bit, so the
    key stays inside its dtype.  ``scratch`` is a work array shaped and
    typed like ``key``.
    """
    np.multiply(np.logical_not(act), key.dtype.type(limit), out=scratch)
    key |= scratch


def _sort_rows(keys: AnyIntArray, group: int, bits: int) -> None:
    """Sort each row of the ``(rows, w)`` keys, all below ``2**bits``, as
    ``2**group`` rows per sort row (``rows`` a multiple of it): a prefix of
    each row's index in its group keeps them apart and is cleared after."""
    if not group:
        keys.sort(axis=1)
        return
    g, w = 1 << group, keys.shape[1]
    grouped = keys.reshape(-1, g * w)
    grouped |= np.repeat(np.arange(g, dtype=keys.dtype) << bits, w)
    grouped.sort(axis=1)
    keys &= (1 << bits) - 1


def _transpose_into(lanes: npt.NDArray[Any], keys: npt.NDArray[Any]) -> None:
    """``lanes[:, i] = keys[i]``, copied in blocks that stay in cache."""
    n, w = keys.shape
    step = max(1, _TRANSPOSE_LANES // w)
    for lo in range(0, n, step):
        np.copyto(lanes[:, lo : lo + step], keys[lo : lo + step].T, casting="unsafe")


def _warp_row_totals(
    lanes: npt.NDArray[Any], banks: npt.NDArray[Any], limit: int, distinct: bool
) -> npt.NDArray[Any]:
    """Per-warp-row statistics from lane-major sorted keys.

    ``lanes`` is ``(w, rows)``: column ``i`` holds warp row ``i``'s keys
    sorted, inactive lanes (``>= limit``) last; ``banks`` holds the
    keys' bank ids (the keys themselves when ``distinct``).  Returns a
    ``(5, rows)`` array: whether the warp issued the round, its
    requests, its distinct addresses, its occupied banks and its cycles
    (the largest per-bank distinct count).  Every pass spans all rows;
    the loop runs over the ``w`` lanes only.
    """
    w, n = lanes.shape
    valid = lanes < limit
    if distinct:
        fresh = valid
    else:
        fresh = np.empty_like(valid)
        fresh[0] = valid[0]
        np.not_equal(lanes[1:], lanes[:-1], out=fresh[1:])
        fresh[1:] &= valid[1:]
    start = np.empty_like(valid)
    start[0] = valid[0]
    np.not_equal(banks[1:], banks[:-1], out=start[1:])
    start[1:] &= valid[1:]
    cdt = _count_dtype(w + 1)
    out = np.empty((5, n), dtype=cdt)
    out[0] = valid[0]  # sorted rows: any active lane puts one in lane 0
    np.add.reduce(valid.view(np.uint8), axis=0, dtype=cdt, out=out[1])
    if distinct:
        out[2] = out[1]
    else:
        np.add.reduce(fresh.view(np.uint8), axis=0, dtype=cdt, out=out[2])
    np.add.reduce(start.view(np.uint8), axis=0, dtype=cdt, out=out[3])
    # Distinct addresses so far in the current bank: a running count of
    # fresh lanes that restarts at each bank's first lane.
    run = fresh.astype(cdt)
    keep = np.logical_not(start, out=start)
    carry = np.empty(n, dtype=cdt)
    for j in range(1, w):
        np.multiply(run[j - 1], keep[j], out=carry)
        run[j] += carry
    np.maximum.reduce(run, axis=0, out=out[4])
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


def _stack_runs(
    groups: Sequence[Sequence[npt.ArrayLike]], E: int, profile: str | None = None
) -> tuple[IntArray, IntArray, IntArray]:
    """Stack same-shape groups of sorted runs: ``(backing, lens, runs)``.

    Row ``t`` of ``backing`` holds group ``t``'s runs back to back,
    ``lens`` is ``(groups, k)`` and ``runs`` is every word's run index.
    Values past the ``v << bits | run`` packing range come back as dense
    ranks, which keep every comparison (order and ties) and hence every
    counter; given a ``profile``, :func:`fusion_stats` counts the pass as
    ``fused_<profile>`` or ``fallback_<profile>`` (``fallback_merges``,
    ``fallback_searches``).
    """
    if not groups:
        raise ParameterError("batched profile needs at least one group of runs")
    k = len(groups[0])
    if any(len(runs) != k for runs in groups):
        raise ParameterError(f"every group must have the same k = {k}")
    arrays = [np.asarray(run, dtype=np.int64) for runs in groups for run in runs]
    lens = np.array([len(a) for a in arrays], dtype=np.int64).reshape(len(groups), k)
    total = int(lens[0].sum())
    if np.any(lens.sum(axis=1) != total):
        raise ParameterError("every group must have the same total length")
    if total == 0 or total % E:
        raise ParameterError(f"group length {total} must be a positive multiple of E = {E}")
    backing = np.concatenate(arrays).reshape(len(groups), total)
    runs = np.repeat(np.tile(np.arange(k), len(groups)), lens.ravel()).reshape(backing.shape)
    # A descent is allowed only where one run ends and the next begins.
    if not np.all((backing[:, 1:] >= backing[:, :-1]) | (runs[:, 1:] != runs[:, :-1])):
        raise ParameterError("every run must be sorted")
    packable = _pack_dtype(backing, (k - 1).bit_length()) is not None
    if profile is not None:
        FUSION.add(**{("fused_" if packable else "fallback_") + profile: 1})
    if not packable:
        backing = np.unique(backing, return_inverse=True)[1].reshape(backing.shape)
    return backing, lens, runs


def _pack_dtype(backing: IntArray, bits: int = 1) -> type | None:
    """Narrowest dtype holding ``v << bits | tag``, or ``None`` past int64."""
    if backing.size == 0:
        return np.int32
    lo, hi = int(backing.min()), int(backing.max())
    for dtype, width in ((np.int32, 31), (np.int64, 63)):
        if -(1 << (width - bits)) <= lo and hi < (1 << (width - bits)):
            return dtype
    return None


def _fused_pointer_merge_rounds(
    acc: BatchCounters,
    take_a: BoolArray,
    a_ptr: AnyIntArray,
    a_end: AnyIntArray,
    b_ptr: AnyIntArray,
    b_end: AnyIntArray,
    E: int,
    length: int,
    read_policy: str,
) -> IntArray:
    """Replay the serial merge's pointer rounds in closed form.

    The rounds are those of
    :func:`~repro.mergesort.serial_merge.serial_merge_block`'s per-thread
    merge: two head loads, then ``E`` advance rounds.

    The pointer arrays are ``(levels, tiles, u)``: each leading slice is
    one independent merge over the accumulator's tiles (a blocksort
    level, say).  ``take_a`` is ``(E, levels, tiles, u)``: the merge
    decision each thread makes at each of its ``E`` steps (known up
    front from the packed-sort tags), step-major so that every step is
    one contiguous slab.  Pointer trajectories then
    collapse to cumulative sums — after step ``j`` a thread has consumed
    ``csum[j]`` A elements and ``j + 1 - csum[j]`` B elements — so every
    round's addresses and active masks are closed-form, and every
    level's merge (initial key loads plus ``E`` advance rounds) folds
    into one :meth:`BatchCounters.round_many` call, bit-identical to
    running the rounds one by one.  Every address stays below ``length``.
    Returns the ``(5, levels)`` per-level sums of the rounds' statistics.

    Under ``bounded`` reads each active lane's address sits inside its
    own thread's A or B window; windows are pairwise disjoint within a
    warp (merge-path cuts are nondecreasing, pair regions disjoint), so
    the accounting runs with ``assume_distinct=True``.
    """
    G, T, u = a_ptr.shape
    dt: type = np.int32 if length < (1 << 31) else np.int64
    a_ptr_n = a_ptr.astype(dt, copy=False)
    b_ptr_n = b_ptr.astype(dt, copy=False)
    a_end_n = a_end.astype(dt, copy=False)
    b_end_n = b_end.astype(dt, copy=False)
    # Slab-wise running sum: ~13x faster than np.cumsum(axis=0) with its
    # per-element bool->int cast.
    csum = np.empty((E, G, T, u), dtype=dt)
    np.copyto(csum[0], take_a[0])
    for j in range(1, E):
        np.add(csum[j - 1], take_a[j], out=csum[j])
    pa = a_ptr_n[None] + csum
    # Reuse csum's buffer for pb = b_ptr + (step - csum).
    np.subtract(np.arange(1, E + 1, dtype=dt)[:, None, None, None], csum, out=csum)
    pb = csum
    pb += b_ptr_n[None]
    with ENGINE_ARENA.lease((E + 2, G, T, u), dt) as rounds, ENGINE_ARENA.lease(
        (E + 2, G, T, u), np.bool_
    ) as lives:
        rounds[0] = a_ptr_n
        rounds[1] = b_ptr_n
        np.copyto(lives[0], a_ptr_n < a_end_n)
        np.copyto(lives[1], b_ptr_n < b_end_n)
        if read_policy == "always":
            np.copyto(rounds[2:], pb)
            np.copyto(rounds[2:], pa, where=take_a)
            np.less(pb, b_end_n[None], out=lives[2:])
            in_a_range = pa < a_end_n[None]
            np.copyto(lives[2:], in_a_range, where=take_a)
            np.copyto(
                rounds[2:],
                np.maximum(b_end_n - 1, 0)[None],
                where=~(lives[2:] | take_a),
            )
            np.copyto(
                rounds[2:],
                np.maximum(a_end_n - 1, 0)[None],
                where=take_a & ~in_a_range,
            )
            lives[2:] = True
            per_round = acc.round_many(
                rounds.reshape(-1, T, u), lives.reshape(-1, T, u), kind="read"
            )
        else:
            # Select per-lane pointer and liveness with arithmetic
            # blends (masked copyto is far slower than full passes).
            in_a = pa < a_end_n[None]
            in_b = pb < b_end_n[None]
            np.logical_xor(in_a, in_b, out=in_a)
            np.logical_and(in_a, take_a, out=in_a)
            np.logical_xor(in_b, in_a, out=lives[2:])
            np.subtract(pa, pb, out=pa)
            np.multiply(pa, take_a, out=pa)
            np.add(pb, pa, out=rounds[2:])
            per_round = acc.round_many(
                rounds.reshape(-1, T, u),
                lives.reshape(-1, T, u),
                kind="read",
                assume_distinct=True,
            )
    # Rounds run (round, level): sum each level's rounds.
    return per_round.reshape(5, E + 2, G).sum(axis=1)


def _bisect(
    lo: AnyIntArray, hi: AnyIntArray, cuts: AnyIntArray, steps: int
) -> tuple[AnyIntArray, BoolArray]:
    """``steps`` bisection steps of every lane, replayed from its cut.

    Along the real probe path the branch at ``mid`` is ``cut > mid``, so
    no data is read.  A converged lane (``lo == hi == cut``) stays put,
    so a lane's live steps are a prefix.  Returns the probes and live
    masks, ``(steps, *cuts.shape)``, in ``lo``'s dtype (it holds ``lo + hi``).
    """
    mids = np.empty((steps,) + cuts.shape, dtype=lo.dtype)
    live = np.empty((steps,) + cuts.shape, dtype=bool)
    lo = _full(lo, cuts.shape)
    hi = _full(hi, cuts.shape)
    for step in range(steps):
        mid = mids[step]
        np.less(lo, hi, out=live[step])
        np.add(lo, hi, out=mid)
        mid >>= 1
        right = cuts > mid
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return mids, live


#: Computes a replay's probe addresses in place: ``probe(out, levels)``
#: gets the ``(K, tiles, u)`` stacked mids in ``out[0]`` (slab ``k`` from
#: level ``levels[k]``) and writes their A and B addresses into ``out[0]``
#: and ``out[1]``.
Probe = Callable[[AnyIntArray, AnyIntArray], None]


def _replay_searches(
    acc: BatchCounters,
    lo: AnyIntArray,
    hi: AnyIntArray,
    cuts: AnyIntArray,
    probe: Probe,
) -> IntArray:
    """Replay stacked merge-path bisections from their final cuts.

    ``lo``, ``hi`` and ``cuts`` are ``(levels, tiles, u)`` (``lo`` and
    ``hi`` broadcastable): each leading slice is one independent set of
    per-thread searches over the accumulator's tiles, replayed with no
    data reads for a fixed number of steps (:func:`_bisect`).  Only the
    ``(step, level)`` slabs with a live lane are kept, ``probe`` runs on
    those alone, and they go to one :meth:`BatchCounters.round_many`
    call, so each level folds exactly the rounds its own bisection loop
    would run.  Returns the ``(5, levels)`` per-level sums.

    The steps and probes run in the dtype of ``lo``, ``hi`` and
    ``cuts``, which must hold ``lo + hi`` and every probe address.
    """
    G, T, u = cuts.shape
    per_level = np.zeros((5, G), dtype=np.int64)
    # A bisection over an interval of s candidates ends within
    # s.bit_length() steps of two reads each.
    steps = int((hi - lo).max(initial=0)).bit_length()
    if not steps:
        return per_level
    dt = lo.dtype
    mids, live = _bisect(lo, hi, cuts, steps)
    kept = np.flatnonzero(live.reshape(steps * G, T * u).any(axis=1))
    K = len(kept)
    if not K:
        return per_level
    probes = np.empty((2, K, T, u), dtype=dt)
    np.take(mids.reshape(-1, T, u), kept, axis=0, out=probes[0])
    probe(probes, kept % G)
    now = np.empty((2, K, T, u), dtype=bool)
    np.take(live.reshape(-1, T, u), kept, axis=0, out=now[0])
    now[1] = now[0]
    # The step stacks are dead: free them before the accounting scratch.
    del mids, live
    per_round = acc.round_many(
        probes.reshape(2 * K, T, u), now.reshape(2 * K, T, u), kind="read"
    )
    # Rounds run (A probes, B probes) x kept slab; slabs run (step, level).
    per_slab = np.zeros((5, steps * G), dtype=np.int64)
    per_slab[:, kept] = per_round[:, :K] + per_round[:, K:]
    return per_slab.reshape(5, steps, G).sum(axis=1)


def _search_pass(
    acc: BatchCounters,
    cuts: AnyIntArray,
    a_base: AnyIntArray,
    diag: AnyIntArray,
    n_a: AnyIntArray,
    n_b: AnyIntArray,
    span: int,
    reverse: bool,
    fwd: AnyIntArray | None = None,
) -> IntArray:
    """Every thread's merge-path search of stacked levels, replayed.

    Each level is ``(tiles, u)`` threads: ``cuts`` is ``(levels, tiles,
    u)``, ``a_base`` (the A half's first address) and ``diag`` (each
    thread's diagonal inside its pair) are ``(levels, 1, u)``, and
    ``n_a`` and ``n_b`` (the pair's ``|A|`` and ``|B|``) are ``(levels,
    tiles, 1)``.  B follows A; ``reverse`` lays it out backwards from
    the pair's last word, as CF-Merge's ``pi`` does, and ``fwd`` (the
    ``rho`` position -> address table, ``None`` where it is the
    identity) maps every probe.  A row with ``|A| = |B| = 0`` never
    searches.  Every address lies below ``span``; below ``2^14`` the
    replay runs in int16 (``lo + hi`` still fits), which halves its
    memory traffic and its scratch at paper geometry.  Returns the
    ``(5, levels)`` per-level sums.
    """
    # Cast the geometry once, so every pass over the stacks runs one dtype.
    dt = np.int16 if span < (1 << 14) else np.int32
    a_base, diag, n_a, n_b = (np.asarray(x, dtype=dt) for x in (a_base, diag, n_a, n_b))
    lo = np.subtract(diag, n_b)
    np.maximum(lo, 0, out=lo)
    hi = np.minimum(diag, n_a)
    diag_less_1 = diag - 1
    b_top = np.maximum(n_b - 1, 0)
    b_base = n_a + (n_b - 1) if reverse else n_a

    def probe(out: AnyIntArray, level: AnyIntArray) -> None:
        mid, b_idx = out
        base = a_base[level]
        np.subtract(diag_less_1[level], mid, out=b_idx)
        mid += base
        np.maximum(b_idx, 0, out=b_idx)
        np.minimum(b_idx, b_top[level], out=b_idx)
        if reverse:
            np.negative(b_idx, out=b_idx)
        b_idx += b_base[level]
        b_idx += base
        if fwd is not None:
            np.take(fwd, out, out=out)

    return _replay_searches(acc, lo, hi, cuts.astype(dt), probe)


def _merge_pass(
    acc: BatchCounters,
    take_a: BoolArray,
    cuts: AnyIntArray,
    a_base: AnyIntArray,
    diag: AnyIntArray,
    n_a: AnyIntArray,
    n_b: AnyIntArray,
    last: BoolArray,
    E: int,
    read_policy: str,
) -> IntArray:
    """Every thread's serial-merge pointer rounds of stacked levels.

    The geometry is :func:`_search_pass`'s (B follows A), plus ``last``,
    ``(levels, 1, u)``: whether a thread is its pair's last.  A thread's
    A window ends at the next thread's cut, or at ``|A|`` for a pair's
    last; its B window holds the rest of its ``E`` outputs, capped at the
    pair's end — which a row with ``|A| = |B| = 0`` puts at its base, so
    it never reads.  ``take_a`` is the ``(E, levels, tiles, u)``
    step-major merge tags.  Returns the ``(5, levels)`` per-level sums.
    """
    nxt = np.empty_like(cuts)
    nxt[..., :-1] = cuts[..., 1:]
    nxt[..., -1] = 0  # every row's last thread ends a pair
    a_end = np.where(last, n_a, nxt)
    b_ptr = a_base + n_a + diag - cuts
    b_end = np.minimum(b_ptr + (E - (a_end - cuts)), a_base + n_a + n_b)
    a_end += a_base
    return _fused_pointer_merge_rounds(
        acc, take_a, a_base + cuts, a_end, b_ptr, b_end, E, cuts.shape[2] * E,
        read_policy,
    )


def _step_major(from_a: BoolArray, E: int) -> BoolArray:
    """``(rows, u*E)`` merge tags as a contiguous ``(E, rows, u)`` stack."""
    rows, total = from_a.shape
    return np.ascontiguousarray(from_a.reshape(rows, total // E, E).transpose(2, 0, 1))


def _thread_cuts(take_a: BoolArray) -> AnyIntArray:
    """Per-thread merge-path cuts from step-major merge tags.

    ``take_a`` is ``(E, ..., u)``: whether thread ``i``'s ``j``-th
    output came from the A half.  The cut at diagonal ``i*E`` is the
    number of A outputs before it: per-thread counts (a sum over the
    ``E`` slabs), then an exclusive prefix along the threads.
    """
    E = take_a.shape[0]
    cnt = np.add.reduce(take_a.view(np.uint8), axis=0, dtype=_count_dtype(E + 1))
    return np.cumsum(cnt, axis=-1, dtype=np.int32) - cnt


def _block_geometry(u: int, E: int) -> tuple[AnyIntArray, AnyIntArray, BoolArray]:
    """``(a_base, diag, last)`` of a merge block row, each ``(1, 1, u)``.

    A merge block is one pair: A starts at 0, thread ``i``'s diagonal is
    ``i*E`` and the last thread ends the pair.
    """
    tid = np.arange(u, dtype=np.int32)[None, None, :]
    return np.zeros_like(tid), tid * E, tid == u - 1


def merge_tags(backing: IntArray, n_a: IntArray) -> tuple[BoolArray, IntArray]:
    """Stable ties-to-A merge of each row's sorted A and B halves.

    ``backing`` is ``(rows, total)``, row ``t`` holding A in its first
    ``n_a[t]`` words and B after: the two-run case of
    :func:`kway_merge_tags`, run 1 on every B position (``|v| < 2^62``).
    The low bit of the sorted keys says which half each merged output
    came from, and an arithmetic shift recovers the sorted values exactly
    (``2v + tag`` is monotone in ``v``; ``>> 1`` floors back for
    negatives too).  Returns ``(from_a, merged)``: the tags the search
    and merge rounds replay from (:meth:`LevelStack.push_merge`), and
    the merged rows.
    """
    in_b = np.arange(backing.shape[1])[None, :] >= np.asarray(n_a)[:, None]
    packed = kway_merge_tags(backing, in_b, 2)
    from_a = (packed & 1) == 0
    packed >>= 1
    return from_a, packed.astype(np.int64, copy=False)


def _pair_tags(
    pairs: Sequence[tuple[npt.ArrayLike, npt.ArrayLike]], E: int, profile: str
) -> tuple[BoolArray, AnyIntArray, AnyIntArray, AnyIntArray]:
    """One merge level of (A, B) pairs: ``(take_a, cuts, n_a, n_b)``.

    Step-major tags ``(E, 1, rows, u)``, cuts ``(1, rows, u)`` and the
    ``(1, rows, 1)`` half sizes, as :func:`_search_pass` and
    :func:`_merge_pass` take them.
    """
    backing, lens, _ = _stack_runs(pairs, E, profile)
    n_a = lens[:, 0]
    from_a, _ = merge_tags(backing, n_a)
    take_a = _step_major(from_a, E)
    n_a_col = n_a.astype(np.int32)[None, :, None]
    return take_a[:, None], _thread_cuts(take_a)[None], n_a_col, backing.shape[1] - n_a_col


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
    ops excepted), for every pair in one vectorized pass.  Each pair's
    halves must be sorted (the contract real merge inputs satisfy).  One
    packed-key sort (:func:`merge_tags`) yields the merge decisions, and
    every pointer-merge round folds into a single stacked accounting
    pass — the merge rounds :class:`LevelStack` runs, on one level."""
    if read_policy not in ("bounded", "always"):
        raise ParameterError(f"unknown read_policy {read_policy!r}")
    take_a, cuts, n_a, n_b = _pair_tags(pairs, E, "merges")
    u = cuts.shape[2]
    if u % w:
        raise ParameterError(f"thread count {u} must be a multiple of w = {w}")
    acc = BatchCounters(cuts.shape[1], u, w)
    a_base, diag, last = _block_geometry(u, E)
    _merge_pass(acc, take_a, cuts, a_base, diag, n_a, n_b, last, E, read_policy)
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
    whose search addresses go through the CF layout (B reversed, and the
    cached ``rho`` plan, a position -> address table, where ``gcd(w, E)
    > 1``); the search trajectory itself reads plain values either way.

    Each pair's halves must be sorted.  The bisections are *replayed*
    instead of executed: the final cuts come from one packed-key sort
    (:func:`merge_tags`), and the replay :class:`LevelStack` runs
    reproduces every probe with no data reads, folded into one stacked
    accounting pass."""
    take_a, cuts, n_a, n_b = _pair_tags(pairs, E, "searches")
    _, rows, u = cuts.shape
    total = u * E
    fwd: AnyIntArray | None = None
    if mapped and not coprime(w, E):
        fwd = np.asarray(get_plan("rho", total, E, w)["fwd"]).astype(np.int32)
    acc = BatchCounters(rows, u, w)
    a_base, diag, _ = _block_geometry(u, E)
    _search_pass(acc, cuts, a_base, diag, n_a, n_b, total, mapped, fwd)
    return acc.to_counters()


def _cf_rounds(E: int, u: int, w: int, scatter: bool) -> IntArray:
    """One row's CF-Merge rounds, as counter rows (:data:`_SHARED_FIELDS`).

    ``E`` conflict-free gather rounds per warp, one cycle each, and as
    many scatter rounds in a merge block (a blocksort level stages its
    merged words instead).
    """
    rounds = E * (u // w)
    passes = 1 + scatter
    return np.array(
        [rounds, rounds * scatter, rounds * passes, 0, 0, 0, E * u * passes], dtype=np.int64
    )


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
    if not tiles:
        return []
    acc = BatchCounters(tiles, u, w)
    acc._counts += _cf_rounds(E, u, w, scatter=True)[:, None]
    return acc.to_counters()


def _stage_counts(u: int, E: int, w: int, levels: int) -> IntArray:
    """One tile's thread-contiguous staging counters (round m -> {iE + m}).

    A blocksort stages ``levels + 2`` times: the load reads, then each
    merge level and the final stage write.  Every staging pass folds to
    the same closed form from the ``fused_stage`` plan (the blocksort
    runs whole warps only): staging round ``m`` touches ``i*E + m``, a
    cyclic bank rotation of round 0, so all ``E`` rounds share round 0's
    cycle/excess profile, every address is distinct (zero broadcasts),
    and the fold is exact — bit-identical to ``E`` per-pass
    :meth:`~BatchCounters.round` calls.  Returns the counter rows
    (:data:`_SHARED_FIELDS` order) as one vector.
    """
    plan = get_plan("fused_stage", u, E, w)
    n_warps = int(np.asarray(plan["n_warps"])[0])
    cycles = int(np.asarray(plan["cycles"])[0])
    excess = int(np.asarray(plan["excess"])[0])
    passes = levels + 2
    FUSION.add(stage_passes=passes, stage_rounds_folded=passes * E)
    return np.array(
        [
            E * n_warps,  # the load's read rounds
            (passes - 1) * E * n_warps,  # write rounds
            passes * E * cycles,
            passes * E * (cycles - n_warps),  # replays
            passes * E * excess,
            0,  # no broadcasts: every address is distinct
            passes * E * u,  # requests
        ],
        dtype=np.int64,
    )


class LevelStack:
    """The levels of one lane sort, profiled as one stack.

    Every level is ``rows`` tile rows of ``u`` threads that each bisect
    for their merge-path cut and then merge ``E`` words: the tiles of a
    blocksort level (:meth:`blocksort`), or the ``u*E``-word blocks of a
    merge level (:meth:`push_merge`; a level with fewer blocks than
    rows — an odd run waiting — is padded with rows of ``|A| = |B| =
    0``, dead in the search and in the pointer rounds).  A queued level
    keeps its step-major merge tags and its per-row geometry: the A
    base, ``|A|``, ``|B|``, each thread's diagonal and the
    last-thread-of-pair mask (the thread geometry is a row of one cached
    table, so a level stores only its row index and its sizes).

    A pass (:meth:`flush`) profiles every queued level at once: every
    thread's cut from one prefix sum over the tags, one bisection replay
    accounted in one keyed :meth:`BatchCounters.round_many` call, and
    for ``thrust`` one pointer-merge replay accounted in one distinct
    call (CF-Merge's gather and scatter are analytic, charged as levels
    queue).  A pass holds whole levels up to :data:`STACK_LANES` thread
    lanes (a level wider than that runs alone), so small sorts fold
    every level into one pass and large ones keep one pass per level.
    Each pass folds its per-round sums into per-level totals
    (:attr:`search`, :attr:`merge`, read in one pass by :meth:`totals`)
    and, unless built with ``per_row=False`` (a caller that reads only
    those totals, as the pipeline does), per-row totals (:attr:`per_row`).
    """

    def __init__(
        self,
        rows: int,
        u: int,
        E: int,
        w: int,
        variant: str,
        levels: int,
        *,
        read_policy: str = "bounded",
        per_row: bool = True,
    ) -> None:
        if variant not in ("thrust", "cf"):
            raise ParameterError(f"unknown variant {variant!r}")
        if read_policy not in ("bounded", "always"):
            raise ParameterError(f"unknown read_policy {read_policy!r}")
        self.rows, self.u, self.E, self.w = rows, u, E, w
        self.variant, self.read_policy = variant, read_policy
        #: Every level's counters, per row (a tile of a blocksort level).
        self.per_row = BatchCounters(rows, u, w, per_tile=per_row)
        if u % w or u & (u - 1):
            raise ParameterError(f"thread count {u} must be a power-of-two multiple of w")
        #: The blocksort's staging counters, summed over the rows.
        self.stage = np.zeros(len(_SHARED_FIELDS), dtype=np.int64)
        #: Per-level search and merge counter rows, in queue order.
        self.search = np.zeros((len(_SHARED_FIELDS), levels), dtype=np.int64)
        self.merge = np.zeros((len(_SHARED_FIELDS), levels), dtype=np.int64)
        slots = max(1, min(levels, STACK_LANES // (rows * u)))
        self._take_a = np.empty((E, slots, rows, u), dtype=bool)
        #: ``|A|`` and ``|B|`` of every queued level's rows.
        self._sizes = np.empty((slots, 2, rows, 1), dtype=np.int32)
        #: Every queued level's row of the thread-geometry table: row
        #: ``l < log2(u)`` is blocksort level ``l``, the last a merge block
        #: (one thread when ``u = 1``).
        self._kind = np.empty(slots, dtype=np.intp)
        if u > 1:
            plan = get_plan("fused_levels", u, E, w)
            self._tag, self._table = np.asarray(plan["tag"]), np.asarray(plan["table"])
        else:
            self._table = np.array([0, 0, 1], dtype=np.int32).reshape(1, 3, 1, 1)
        self._queued = 0
        self._done = 0

    def make_room(self) -> None:
        """Profile the queued levels if the pass has no slot left."""
        if self._queued == len(self._kind):
            self.flush()

    def _slot(self, kind: int) -> int:
        self.make_room()
        j = self._queued
        self._kind[j] = kind
        self._queued += 1
        return j

    def blocksort(self, tiles: IntArray) -> IntArray:
        """Queue every blocksort level of the ``(rows, u*E)`` tiles.

        Each level is one packed-key sort: it advances the data, and its
        low bits (stable, ties to A) are every merge decision, from which
        the pass takes every thread's cut.  The packed keys persist
        across levels: each level adds its own B tags to the
        (tag-cleared) keys, sorts pair regions in place, and clears the
        tag bit again.  Returns the sorted tiles, the last level's keys
        shifted back.  Staging is one closed-form update.
        """
        tiles, pack_dtype, values = _blocksort_input(
            tiles, self.E, self.w, self.variant, self.read_policy
        )
        T, L = tiles.shape
        E, u = self.E, self.u
        n_levels = u.bit_length() - 1
        stage = _stage_counts(u, E, self.w, n_levels)
        self.per_row._counts += stage[:, None]
        self.stage += T * stage
        if self.variant == "cf":
            gather = _cf_rounds(E, u, self.w, scatter=False)
            first = self._done + self._queued
            self.merge[:, first : first + n_levels] += T * gather[:, None]
            self.per_row._counts += n_levels * gather[:, None]
        # Load E contiguous words per thread, sort in registers.
        # ``pack_dtype`` narrows to int32 whenever the value range allows,
        # roughly tripling sort throughput.
        packed = np.sort(
            tiles.astype(pack_dtype, copy=False).reshape(T, u, E), axis=2
        ).reshape(T, L)
        packed *= 2
        for level in range(n_levels):
            j = self._slot(level)
            region = 2 * (E << level)
            packed += self._tag[level]
            packed.reshape(T, L // region, region).sort(axis=2)
            np.equal(packed.reshape(T, u, E).transpose(2, 0, 1) & 1, 0, out=self._take_a[:, j])
            np.bitwise_and(packed, -2, out=packed)
            self._sizes[j] = E << level  # |A| = |B| = half a pair
        packed >>= 1
        return packed.astype(np.int64, copy=False) if values is None else values[packed]

    def push_merge(self, from_a: BoolArray) -> IntArray:
        """Queue one merge level; return each block's A-count.

        ``from_a`` holds one ``u*E``-word row of merge tags per block
        (:func:`merge_tags`), at most :attr:`rows` of them; the rest of
        the level is padding.  Call :meth:`make_room` before the level's
        sort to profile a full pass while the sort's data is not yet
        alive.
        """
        if self.read_policy != "bounded":
            raise ParameterError("merge levels run bounded reads")
        blocks = len(from_a)
        u, E = self.u, self.E
        j = self._slot(len(self._table) - 1)
        take = self._take_a[:, j]
        take[:, :blocks] = from_a.reshape(blocks, u, E).transpose(2, 0, 1)
        n_a = np.count_nonzero(from_a, axis=1)
        sizes = self._sizes[j, :, :, 0]
        sizes[0, :blocks] = n_a
        np.subtract(u * E, n_a, out=sizes[1, :blocks], casting="unsafe")
        if blocks < self.rows:
            take[:, blocks:] = False
            sizes[:, blocks:] = 0
        if self.variant == "cf":
            both = _cf_rounds(E, u, self.w, scatter=True)
            self.merge[:, self._done + j] += blocks * both
            self.per_row._counts[:, :blocks] += both[:, None]
        return n_a

    def flush(self) -> None:
        """Profile every queued level in one pass (see the class docstring)."""
        G = self._queued
        if not G:
            return
        levels = slice(self._done, self._done + G)
        geometry = self._table[self._kind[:G]]
        a_base, diag, last = geometry[:, 0], geometry[:, 1], geometry[:, 2]
        n_a, n_b = self._sizes[:G, 0], self._sizes[:G, 1]
        take_a = self._take_a[:, :G]
        # Cuts count the A outputs before each thread's diagonal, from its
        # pair's first thread (a merge block's is thread 0, cut 0).
        cuts = _thread_cuts(take_a)
        cuts -= np.take_along_axis(cuts, a_base // self.E, axis=2)
        cf = self.variant == "cf"
        search = _search_pass(
            self.per_row, cuts, a_base, diag, n_a, n_b, self.u * self.E, reverse=cf
        )
        _charge(self.search[:, levels], search, "read")
        if not cf:
            merge = _merge_pass(
                self.per_row, take_a, cuts, a_base, diag, n_a, n_b, last,
                self.E, self.read_policy,
            )
            _charge(self.merge[:, levels], merge, "read")
        self._done += G
        self._queued = 0

    def totals(self, first: int) -> list[Counters]:
        """Every phase's counters in one read: the staging, the search and
        merge of the levels before ``first`` summed, then each later
        level's search and merge in turn."""
        late = self.search.shape[1] - first
        cols = np.empty((len(_SHARED_FIELDS), 3 + 2 * late), dtype=np.int64)
        cols[:, 0] = self.stage
        np.add.reduce(self.search[:, :first], axis=1, out=cols[:, 1])
        np.add.reduce(self.merge[:, :first], axis=1, out=cols[:, 2])
        cols[:, 3::2] = self.search[:, first:]
        cols[:, 4::2] = self.merge[:, first:]
        # The fields lead Counters' own, in order.
        return [Counters(*col) for col in cols.T.tolist()]


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

    The tiles' levels run on one :class:`LevelStack`: one packed-key
    sort per level advances the data **and** yields every thread's
    merge-path cut and merge decisions; the bisections are then replayed
    without data reads (branch outcome ``== cut > mid`` along the real
    probe path) and folded — with the closed-form pointer-merge rounds —
    into stacked accounting passes; staging rounds fold analytically.
    Tiles holding values past the ``2*v + tag`` packing range (|v| >=
    2^62) are first replaced by their ranks, which keep every comparison
    (order and ties) and hence every counter; :func:`fusion_stats` counts
    such passes as ``fallback_blocksorts``."""
    tiles = np.asarray(tiles, dtype=np.int64)
    if tiles.ndim != 2:
        raise ParameterError("batched blocksort expects a (tiles, u*E) array")
    u = tiles.shape[1] // E
    stack = LevelStack(
        tiles.shape[0], u, E, w, variant, u.bit_length() - 1, read_policy=read_policy
    )
    stack.blocksort(tiles)
    stack.flush()
    return stack.per_row.to_counters()


def _blocksort_input(
    tiles: IntArray, E: int, w: int, variant: str, read_policy: str
) -> tuple[IntArray, type, IntArray | None]:
    """Validate a blocksort batch; return ``(tiles, pack dtype, values)``.

    Rows holding values past the packing range come back as dense ranks,
    with ``values`` the sorted distinct values they index (``None``
    otherwise).
    """
    tiles = np.asarray(tiles, dtype=np.int64)
    if tiles.ndim != 2:
        raise ParameterError("batched blocksort expects a (tiles, u*E) array")
    T, L = tiles.shape
    if L % E:
        raise ParameterError(f"tile length {L} not a multiple of E={E}")
    if variant == "cf" and not coprime(w, E):
        raise ParameterError("cf blocksort profile requires coprime w, E")

    pack_dtype = _pack_dtype(tiles)
    FUSION.add(**{("fused_" if pack_dtype is not None else "fallback_") + "blocksorts": 1})
    if pack_dtype is not None:
        return tiles, pack_dtype, None
    # Dense ranks keep every comparison (order and ties), hence every
    # counter, and always fit the packing.
    values, ranks = np.unique(tiles, return_inverse=True)
    pack_dtype = np.int32 if tiles.size <= (1 << 30) else np.int64
    return ranks.reshape(T, L), pack_dtype, values


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
    rho_fwd: IntArray | None,
    schedule: str = "staged",
) -> tuple[AnyIntArray, BoolArray]:
    """The k-way gather address matrix for one block, ``(u, slots)``.

    ``schedule="staged"`` runs ``k*E`` sub-rounds (the ``kway_rounds``
    plan): slot ``(r, j)`` reads each thread's element of run ``r`` at
    layout residue ``j`` mod ``E``, if its fragment holds one.  Every
    slot's active addresses are a subset of a stride-``E`` arithmetic
    progression, so the schedule is conflict free whenever
    ``GCD(E, w) == 1`` — for *any* ``k``.  The staged schedule also
    takes leading block axes (``cuts`` ``(..., u + 1, k)``, ``bases``
    ``(..., k)``), and ``rho_fwd=None`` for the identity layout.

    ``schedule="fused"`` generalizes the paper's dual subsequence gather:
    odd-indexed runs are reversed in the layout (``pi``), and each thread
    reads its ``E`` elements in residue-sorted order over ``E`` rounds.
    For ``k == 2`` the residues cover ``0..E-1`` exactly (CF-Merge's
    Lemma) and the schedule *is* Algorithm 1; for ``k > 2`` residues can
    repeat within a thread, so conflicts reappear and are measured.
    """
    u = int(cuts.shape[-2]) - 1
    k = int(cuts.shape[-1])
    if schedule == "staged":
        plan = get_plan("kway_rounds", k * E, E, w, k)
        run = np.asarray(plan["run"])
        resid = np.asarray(plan["resid"])
        start = bases[..., None, :] + cuts[..., :-1, :]  # (..., u, k)
        end = bases[..., None, :] + cuts[..., 1:, :]
        s_start = start[..., run]  # (..., u, k*E)
        p = s_start + ((resid - s_start) % E)
        active = p < end[..., run]
        if rho_fwd is None:
            return p, active
        addr = np.asarray(rho_fwd)[np.where(active, p, 0)]
        return addr.astype(np.int64), active
    if schedule == "fused":
        if rho_fwd is None:
            raise ParameterError("the fused k-way schedule needs the rho table")
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


def kway_merge_tags(rows: IntArray, runs: AnyIntArray, k: int) -> AnyIntArray:
    """The stable k-way merge of each row's sorted runs, as packed keys.

    ``runs`` (broadcast over ``rows``) is each word's run, below ``k``.  A
    word packs as ``v << bits | run``, ``bits = (k - 1).bit_length()``, in
    int32 wherever the values allow: sorted keys order by value, then run.
    """
    bits = (k - 1).bit_length()
    dtype = _pack_dtype(rows, bits)
    if dtype is None:
        raise ParameterError(f"kway_merge_tags values must satisfy |v| < 2^{63 - bits}")
    packed = rows.astype(dtype) << bits
    packed |= runs
    packed.sort(axis=1)
    return packed


def kway_level_profile(
    packed: AnyIntArray, k: int, E: int, w: int, fwd: AnyIntArray | None = None, *,
    search: BatchCounters | None = None, merge: BatchCounters | None = None,
) -> IntArray:
    """One k-way merge level of CF blocks (staged schedule), one per row.

    Row ``b`` holds block ``b``'s :func:`kway_merge_tags` keys; the words
    tagged ``r`` are run ``r``'s fragment, staged in run order (through
    ``fwd`` where ``rho`` is not the identity).  Adds the blocks' counters
    of :func:`~repro.mergesort.kway.kway_merge_block`, less the compute
    ops (:func:`kway_compute_ops`), to ``search`` and ``merge``, running
    only the phases given; returns their ``(blocks, k)`` fragment lengths.
    A pass of at most :data:`STACK_LANES` lanes makes one
    :meth:`BatchCounters.round_many` call per phase.
    """
    B, total = packed.shape
    u = total // E
    lens = np.empty((B, k), dtype=np.int64)
    step = max(1, STACK_LANES // u)
    for lo in range(0, B, step):
        rows = slice(lo, lo + step)
        counts = (None if acc is None else acc._counts[:, rows] for acc in (search, merge))
        lens[rows] = _kway_pass(packed[rows], k, E, w, fwd, *counts).T
    return lens


def kway_compute_ops(E: int, u: int) -> tuple[int, int]:
    """Compute ops of a k-way merge block: ``(per search read, per block)``.
    A search read is one ``Compute(2)``; a block adds one per gathered and
    scattered word to every thread's ``E``-wide odd-even network."""
    network = int(np.asarray(get_plan("oddeven", E, 0, 1)["lo"]).shape[0])
    return 2, (2 * E + network) * u


def _kway_pass(
    packed: AnyIntArray, k: int, E: int, w: int, fwd: AnyIntArray | None,
    search: IntArray | None, merge: IntArray | None,
) -> AnyIntArray:
    """Add one chunk's search and gather counters to its ``(7, blocks)``
    rows, where given; return its ``(k, blocks)`` fragment lengths."""
    T, total = packed.shape
    u = total // E
    bits = (k - 1).bit_length()
    # Positions and counts, and sums of two, fit int16 below 2^14 words.
    dt = np.int16 if total < (1 << 14) else np.int32
    tags = packed & ((1 << bits) - 1)
    # before[r, t, p]: the words of run r among row t's first p.
    before = np.zeros((k, T, total + 1), dtype=dt)
    for r in range(k):
        np.cumsum(tags == r, axis=1, dtype=dt, out=before[r, :, 1:])
    lens = before[:, :, -1]
    bases = (np.cumsum(lens, axis=0, dtype=dt) - lens)[:, :, None]
    if merge is not None:
        cuts = before[:, :, ::E]  # each thread's cut: the words before i*E
        addr, live = kway_gather_addresses(
            np.moveaxis(cuts, 0, -1), bases[:, :, 0].T, lens, E, w, fwd
        )
        acc = BatchCounters(T, u, w)
        # A slot's live addresses lie in disjoint per-thread windows.
        acc.round_many(
            addr.transpose(2, 0, 1), live.transpose(2, 0, 1), "read", assume_distinct=True
        )
        # The scatter is closed form: E conflict-free write rounds per warp.
        rounds = E * (u // w)
        merge += acc._counts + np.array([0, rounds, rounds, 0, 0, 0, E * u])[:, None]
    if search is not None:
        # Thread i's pivot is word max(i*E - 1, 0); its lower bound in run r
        # counts the run's words before the pivot value's first occurrence.
        values = packed >> bits
        fresh = np.ones((T, total), dtype=bool)
        np.not_equal(values[:, 1:], values[:, :-1], out=fresh[:, 1:])
        first = np.where(fresh, np.arange(total, dtype=dt), dt(0))
        np.maximum.accumulate(first, axis=1, out=first)
        pivot = np.maximum(np.arange(u) * E - 1, 0)
        lower = before[:, np.arange(T)[:, None], first[:, pivot]]

        # A thread bisects its runs back to back, one read per Compute(2): its
        # j-th read is lockstep round j.  Live steps are a prefix, so step s
        # of run r is read (reads of runs < r) + s; dead steps go to a spare
        # round past the last.
        steps = int(lens.max()).bit_length()
        mids, live = _bisect(np.zeros_like(lower), lens[:, :, None], lower, steps)
        reads = np.add.reduce(live, axis=0, dtype=dt)
        done = np.cumsum(reads, axis=0, dtype=dt)
        R = int(done[-1].max())
        slot = (done - reads) + np.arange(steps, dtype=dt)[:, None, None, None]
        slot[~live] = R
        lane = np.multiply(slot, T * u, dtype=np.intp)
        lane += np.arange(T * u).reshape(T, u)
        mids += bases
        rounds = np.zeros((R + 1, T, u), dtype=mids.dtype)
        rounds.reshape(-1)[lane] = mids
        # Only live probes go through fwd: a dead one of the last run may
        # point one past the table.
        addr = rounds[:R] if fwd is None else fwd[rounds[:R]]
        acc = BatchCounters(T, u, w)
        acc.round_many(addr, np.arange(R, dtype=dt)[:, None, None] < done[-1], "read")
        search += acc._counts
    return lens


def _kway_group_profile(
    groups: Sequence[Sequence[npt.ArrayLike]], E: int, w: int, phase: str
) -> list[Counters]:
    """One k-way level whose blocks are ``groups``: each group's ``phase``
    counters, compute ops included."""
    backing, lens, runs = _stack_runs(groups, E)
    k, total = lens.shape[1], backing.shape[1]
    u = total // E
    if u % w:
        raise ParameterError(f"block width u={u} must be a multiple of w={w}")
    fwd = None if coprime(w, E) else np.asarray(get_plan("rho", total, E, w)["fwd"])
    acc = BatchCounters(len(groups), u, w)
    kway_level_profile(kway_merge_tags(backing, runs, k), k, E, w, fwd, **{phase: acc})
    out = acc.to_counters()
    per_read, per_block = kway_compute_ops(E, u)
    for c in out:
        c.compute_ops = per_read * c.shared_requests if phase == "search" else per_block
    return out


def batched_kway_merge_profile(
    groups: Sequence[Sequence[npt.ArrayLike]], E: int, w: int
) -> list[Counters]:
    """CF k-way merge counters for same-shape groups, one per group.

    Those of :func:`repro.mergesort.kway.kway_merge_block` (``variant="cf"``,
    ``simulate_search=False``), bit for bit: one :func:`kway_level_profile` block each."""
    return _kway_group_profile(groups, E, w, "merge")


def batched_kway_search_profile(
    groups: Sequence[Sequence[npt.ArrayLike]], E: int, w: int
) -> list[Counters]:
    """CF k-way search counters for same-shape groups, one per group.

    Those of :func:`repro.mergesort.kway.kway_merge_block` (``variant="cf"``,
    staged schedule), bit for bit: one :func:`kway_level_profile` block each."""
    return _kway_group_profile(groups, E, w, "search")
