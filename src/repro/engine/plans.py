"""The content-keyed plan cache: precomputed index arrays, reused forever.

CF-Merge is input-*independent* by construction — its gather/scatter
schedules, staging permutations (``pi``/``rho``), odd-even networks and
merge-path diagonals are pure functions of the geometry ``(n, E, w, d)``.
Before this module the repo recomputed them as nested Python lists on
every call; a *plan* freezes them once as write-protected NumPy index
arrays, and :class:`PlanCache` keys them on ``(n, E, w, d, kind, k)``
with LRU eviction, hit/miss/eviction counters, and thread safety (the
service worker shards share the process-global :data:`PLAN_CACHE`).

The ``k`` component is the merge *width*: pairwise plans leave it at 0,
while the k-way gather schedule (``kway_rounds``) and the sample-sort
splitter ranks (``sample_splitters``) key on the actual fan-in, so a
``k=2`` and a ``k=4`` schedule of the same geometry never collide.  The
columns layer reuses ``k`` as a column/field count for its
composite-key packing (``key_pack``) and fused payload permutation
(``payload_gather``) plans, and the fused layout permutation
(``fused_take``) reuses it as ``|A|``.  The ``level`` component is the
blocksort merge level for the per-level fused geometry
(``fused_level``); every other kind leaves it at 0, so pre-existing
keys are unchanged.

The *fused* kinds collapse multi-pass index arithmetic into single
precomputed permutations (the Afshani–Sitchinava framing: conflict-free
execution *is* applying a precomputed permutation):

- ``fused_take`` composes ``pi`` (B reversal), ``rho`` (partition
  shift) and the gather into one ``take``/``put`` permutation pair —
  one NumPy fancy-index pass instead of three.
- ``fused_stage`` reduces the ``E`` thread-contiguous staging rounds to
  one closed-form counter fold (round ``m`` is a cyclic bank rotation
  of round 0, so every round's conflict profile is round 0's).
- ``fused_level`` precomputes one blocksort merge level's entire
  per-thread geometry (pair bases, diagonals, bisection bounds, B-half
  tags) so the batched engine replays a level without per-round index
  recomputation; ``fused_levels`` stacks every level's B-half tags and
  thread geometry of one thread count (plus a merge block's), so the
  lane's level stack reads any mix of levels by row index.

The ``bisect`` kind tabulates every bisection over a span below ``n``:
each probe's offset from the interval's start and the live step count,
keyed by span and cut offset, so the lane reads a merge-path search's
probes instead of stepping it.

Plans are immutable by contract: every array is stored with its NumPy
write flag cleared, so an accidental in-place mutation raises instead of
silently corrupting every future user of the cached plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import numpy.typing as npt

from repro.errors import ParameterError
from repro.numtheory import gcd

__all__ = [
    "PlanKey",
    "Plan",
    "PlanCache",
    "PLAN_CACHE",
    "get_plan",
    "plan_cache_stats",
    "PLAN_KINDS",
]

#: Cached plan arrays are index/mask vectors: int64, int32 (the stacked
#: blocksort geometry the lane computes in), boolean masks, or the
#: ``bisect`` table's narrow offsets and step counts.
PlanArray = (
    npt.NDArray[np.int64] | npt.NDArray[np.int32] | npt.NDArray[np.bool_]
    | npt.NDArray[np.uint8]
)


@dataclass(frozen=True)
class PlanKey:
    """The content key of one plan: geometry + plan kind.

    ``n`` is the layout/problem size the plan spans (thread count for
    ``tids``/``stage``/``oddeven``, element count for ``rho``/``scatter``,
    the span bound for ``bisect``),
    ``d = GCD(w, E)`` rides along explicitly so keys self-describe the
    residue structure the arrays encode.  ``k`` is the merge width for
    k-way plans (``kway_rounds``/``sample_splitters``) and ``|A|`` for
    the fused layout permutation (``fused_take``); ``level`` is the
    blocksort merge level for ``fused_level``.  Pairwise plans keep the
    defaults 0, so every pre-existing key is unchanged.
    """

    n: int
    E: int
    w: int
    d: int
    kind: str
    k: int = 0
    level: int = 0


@dataclass(frozen=True)
class Plan:
    """One cached plan: a named bundle of write-protected index arrays."""

    key: PlanKey
    arrays: Mapping[str, PlanArray]

    def __getitem__(self, name: str) -> PlanArray:
        try:
            return self.arrays[name]
        except KeyError:
            known = ", ".join(sorted(self.arrays))
            raise ParameterError(
                f"plan {self.key.kind!r} has no array {name!r} (has: {known})"
            ) from None

    @property
    def nbytes(self) -> int:
        """Total bytes the plan's arrays occupy."""
        return sum(int(arr.nbytes) for arr in self.arrays.values())


def _frozen(arr: PlanArray) -> PlanArray:
    """Return ``arr`` contiguous and write-protected (plan invariant)."""
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _build_tids(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """Thread-id vector + all-active mask for ``n`` threads."""
    tids = np.arange(n, dtype=np.int64)
    return {"tids": _frozen(tids), "ones": _frozen(np.ones(n, dtype=bool))}


def _build_stage(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """Thread-contiguous staging bases: round ``m`` touches ``base + m``."""
    tids = np.arange(n, dtype=np.int64)
    return {
        "tids": _frozen(tids),
        "ones": _frozen(np.ones(n, dtype=bool)),
        "base": _frozen(tids * E),
    }


def _build_rho(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """The ``rho`` position->address permutation over an ``n``-word layout.

    ``fwd[p]`` is the shared-memory address of position ``p``;
    ``inv[fwd[p]] == p``.  ``n`` must be a whole number of ``wE/d``
    partitions (the same soundness condition :func:`repro.core.layout.rho`
    enforces).
    """
    d = gcd(w, E)
    positions = np.arange(n, dtype=np.int64)
    if d == 1:
        fwd = positions
    else:
        size = w * E // d
        if n % size:
            raise ParameterError(
                f"layout size {n} is not a multiple of the partition size {size}"
            )
        ell = positions // size
        shift = ell % d
        fwd = ell * size + (positions % size + shift) % size
    inv = np.empty(n, dtype=np.int64)
    inv[fwd] = positions
    return {"fwd": _frozen(fwd), "inv": _frozen(inv)}


def _build_scatter(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """CF scatter addresses over an ``n = u*E`` tile.

    ``addr[j, i] == rho(i*E + j)`` — round ``j``, thread ``i`` — matching
    :func:`repro.core.schedule.block_scatter_schedule` exactly.
    """
    if n % E:
        raise ParameterError(f"scatter plan size {n} not a multiple of E={E}")
    u = n // E
    fwd = _build_rho(n, E, w, k, level)["fwd"]
    addr = np.asarray(fwd).reshape(u, E).T
    return {"addr": _frozen(np.ascontiguousarray(addr)), "fwd": fwd}


def _build_oddeven(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """The odd-even transposition network for rows of length ``n``.

    ``lo``/``hi`` concatenate every phase's compare-exchange pairs;
    ``phase_ptr`` (length ``n + 1``) delimits the phases, whose pairs are
    pairwise disjoint — the property the vectorized row sort relies on.
    """
    lo_list: list[int] = []
    hi_list: list[int] = []
    ptr = [0]
    for phase in range(n):
        start = phase % 2
        for i in range(start, n - 1, 2):
            lo_list.append(i)
            hi_list.append(i + 1)
        ptr.append(len(lo_list))
    return {
        "lo": _frozen(np.asarray(lo_list, dtype=np.int64)),
        "hi": _frozen(np.asarray(hi_list, dtype=np.int64)),
        "phase_ptr": _frozen(np.asarray(ptr, dtype=np.int64)),
    }


def _build_kway_rounds(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """The staged k-way gather schedule: ``k*E`` slots of ``(run, residue)``.

    Slot ``s`` gathers, for every thread at once, the element of run
    ``run[s]`` whose layout position is congruent to ``resid[s]`` mod
    ``E`` (if the thread's fragment of that run holds one).  Iterating
    the slots run-major keeps each run's ``E`` residue sub-rounds
    consecutive, which is what makes the staged schedule's address sets
    arithmetic progressions of stride ``E`` — conflict free whenever
    ``GCD(E, w) == 1``.  Only ``E`` and ``k`` shape the arrays; ``n`` and
    ``w`` ride along in the key for self-description.
    """
    runs = np.repeat(np.arange(max(k, 0), dtype=np.int64), max(E, 0))
    resid = np.tile(np.arange(max(E, 0), dtype=np.int64), max(k, 0))
    return {"run": _frozen(runs), "resid": _frozen(resid)}


def _build_key_pack(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """Composite-key packing shifts for ``k`` fields of ``E`` bits each.

    The columns layer packs ``k`` per-column codes of a uniform bit
    width ``b`` (carried as the key's ``E`` component) into one radix
    word: field ``i`` (major-to-minor significance) lands at
    ``code[i] << shift[i]`` with ``shift[i] = (k - 1 - i) * b``.  The
    plan size is the packed word width ``n == k * b``, so distinct
    packings never collide in the cache.  ``mask`` is the per-field
    extraction mask ``(1 << b) - 1``, used by the unpack path.
    """
    if k < 1 or E < 1:
        raise ParameterError(
            f"key_pack needs k >= 1 fields and E >= 1 bits per field, got k={k}, E={E}"
        )
    if n != k * E:
        raise ParameterError(f"key_pack plan size {n} != fields*bits = {k}*{E}")
    shift = (np.arange(k - 1, -1, -1, dtype=np.int64)) * E
    mask = np.full(k, (np.int64(1) << E) - 1, dtype=np.int64)
    return {"shift": _frozen(shift), "mask": _frozen(mask)}


def _build_payload_gather(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """Fused payload-gather bases for ``k`` columns of ``n`` rows each.

    Applying one sort permutation to every payload column of a table is
    a single flat gather over the row-stacked ``(k, n)`` value matrix:
    column ``c`` of output row ``r`` reads flat index
    ``col_base[c] + perm[r]``.  The plan caches the column base offsets
    (``col_base[c] = c * n``) so the gather issues as one vectorized
    take per operator instead of ``k`` Python-level loops.
    """
    if k < 1:
        raise ParameterError(f"payload_gather needs k >= 1 columns, got k={k}")
    if n < 0:
        raise ParameterError(f"payload_gather row count must be >= 0, got n={n}")
    cols = np.arange(k, dtype=np.int64)
    return {"cols": _frozen(cols), "col_base": _frozen(cols * n)}


def _build_sample_splitters(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """Deterministic sample-sort splitter ranks (Dehne & Zaboli).

    For ``k`` buckets with ``E`` (= the oversampling factor ``s``)
    samples per part, the sorted sample has ``n == k*E`` entries and the
    ``k - 1`` splitters sit at ranks ``E, 2E, ..., (k-1)E``.
    """
    if k < 1 or E < 1:
        raise ParameterError(
            f"sample_splitters needs k >= 1 parts and E >= 1 samples, got k={k}, E={E}"
        )
    if n != k * E:
        raise ParameterError(
            f"sample_splitters plan size {n} != parts*oversample = {k}*{E}"
        )
    idx = np.arange(1, k, dtype=np.int64) * E
    return {"idx": _frozen(idx)}


def _build_fused_take(
    n: int, E: int, w: int, k: int, level: int
) -> dict[str, PlanArray]:
    """The fused layout permutation: ``pi`` ∘ ``rho`` ∘ gather as one take.

    ``k`` is ``|A|``.  ``put[i]`` is the shared-memory address source
    element ``i`` of ``A ++ B`` lands at (A keeps its positions, ``pi``
    reverses B to ``n - 1 - x``, ``rho`` shifts partitions), and
    ``take`` is its inverse — ``out = src[take]`` builds the whole
    layout in one fancy-index pass, bit-identical to the three-pass
    position/shift/scatter composition in
    :func:`repro.core.layout._apply_layout` (property-tested in
    ``tests/test_properties_fused.py``).
    """
    if not 0 <= k <= n:
        raise ParameterError(f"fused_take needs 0 <= |A| <= {n}, got |A|={k}")
    positions = np.empty(n, dtype=np.int64)
    positions[:k] = np.arange(k, dtype=np.int64)
    positions[k:] = n - 1 - np.arange(n - k, dtype=np.int64)
    fwd = np.asarray(_build_rho(n, E, w, k, level)["fwd"])
    put = fwd[positions]
    take = np.empty(n, dtype=np.int64)
    take[put] = np.arange(n, dtype=np.int64)
    return {"take": _frozen(take), "put": _frozen(put)}


def _build_fused_stage(
    n: int, E: int, w: int, k: int, level: int
) -> dict[str, PlanArray]:
    """Closed-form staging-round counters for ``n`` threads.

    A thread-contiguous staging round ``m`` has thread ``i`` touch word
    ``i*E + m``: every warp's bank multiset is
    ``{(t*E + m) mod w : t < w}`` — round ``m`` is a cyclic rotation of
    round 0's multiset, so multiplicities (hence cycles and excess) are
    identical every round, all ``n`` addresses are distinct (no
    broadcasts), and ``E`` rounds fold to one closed-form counter
    update.  Requires full warps (``n % w == 0``), which every staging
    call site guarantees.
    """
    if n < 1 or n % w:
        raise ParameterError(
            f"fused_stage needs a positive thread count divisible by w={w}, got {n}"
        )
    counts = np.bincount((np.arange(w, dtype=np.int64) * E) % w, minlength=w)
    n_warps = n // w
    cycles = n_warps * int(counts.max())
    excess = n_warps * int(np.maximum(counts - 1, 0).sum())
    return {
        "n_warps": _frozen(np.asarray([n_warps], dtype=np.int64)),
        "cycles": _frozen(np.asarray([cycles], dtype=np.int64)),
        "excess": _frozen(np.asarray([excess], dtype=np.int64)),
    }


def _build_fused_level(
    n: int, E: int, w: int, k: int, level: int
) -> dict[str, PlanArray]:
    """One blocksort merge level's complete per-thread geometry.

    ``n`` is the thread count ``u`` and ``g = 1 << level`` the run
    width in threads; each pair of ``g``-thread runs spans
    ``region = 2*g*E`` words with the B half starting at
    ``half = g*E``.  ``pbase``/``tau``/``diag``/``lo``/``hi`` replicate
    the per-level index arithmetic of the batched blocksort
    (bit-identically), ``pair_last`` marks each pair's last thread, and
    ``tag`` marks every B-half word of the ``u*E`` layout — the bit the
    fused packed-key sort carries so one sort yields merged data *and*
    per-thread merge-path cuts.
    """
    if n < 1 or level < 0:
        raise ParameterError(
            f"fused_level needs u >= 1 threads and level >= 0, got u={n}, level={level}"
        )
    g = 1 << level
    if 2 * g > n or n % (2 * g):
        raise ParameterError(
            f"fused_level level {level} (run width {g}) does not tile u={n} threads"
        )
    region = 2 * g * E
    half = g * E
    tids = np.arange(n, dtype=np.int64)
    pbase = (tids * E) // region * region
    tau = tids - pbase // E
    diag = tau * E
    return {
        "pbase": _frozen(pbase),
        "tau": _frozen(tau),
        "diag": _frozen(diag),
        "lo": _frozen(np.maximum(0, diag - half)),
        "hi": _frozen(np.minimum(diag, half)),
        "pair_last": _frozen(tau == (region // E - 1)),
        "tag": _frozen((np.arange(n * E, dtype=np.int64) % region) // half),
    }


def _build_fused_levels(
    n: int, E: int, w: int, k: int, level: int
) -> dict[str, PlanArray]:
    """Every blocksort merge level of ``n = u`` threads, for the lane's level stack.

    ``tag`` is the ``(levels, u*E)`` B-half mask of each level's packed
    sort (:func:`_build_fused_level`'s ``tag``).  ``table`` is each
    level's thread geometry, ``(levels + 1, 3, 1, u)`` int32: per level
    its ``pbase``, ``diag`` and ``pair_last`` rows, then one more row for
    a merge block (one pair: base 0, diagonal ``tid*E``, the last thread
    ends it), so a stacked pass reads any mix of levels by row index.
    """
    if n < 2 or n & (n - 1):
        raise ParameterError(f"fused_levels needs a power-of-two u >= 2, got u={n}")
    levels = [_build_fused_level(n, E, w, k, lv) for lv in range(n.bit_length() - 1)]
    tid = np.arange(n, dtype=np.int64)
    block = [np.zeros_like(tid), tid * E, tid == n - 1]
    rows = [[lv["pbase"], lv["diag"], lv["pair_last"]] for lv in levels] + [block]
    return {
        "tag": _frozen(np.stack([np.asarray(lv["tag"]) == 1 for lv in levels])),
        "table": _frozen(np.array(rows, dtype=np.int32)[:, :, None, :]),
    }


def _build_bisect(n: int, E: int, w: int, k: int, level: int) -> dict[str, PlanArray]:
    """Every bisection over a span below ``n`` (a power of two), probe by probe.

    A lane bisecting ``[lo, hi]`` for its cut probes ``mid = (lo + hi) >>
    1`` and goes right exactly when ``cut > mid``, so its probes' offsets
    from ``lo`` depend only on the span ``s = hi - lo`` and on ``c = cut -
    lo``.  Entry ``s * n + c`` holds them: ``probe[j]`` is step ``j``'s
    probe less ``lo`` (a converged lane stays at its cut) and ``live`` the
    lane's steps before it converges (``lo == hi``).  An entry with ``c >
    s`` is no lane's: its probes and live steps are 0.
    """
    if n < 2 or n & (n - 1):
        raise ParameterError(f"bisect needs a power-of-two span bound >= 2, got n={n}")
    # The narrowest dtype that holds lo + hi keeps every temporary small.
    positions = np.arange(n, dtype=np.min_scalar_type(2 * (n - 1)))
    span, cut = np.repeat(positions, n), np.tile(positions, n)
    lo, hi = np.zeros_like(span), np.where(cut <= span, span, 0)
    cut = np.minimum(cut, hi)
    steps = (n - 1).bit_length()
    # One allocation: at n = 128 its 128 KiB reach malloc's mapping
    # threshold, so the table lives apart from the heap.  As two smaller
    # arrays it pinned the heap's top for the life of the process, which
    # raised a served mix's peak RSS by about 1 MB.
    table = np.zeros((steps + 1, n * n), dtype=np.min_scalar_type(n - 1))
    probe, live = table[:steps], table[steps]
    for step in range(steps):
        live += lo < hi
        mid = (lo + hi) >> 1
        probe[step] = mid
        right = cut > mid
        lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
    return {"probe": _frozen(probe), "live": _frozen(live)}


#: kind -> builder.  Builders are pure functions of the key.
_BUILDERS: dict[str, Callable[[int, int, int, int], dict[str, PlanArray]]] = {
    "tids": _build_tids,
    "stage": _build_stage,
    "rho": _build_rho,
    "scatter": _build_scatter,
    "oddeven": _build_oddeven,
    "kway_rounds": _build_kway_rounds,
    "sample_splitters": _build_sample_splitters,
    "key_pack": _build_key_pack,
    "payload_gather": _build_payload_gather,
    "fused_take": _build_fused_take,
    "fused_stage": _build_fused_stage,
    "fused_level": _build_fused_level,
    "fused_levels": _build_fused_levels,
    "bisect": _build_bisect,
}

#: The plan kinds the cache can build.
PLAN_KINDS: tuple[str, ...] = tuple(sorted(_BUILDERS))


class PlanCache:
    """Thread-safe LRU cache of :class:`Plan` objects.

    ``get`` is the only lookup path; it derives ``d = GCD(w, E)`` so call
    sites never pass an inconsistent key.  Capacity is in *plans* (the
    arrays are small index vectors); the least recently used plan is
    evicted when the cache is full.
    """

    #: The :meth:`stats` keys that only grow (Prometheus counters).
    COUNTERS = ("hits", "misses", "evictions")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ParameterError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: Keyed on ``(kind, n, E, w, k, level)``: ``d`` follows from
        #: ``w`` and ``E``, so a hit never builds a :class:`PlanKey`.
        self._plans: OrderedDict[tuple[str, int, int, int, int, int], Plan] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._bytes = 0

    def get(
        self, kind: str, n: int, E: int, w: int, k: int = 0, level: int = 0
    ) -> Plan:
        """Return the ``(n, E, w, gcd(w, E), kind, k, level)`` plan, building on miss."""
        builder = _BUILDERS.get(kind)
        if builder is None:
            raise ParameterError(
                f"unknown plan kind {kind!r} (known: {', '.join(PLAN_KINDS)})"
            )
        key = (kind, n, E, w, k, level)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
                self._plans.move_to_end(key)
                return plan
            self._misses += 1
        # Build outside the lock: builders are pure, so a racing double
        # build is wasted work, never an inconsistency.
        plan_key = PlanKey(n=n, E=E, w=w, d=gcd(w, E), kind=kind, k=k, level=level)
        plan = Plan(key=plan_key, arrays=builder(n, E, w, k, level))
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                # A racing thread built the same key first; keep its copy
                # so the byte ledger counts every resident plan once.
                plan = existing
            else:
                self._plans[key] = plan
                self._bytes += plan.nbytes
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                _, evicted = self._plans.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1
        return plan

    def stats(self) -> dict[str, float]:
        """Hit/miss/eviction counters plus occupancy, as plain numbers."""
        with self._lock:
            hits, misses = self._hits, self._misses
            total = hits + misses
            return {
                "hits": float(hits),
                "misses": float(misses),
                "evictions": float(self._evictions),
                "size": float(len(self._plans)),
                "capacity": float(self.capacity),
                "bytes": float(self._bytes),
                "hit_rate": (hits / total) if total else 0.0,
            }

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: The process-global plan cache every engine call site shares.
PLAN_CACHE = PlanCache()


def get_plan(kind: str, n: int, E: int, w: int, k: int = 0, level: int = 0) -> Plan:
    """Shorthand for :meth:`PlanCache.get` on the global :data:`PLAN_CACHE`."""
    return PLAN_CACHE.get(kind, n, E, w, k, level)


def plan_cache_stats() -> dict[str, float]:
    """Stats of the global :data:`PLAN_CACHE` (for telemetry exports)."""
    return PLAN_CACHE.stats()
