"""The Figures 5/6 throughput experiments at paper scale.

Strategy (DESIGN.md §5): all conflict behaviour is *measured* per block —
exactly once for the worst case (the §4 construction makes every block of
every level identical by design) and over a sample for random inputs —
then composed analytically over the ``n/(uE)`` blocks of each of the
``log2(n/(uE))`` merge levels, plus blocksort and global traffic.  This
reproduces an exact whole sort's shared-memory counters (equal on the
worst case, within about 1% per level on random inputs) but models 3–8%
more time than the exact sort (DESIGN.md §1), and it lets the sweep reach
``n = 2^26 * E`` in seconds.

Workloads and variants mirror Section 5:

* parameters ``E=15, u=512`` (tuned; 100% occupancy) and ``E=17, u=256``
  (Thrust's defaults);
* input sizes ``n = 2^i * E`` for ``16 <= i <= 26``;
* ``thrust`` vs ``cf`` on ``random`` and ``worstcase`` inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import mean, median

import numpy as np

from repro.config import RTX_2080_TI, DeviceSpec, SortParams
from repro.engine.lane import profile_cf_merges, profile_searches, profile_serial_merges
from repro.errors import ParameterError
from repro.mergesort.blocksort import blocksort_tile
from repro.mergesort.pipeline import _batched_blocksort
from repro.mergesort.register_merge import compare_exchange_count_odd_even
from repro.numtheory import coprime
from repro.perf.calibration import DEFAULT_CONSTANTS, CycleConstants
from repro.perf.cost_model import CostBreakdown, CostModel
from repro.perf.occupancy import occupancy
from repro.sim.counters import Counters
from repro.workloads.generators import uniform_random
from repro.worstcase.generator import worstcase_full_input, worstcase_merge_inputs

__all__ = [
    "ThroughputPoint",
    "throughput_sweep",
    "compose_points",
    "speedup_summary",
    "measure_block_costs",
]


def _scale(c: Counters, factor: float) -> Counters:
    out = Counters()
    for f in fields(Counters):
        setattr(out, f.name, int(round(getattr(c, f.name) * factor)))
    return out


@dataclass(frozen=True)
class ThroughputPoint:
    """One point of a throughput curve."""

    i: int
    n: int
    variant: str
    workload: str
    E: int
    u: int
    time_us: float
    throughput: float  # elements per microsecond
    breakdown: CostBreakdown


def _random_block_pair(rng: np.random.Generator, total: int):
    """A random-input block merge: random interleaving of distinct values."""
    vals = np.arange(total, dtype=np.int64)
    mask = rng.random(total) < 0.5
    a, b = vals[mask], vals[~mask]
    if len(a) == 0 or len(b) == 0:  # pragma: no cover - vanishing probability
        a, b = vals[: total // 2], vals[total // 2 :]
    return a, b


def measure_block_costs(
    params: SortParams,
    w: int,
    variant: str,
    workload: str,
    samples: int = 6,
    seed: int = 0,
) -> tuple[Counters, Counters]:
    """Measure one merge block's (search, merge) shared-memory counters.

    Worst-case blocks are deterministic and identical, so one measurement
    is exact; random blocks are averaged over ``samples`` draws.  Both
    workloads run through the batched engine lane
    (:mod:`repro.engine.lane`) — one fused vectorized pass per phase
    instead of per-pair Python loops, with counters bit-identical to the
    lockstep simulator (pinned in ``tests/test_engine_batch.py``).
    """
    if workload not in ("random", "worstcase"):
        raise ParameterError(f"unknown workload {workload!r}")
    if variant not in ("thrust", "cf"):
        raise ParameterError(f"unknown variant {variant!r}")
    E, u = params.E, params.u
    total = u * E
    rng = np.random.default_rng(seed)

    if workload == "worstcase":
        a, b = worstcase_merge_inputs(w, E, u=u)
        search = profile_searches([(a, b)], E, w, mapped=(variant == "cf"))[0]
        if variant == "thrust":
            merge = profile_serial_merges([(a, b)], E, w)[0]
        else:
            merge = profile_cf_merges([(a, b)], E, w)[0]
        return search, merge

    pairs = [_random_block_pair(rng, total) for _ in range(samples)]
    searches = profile_searches(pairs, E, w, mapped=(variant == "cf"))
    if variant == "thrust":
        merges = profile_serial_merges(pairs, E, w)
    else:
        merges = profile_cf_merges(pairs, E, w)
    search_acc, merge_acc = Counters(), Counters()
    for s, m in zip(searches, merges):
        search_acc.merge(s)
        merge_acc.merge(m)
    return _scale(search_acc, 1 / samples), _scale(merge_acc, 1 / samples)


def measure_blocksort_cost(
    params: SortParams,
    w: int,
    variant: str,
    workload: str,
    samples: int = 2,
    seed: int = 0,
) -> Counters:
    """Measure one tile's blocksort counters, averaged over sampled tiles.

    For the worst-case workload, tiles of the §4 full-input generator are
    used (the construction scrambles tile contents deterministically).
    The sampled tiles run in one pass of the batched engine lane, with
    counters equal to the lockstep simulator's; ``cf`` at non-coprime
    ``(w, E)`` has no exact lane profile and runs ``blocksort_tile``.
    """
    E, u = params.E, params.u
    tile = u * E
    if workload == "worstcase":
        n_tiles = 2
        data = worstcase_full_input(n_tiles, E, u, w)
        tiles = [data[t * tile : (t + 1) * tile] for t in range(min(samples, n_tiles))]
    else:
        tiles = [
            uniform_random(tile, seed=seed + k, high=2**40) for k in range(samples)
        ]
    if variant == "cf" and not coprime(w, E):
        acc = Counters()
        for t in tiles:
            _, stats = blocksort_tile(t, E, w, variant)
            acc.merge(stats.total)
    else:
        acc = _batched_blocksort(np.stack(tiles), E, w, variant)[1].total
    return _scale(acc, 1 / len(tiles))


def _staging_counters(params: SortParams, w: int, variant: str) -> Counters:
    """Per-block tile staging rounds of one merge kernel.

    Both variants: the coalesced global-to-shared load (``E`` aligned
    write rounds per warp, conflict free — for CF-Merge the ``pi``/``rho``
    permutation rides along, adding only the measured O(d) boundary
    replays for non-coprime ``E``; see :mod:`repro.core.staging`) and the
    shared-to-global read-out (``E`` aligned read rounds, conflict free
    for every ``d``).

    Baseline only: the serial merge leaves its outputs in registers, so a
    thread-contiguous output staging pass (round ``m`` writing addresses
    ``{iE + m}``) precedes the read-out — serialization depth exactly
    ``d = GCD(w, E)`` per round.  CF-Merge's scatter plays this role and
    is already counted in its merge-phase profile.
    """
    from repro.numtheory import gcd

    E, u = params.E, params.u
    warps = u // w
    d = gcd(w, E)
    c = Counters()
    # Load-in (writes) + read-out (reads), both aligned/conflict free.
    c.shared_write_rounds = E * warps
    c.shared_read_rounds = E * warps
    c.shared_cycles = 2 * E * warps
    c.shared_requests = 2 * E * u
    if variant == "thrust":
        # Output staging: E thread-contiguous write rounds, d-deep each.
        c.shared_write_rounds += E * warps
        c.shared_cycles += E * warps * d
        c.shared_replays += E * warps * (d - 1)
        c.shared_excess += E * warps * (w - w // d)
        c.shared_requests += E * u
    elif d > 1:
        # CF permuting load: measured O(d) stray replays per warp.
        c.shared_cycles += (d - 1) * warps
        c.shared_replays += (d - 1) * warps
    return c


def _merge_compute_ops(params: SortParams, variant: str) -> int:
    """Per-block compute for the merge phase (comparisons + index math)."""
    E, u = params.E, params.u
    if variant == "thrust":
        return u * (2 * E)  # compare + pointer bump per output element
    return u * (2 * E + compare_exchange_count_odd_even(E))


def compose_points(
    params: SortParams,
    search_c: Counters,
    merge_c: Counters,
    blocksort_c: Counters,
    *,
    variant: str,
    workload: str,
    device: DeviceSpec = RTX_2080_TI,
    i_range=range(16, 27),
    constants: CycleConstants = DEFAULT_CONSTANTS,
) -> list[ThroughputPoint]:
    """Compose measured per-block counters into a throughput curve.

    This is the analytic half of :func:`throughput_sweep` (DESIGN.md §5):
    the per-block (search, merge, blocksort) counters — measured once —
    are scaled over the ``n/(uE)`` blocks of each of the ``log2`` merge
    levels, topped up with staging and global traffic, and priced by the
    cost model.  Pure arithmetic: deterministic for fixed inputs, which
    is what lets :mod:`repro.runner` cache the measurements and rebuild
    curves for any ``i_range``.
    """
    w = device.warp_width
    E, u = params.E, params.u
    tile = u * E
    occ = occupancy(device, params).occupancy
    model = CostModel(device, constants)

    staging_c = _staging_counters(params, w, variant)
    merge_block_c = search_c + merge_c + staging_c
    merge_block_c.compute_ops += _merge_compute_ops(params, variant)

    points: list[ThroughputPoint] = []
    for i in i_range:
        if (2**i) % u:
            raise ParameterError(f"2^{i} must be a multiple of u={u}")
        n = (2**i) * E
        n_tiles = (2**i) // u
        levels = max(int(np.log2(n_tiles)), 0)

        total = _scale(blocksort_c, n_tiles)
        total.merge(_scale(merge_block_c, n_tiles * levels))

        # Global traffic: blocksort load+store, then per level load+store,
        # plus the per-block global partition searches.
        per_pass = 2 * (n // 32 + n_tiles)  # read + write, one slop segment/tile
        total.global_read_transactions += (per_pass // 2) * (levels + 1)
        total.global_write_transactions += (per_pass // 2) * (levels + 1)
        search_steps = int(np.ceil(np.log2(tile * 2 ** max(levels - 1, 0) + 1)))
        total.global_read_transactions += 2 * search_steps * n_tiles * levels

        breakdown = model.estimate(total, occ, kernel_launches=1 + levels)
        points.append(
            ThroughputPoint(
                i=i,
                n=n,
                variant=variant,
                workload=workload,
                E=E,
                u=u,
                time_us=breakdown.total_us,
                throughput=n / breakdown.total_us,
                breakdown=breakdown,
            )
        )
    return points


def throughput_sweep(
    params: SortParams,
    variant: str,
    workload: str,
    device: DeviceSpec = RTX_2080_TI,
    i_range=range(16, 27),
    samples: int = 6,
    blocksort_samples: int = 2,
    seed: int = 0,
    constants: CycleConstants = DEFAULT_CONSTANTS,
) -> list[ThroughputPoint]:
    """Run one throughput curve (``n = 2^i * E`` for ``i`` in ``i_range``).

    Returns one :class:`ThroughputPoint` per ``i``.  ``2^i`` must be a
    multiple of ``u`` so tiles divide evenly (true for the paper's range).
    Measurement (:func:`measure_block_costs`) and composition
    (:func:`compose_points`) are split so the experiment runner can cache
    and parallelize the former.
    """
    w = device.warp_width
    search_c, merge_c = measure_block_costs(params, w, variant, workload, samples, seed)
    blocksort_c = measure_blocksort_cost(
        params, w, variant, workload, blocksort_samples, seed
    )
    return compose_points(
        params,
        search_c,
        merge_c,
        blocksort_c,
        variant=variant,
        workload=workload,
        device=device,
        i_range=i_range,
        constants=constants,
    )


def speedup_summary(
    baseline: list[ThroughputPoint], improved: list[ThroughputPoint]
) -> dict[str, float]:
    """Per-``n`` speedups of ``improved`` over ``baseline``.

    Returns mean / median / max, the three statistics Section 5.1 quotes
    ("average, mean, and maximum speedup").
    """
    if len(baseline) != len(improved):
        raise ParameterError("curves must cover the same n values")
    ratios = [b.time_us / i.time_us for b, i in zip(baseline, improved)]
    return {
        "mean": float(mean(ratios)),
        "median": float(median(ratios)),
        "max": float(max(ratios)),
        "min": float(min(ratios)),
    }
