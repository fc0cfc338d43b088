"""The canonical sweep grids, shared by the CLI, benchmarks, and CI.

Before the runner existed, ``repro.cli`` and the ``benchmarks/bench_*``
scripts each re-derived the Figures 5/6 parameter grids and the Theorem 8
case list by hand.  This module is now the single owner: the CLI expands
these specs through the cached executor, the benchmark scripts import the
same grids so pytest-benchmark times exactly the configurations the paper
sweeps, and ``python -m repro bench`` gates CI on the quick-mode suite.
"""

from __future__ import annotations

from repro.runner.spec import ParamValue, SweepSpec

__all__ = [
    "PARAM_SETS",
    "THEOREM8_GRID",
    "DEFENSES",
    "SWEEP_MODES",
    "sweep_args",
    "throughput_spec",
    "fig5_spec",
    "fig6_spec",
    "theorem8_spec",
    "defenses_spec",
    "service_throughput_spec",
    "engine_spec",
    "kway_spec",
    "samplesort_spec",
    "columns_spec",
    "cluster_spec",
    "replay_spec",
    "bench_suite",
]

#: The two Section 5 software-parameter configurations, as (E, u) pairs.
PARAM_SETS: tuple[tuple[int, int], ...] = ((15, 512), (17, 256))

#: The Theorem 8 validation grid of (w, E) cases (bench + CLI table).
THEOREM8_GRID: tuple[tuple[int, int], ...] = (
    (12, 5), (12, 9), (9, 6), (16, 9), (24, 18),
    (32, 8), (32, 12), (32, 15), (32, 16), (32, 17), (32, 24),
)

#: The Section 2 defense ablation arms (DESIGN.md; ``repro defenses``).
DEFENSES: tuple[str, ...] = ("coprime", "hashing", "cf")

#: Sweep sizes: ``quick`` mirrors ``--quick``, ``bench`` the benchmark
#: scripts' historical grid, ``full`` the paper-scale default.
SWEEP_MODES: dict[str, dict[str, ParamValue]] = {
    "quick": {"i_range": (16, 21, 26), "samples": 3, "blocksort_samples": 1},
    "bench": {"i_range": (16, 18, 20, 22, 24, 26), "samples": 4, "blocksort_samples": 1},
    "full": {"i_range": tuple(range(16, 27)), "samples": 6, "blocksort_samples": 2},
}


def sweep_args(mode: str) -> dict[str, ParamValue]:
    """The sweep-size knobs (``i_range``/``samples``/…) for ``mode``."""
    return dict(SWEEP_MODES[mode])


def throughput_spec(
    name: str,
    workloads: tuple[str, ...],
    mode: str = "full",
    param_sets: tuple[tuple[int, int], ...] = PARAM_SETS,
    variants: tuple[str, ...] = ("thrust", "cf"),
    w: int = 32,
    seed: int = 0,
) -> SweepSpec:
    """A Figures 5/6-style throughput sweep over (E,u) × variant × workload.

    Each expanded job measures one block's (search, merge, blocksort)
    counters; the ``i_range`` lives in :attr:`SweepSpec.meta` because
    curve composition is cache-free arithmetic.
    """
    knobs = sweep_args(mode)
    return SweepSpec(
        name=name,
        kind="throughput",
        axes=(
            ("E+u", tuple(param_sets)),
            ("variant", tuple(variants)),
            ("workload", tuple(workloads)),
        ),
        fixed=(
            ("w", w),
            ("samples", knobs["samples"]),
            ("blocksort_samples", knobs["blocksort_samples"]),
        ),
        seed=seed,
        meta=(("i_range", knobs["i_range"]), ("mode", mode)),
    )


def fig5_spec(
    mode: str = "full",
    param_sets: tuple[tuple[int, int], ...] = PARAM_SETS,
) -> SweepSpec:
    """Figure 5: worst-case throughput, both parameter sets."""
    return throughput_spec(f"fig5-{mode}", ("worstcase",), mode, param_sets)


def fig6_spec(
    mode: str = "full",
    param_sets: tuple[tuple[int, int], ...] = PARAM_SETS,
) -> SweepSpec:
    """Figure 6: worst-case AND random throughput, both parameter sets.

    Fig. 5's worst-case jobs are a subset of these, so a cache shared
    between ``fig5``/``fig6``/``export`` runs pays for itself.
    """
    return throughput_spec(f"fig6-{mode}", ("worstcase", "random"), mode, param_sets)


def theorem8_spec(grid: tuple[tuple[int, int], ...] = THEOREM8_GRID) -> SweepSpec:
    """Theorem 8: measured worst-case conflicts vs the closed forms."""
    return SweepSpec(name="theorem8", kind="theorem8", axes=(("w+E", tuple(grid)),))


def defenses_spec(w: int = 32, E: int = 15, hash_seeds: int = 5) -> SweepSpec:
    """The DMM-defense ablation on one warp's worst-case merge."""
    return SweepSpec(
        name="defenses",
        kind="defenses",
        axes=(("defense", DEFENSES),),
        fixed=(("w", w), ("E", E), ("hash_seeds", hash_seeds)),
    )


def service_throughput_spec(
    backends: tuple[str, ...] = ("cf", "baseline"),
    mixes: tuple[str, ...] = ("random", "adversarial"),
    n_requests: int = 32,
    seed: int = 0,
) -> SweepSpec:
    """The sort-service cost sweep: backend × request mix.

    Each expanded ``service`` job synthesizes ``n_requests`` small sort
    requests, micro-batches them with the default policy knobs, executes
    every batch through a backend, and reports cost metrics (batch count,
    padding fraction, aggregated conflict counters, cost-model time per
    request/element).  All outputs are pure functions of the parameters,
    so the sweep is cacheable and gate-safe.
    """
    return SweepSpec(
        name="service-throughput",
        kind="service",
        axes=(("backend", tuple(backends)), ("mix", tuple(mixes))),
        fixed=(
            ("n_requests", n_requests),
            ("min_elems", 8),
            ("max_elems", 160),
            ("batch_tiles", 4),
            ("batch_requests", 16),
            ("E", 5),
            ("u", 32),
            ("w", 8),
        ),
        seed=seed,
    )


def engine_spec(tiles: int = 8, seed: int = 0) -> SweepSpec:
    """The batched engine sweep: variant × workload over stacked tiles.

    Each job stacks ``tiles`` same-shape blocksort tiles and profiles
    them in one vectorized pass through :mod:`repro.engine.batch`; the
    summed per-tile counters are bit-identical to the lockstep
    simulator's, so the sweep gates the batched lane's correctness-critical
    arithmetic in CI.
    """
    return SweepSpec(
        name="engine",
        kind="engine",
        axes=(
            ("variant", ("thrust", "cf")),
            ("workload", ("random", "adversarial")),
        ),
        fixed=(("tiles", tiles), ("E", 5), ("u", 32), ("w", 8)),
        seed=seed,
    )


def kway_spec(tiles: int = 4, seed: int = 0) -> SweepSpec:
    """The k-way merge sweep: fan-in × gather schedule on one geometry.

    Each job k-way sorts ``tiles`` blocksort tiles through
    :func:`repro.mergesort.kway.kway_sort` and reports the level count
    plus total counters; the staged schedule's merge-phase replays gate
    the k-way zero-conflict claim in CI.
    """
    return SweepSpec(
        name="kway",
        kind="kway",
        axes=(
            ("k", (2, 3, 4)),
            ("schedule", ("staged", "fused")),
        ),
        fixed=(("tiles", tiles), ("E", 5), ("u", 32), ("w", 8)),
        seed=seed,
    )


def samplesort_spec(tiles: int = 4, seed: int = 0) -> SweepSpec:
    """The deterministic sample-sort sweep: workload shape × variant.

    Each job sample sorts ``tiles`` blocksort tiles' worth of keys and
    reports bucket statistics plus total counters; the ``random``
    workload gates the distinct-key bucket bound, the ``duplicate``
    workload exercises the k-way overflow fallback.
    """
    return SweepSpec(
        name="samplesort",
        kind="samplesort",
        axes=(("workload", ("random", "duplicate")),),
        fixed=(("tiles", tiles), ("E", 5), ("u", 32), ("w", 8)),
        seed=seed,
    )


def columns_spec(rows: int = 96, seed: int = 0) -> SweepSpec:
    """The columnar operator sweep: one job per relational operator.

    Each job runs an operator from :mod:`repro.columns.ops` over the
    seeded multi-dtype demo table (nullable floats with NaNs, negative
    ints, booleans), checks the output bit-identically against the
    pure-Python reference oracle, and reports the measured sort cost;
    the ``reference_ok`` and zero merge-replay rows gate the composite
    key pipeline in CI.
    """
    return SweepSpec(
        name="columns",
        kind="columns",
        axes=(("op", ("sort_by", "top_k", "join", "groupby")),),
        fixed=(("rows", rows), ("E", 5), ("u", 32), ("w", 8)),
        seed=seed,
    )


def cluster_spec(tiles: int = 8, chunk_tiles: int = 2, seed: int = 0) -> SweepSpec:
    """The cluster-layer sweep: plan execution at two widths + external.

    The ``plan-p2``/``plan-p4`` cases run the partition-wise chunk →
    sort → Merge-Path-partitioned merge pipeline (inline pool, which the
    cluster tests pin byte-identical to the process pool); ``external``
    runs the out-of-core sort under an ``n/8`` key budget and reports
    its spill accounting.  All rows are deterministic, so the sweep
    rides the same double-run ``cmp`` gate as the engine/kway jobs.
    """
    return SweepSpec(
        name="cluster",
        kind="cluster",
        axes=(("case", ("plan-p2", "plan-p4", "external")),),
        fixed=(
            ("tiles", tiles),
            ("chunk_tiles", chunk_tiles),
            ("E", 5),
            ("u", 32),
            ("w", 8),
        ),
        seed=seed,
    )


def replay_spec(events: int = 16, seed: int = 0) -> SweepSpec:
    """The record/replay sweep: one deterministic replay per load model.

    Each job synthesizes a traffic log from one of the
    :mod:`repro.replay.models` load models (diurnal wave, bursty
    tenants, adversarial mix), replays it through the logical-clock
    replayer with the full per-response oracle suite, and reports the
    response mix plus the replay-report digest.  The digest row is what
    makes the sweep double-run comparable: any nondeterminism in the
    replayer shows up as a ``cmp`` diff in CI before it can corrupt a
    chaos verdict.
    """
    return SweepSpec(
        name="replay",
        kind="replay",
        axes=(("model", ("diurnal_wave", "bursty_tenants", "adversarial_mix")),),
        fixed=(
            ("events", events),
            ("window_ticks", 4),
            ("E", 5),
            ("u", 32),
            ("w", 8),
        ),
        seed=seed,
    )


def bench_suite() -> tuple[SweepSpec, ...]:
    """The specs behind ``python -m repro bench`` and the CI perf gate.

    Quick-mode fig6 (which subsumes fig5's worst-case tiles), the
    Theorem 8 grid, the defense ablation, the sort-service cost sweep,
    the batched engine sweep, and the
    k-way/sample-sort/columns/cluster/replay sweeps — every counter they
    produce is deterministic, so the gate is flake-free by construction.
    """
    return (
        fig6_spec("quick"),
        theorem8_spec(),
        defenses_spec(),
        service_throughput_spec(),
        engine_spec(),
        kway_spec(),
        samplesort_spec(),
        columns_spec(),
        cluster_spec(),
        replay_spec(),
    )
