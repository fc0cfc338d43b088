"""Tile-job workers: the measurement kernels behind each job kind.

:func:`run_tile_job` is the single entry point the executor fans out over
worker processes.  Every worker is a pure function of its job's
parameters (the per-job seed included), returns plain JSON-serializable
dictionaries, and is therefore safe to cache by job hash and to execute
in any order on any number of processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, cast

from repro.config import RTX_2080_TI, DeviceSpec, SortParams
from repro.errors import ParameterError
from repro.perf.calibration import DEFAULT_CONSTANTS, CycleConstants
from repro.runner.spec import TileJob
from repro.sim.counters import Counters

if TYPE_CHECKING:
    from repro.perf.throughput import ThroughputPoint

__all__ = ["run_tile_job", "throughput_points", "counters_from"]


def _as_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"job parameter {name!r} must be an int, got {value!r}")
    return value


def _as_str(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"job parameter {name!r} must be a str, got {value!r}")
    return value


def counters_from(payload: dict[str, int]) -> Counters:
    """Rebuild a :class:`Counters` from its ``as_dict`` JSON payload."""
    counters = Counters()
    for name, value in payload.items():
        if not hasattr(counters, name):
            raise ParameterError(f"unknown counter field {name!r} in cached result")
        setattr(counters, name, int(value))
    return counters


def _throughput_tile(params: dict[str, Any]) -> dict[str, Any]:
    """Measure one (E, u, variant, workload) block's counters."""
    from repro.perf.throughput import measure_block_costs, measure_blocksort_cost

    sort_params = SortParams(_as_int(params["E"], "E"), _as_int(params["u"], "u"))
    w = _as_int(params["w"], "w")
    variant = _as_str(params["variant"], "variant")
    workload = _as_str(params["workload"], "workload")
    seed = _as_int(params["seed"], "seed")
    search_c, merge_c = measure_block_costs(
        sort_params, w, variant, workload, _as_int(params["samples"], "samples"), seed
    )
    blocksort_c = measure_blocksort_cost(
        sort_params,
        w,
        variant,
        workload,
        _as_int(params["blocksort_samples"], "blocksort_samples"),
        seed,
    )
    return {
        "search": search_c.as_dict(),
        "merge": merge_c.as_dict(),
        "blocksort": blocksort_c.as_dict(),
    }


def _theorem8_tile(params: dict[str, Any]) -> dict[str, Any]:
    """Measure one (w, E) worst-case merge against the closed form."""
    from repro.engine.lane import profile_serial_merges
    from repro.worstcase import theorem8_combined, worstcase_merge_inputs

    w = _as_int(params["w"], "w")
    E = _as_int(params["E"], "E")
    a, b = worstcase_merge_inputs(w, E)
    prof = profile_serial_merges([(a, b)], E, w)[0]
    return {
        "formula": int(theorem8_combined(w, E)),
        "excess": int(prof.shared_excess),
        "replays": int(prof.shared_replays),
        "read_rounds": int(prof.shared_read_rounds),
        "replays_per_step": prof.shared_replays / max(prof.shared_read_rounds, 1),
    }


def _defenses_tile(params: dict[str, Any]) -> dict[str, Any]:
    """Measure one defense arm on one warp's worst-case merge."""
    from repro.dmm import HashedSharedMemory
    from repro.mergesort import cf_merge_block, serial_merge_block
    from repro.worstcase import worstcase_merge_inputs

    w = _as_int(params["w"], "w")
    E = _as_int(params["E"], "E")
    defense = _as_str(params["defense"], "defense")
    a, b = worstcase_merge_inputs(w, E)

    if defense == "coprime":
        _, stats = serial_merge_block(a, b, E, w, simulate_search=False)
        return {
            "merge_replays": float(stats.merge.shared_replays),
            "compute_ops": float(stats.merge.compute_ops),
        }
    if defense == "hashing":
        hash_seeds = _as_int(params["hash_seeds"], "hash_seeds")
        replays, compute = [], []
        for seed in range(hash_seeds):
            def factory(size: int, w_: int, counters: Any, trace: Any, _seed: int = seed) -> Any:
                return HashedSharedMemory(
                    size, w_, counters=counters, trace=trace, seed=_seed
                )

            _, stats = serial_merge_block(
                a, b, E, w, simulate_search=False, shared_factory=factory
            )
            replays.append(stats.merge.shared_replays)
            compute.append(stats.merge.compute_ops)
        return {
            "merge_replays": sum(replays) / len(replays),
            "compute_ops": sum(compute) / len(compute),
        }
    if defense == "cf":
        _, stats = cf_merge_block(a, b, E, w, simulate_search=False)
        return {
            "merge_replays": float(stats.merge.shared_replays),
            "compute_ops": float(stats.merge.compute_ops),
        }
    raise ParameterError(f"unknown defense {defense!r}")


def _service_batch_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One service micro-batch: a segmented sort through a backend."""
    from repro.service.jobs import service_batch_tile

    return service_batch_tile(params)


def _service_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One synthetic service workload, batched and cost-modeled."""
    from repro.service.synthetic import service_tile

    return service_tile(params)


def _fuzz_case_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One fuzz case through the oracle stack (see :mod:`repro.fuzz`)."""
    from repro.fuzz.oracles import fuzz_case_tile

    return fuzz_case_tile(params)


def _engine_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One batched engine pass over a stack of blocksort tiles.

    Deterministic per parameters: the per-tile counters are bit-identical
    to the lockstep simulator's (cross-validated in the engine tests),
    so their sum gates the batched lane in CI like any other counter.
    The fusion/arena deltas are pure call counts of *this* pass — warm
    state (arena reuse hits, peak bytes) is deliberately excluded, since
    it depends on what else ran in the worker process.
    """
    import numpy as np

    from repro.engine.arena import arena_stats
    from repro.engine.batch import batched_blocksort_profile, fusion_stats
    from repro.workloads.generators import uniform_random
    from repro.worstcase.generator import worstcase_full_input

    E = _as_int(params["E"], "E")
    u = _as_int(params["u"], "u")
    w = _as_int(params["w"], "w")
    n_tiles = _as_int(params["tiles"], "tiles")
    variant = _as_str(params["variant"], "variant")
    workload = _as_str(params["workload"], "workload")
    seed = _as_int(params["seed"], "seed")
    tile = u * E
    if workload == "adversarial":
        data = worstcase_full_input(n_tiles, E, u, w)
        rows = data.reshape(n_tiles, tile)
    elif workload == "random":
        rows = np.stack(
            [uniform_random(tile, seed=seed + k, high=2**40) for k in range(n_tiles)]
        )
    else:
        raise ParameterError(f"unknown workload {workload!r}")
    f0, a0 = fusion_stats(), arena_stats()
    acc = Counters()
    for c in batched_blocksort_profile(rows, E, w, variant):
        acc.merge(c)
    f1, a1 = fusion_stats(), arena_stats()
    return {
        "tiles": n_tiles,
        "counters": acc.as_dict(),
        "fusion": {
            "stage_passes": f1["stage_passes"] - f0["stage_passes"],
            "rounds_folded": (
                (f1["rounds_folded"] - f0["rounds_folded"])
                + (f1["stage_rounds_folded"] - f0["stage_rounds_folded"])
            ),
            "fused_blocksorts": (
                f1["fused_blocksorts"] - f0["fused_blocksorts"]
            ),
        },
        "arena": {"checkouts": a1["checkouts"] - a0["checkouts"]},
    }


def _kway_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One k-way CF sort over a stack of blocksort tiles.

    Deterministic per parameters: level counts and counters are pure
    functions of the seeded input, so the staged schedule's zero
    merge-replay row gates the k-way claim in CI.
    """
    from repro.mergesort.kway import kway_level_count, kway_sort
    from repro.workloads.generators import uniform_random

    E = _as_int(params["E"], "E")
    u = _as_int(params["u"], "u")
    w = _as_int(params["w"], "w")
    n_tiles = _as_int(params["tiles"], "tiles")
    k = _as_int(params["k"], "k")
    schedule = _as_str(params["schedule"], "schedule")
    seed = _as_int(params["seed"], "seed")
    data = uniform_random(n_tiles * u * E, seed=seed, high=2**40)
    result = kway_sort(data, k, E, u, w, variant="cf", schedule=schedule)
    return {
        "merge_levels": result.merge_level_count,
        "expected_levels": kway_level_count(n_tiles, k),
        "pairwise_levels": kway_level_count(n_tiles, 2),
        "merge_replays": result.merge_replays,
        "counters": result.total_counters.as_dict(),
    }


def _samplesort_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One deterministic sample sort over a seeded workload."""
    import numpy as np

    from repro.mergesort.samplesort import sample_sort
    from repro.workloads.generators import uniform_random

    E = _as_int(params["E"], "E")
    u = _as_int(params["u"], "u")
    w = _as_int(params["w"], "w")
    n_tiles = _as_int(params["tiles"], "tiles")
    workload = _as_str(params["workload"], "workload")
    seed = _as_int(params["seed"], "seed")
    n = n_tiles * u * E
    if workload == "random":
        rng = np.random.default_rng(seed)
        data = rng.permutation(np.arange(n, dtype=np.int64))
    elif workload == "duplicate":
        data = uniform_random(n, seed=seed, high=4)
    else:
        raise ParameterError(f"unknown workload {workload!r}")
    result = sample_sort(data, E, u, w, variant="cf")
    return {
        "n_buckets": result.n_buckets,
        "max_bucket": result.max_bucket,
        "bucket_bound": result.bucket_bound,
        "overflow_buckets": result.overflow_buckets,
        "merge_replays": result.merge_replays,
        "counters": result.total_counters.as_dict(),
    }


def _columns_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One columnar operator over a seeded multi-dtype demo table.

    Runs the operator, verifies it bit-identically against the
    pure-Python reference oracle, and reports the measured sort cost —
    the ``reference_ok``/zero-replay rows gate the columns claim in CI.
    """
    from repro.columns.keys import KeySpec
    from repro.columns.ops import groupby_aggregate, merge_join, sort_by, top_k
    from repro.columns.profiler import demo_table
    from repro.columns.reference import (
        groupby_reference,
        join_reference,
        sort_by_reference,
        top_k_reference,
    )

    E = _as_int(params["E"], "E")
    u = _as_int(params["u"], "u")
    w = _as_int(params["w"], "w")
    rows = _as_int(params["rows"], "rows")
    operator = _as_str(params["op"], "op")
    seed = _as_int(params["seed"], "seed")
    sort_params = SortParams(E, u)
    table = demo_table(rows, seed=seed)
    keys = [KeySpec("id"), KeySpec("score", ascending=False, nulls="first")]
    if operator == "sort_by":
        result = sort_by(table, keys, params=sort_params, w=w)
        reference_ok = result.table.equals(sort_by_reference(table, keys))
    elif operator == "top_k":
        result = top_k(table, keys, rows // 4, params=sort_params, w=w)
        reference_ok = result.table.equals(top_k_reference(table, keys, rows // 4))
    elif operator == "join":
        right = demo_table(max(1, rows // 2), seed=seed + 1).select(["id", "payload"])
        result = merge_join(table, right, ["id"], params=sort_params, w=w)
        reference_ok = result.table.equals(join_reference(table, right, ["id"]))
    elif operator == "groupby":
        aggs = {"score": ("count", "sum", "min", "max")}
        result = groupby_aggregate(table, ["id"], aggs, params=sort_params, w=w)
        reference_ok = result.table.equals(groupby_reference(table, ["id"], aggs))
    else:
        raise ParameterError(f"unknown columns operator {operator!r}")
    return {
        "operator": operator,
        "rows": int(result.table.num_rows),
        "passes": int(result.passes),
        "merge_replays": (
            -1 if result.merge_replays is None else int(result.merge_replays)
        ),
        "reference_ok": bool(reference_ok),
        "counters": result.counters.as_dict(),
    }


def _cluster_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One partition-wise (or external) cluster sort over a seeded workload.

    Plan cases run the chunk → sort → Merge-Path-partitioned merge
    pipeline through the inline pool (byte-identical to the process pool
    by construction, checked in the cluster tests); the external case
    spills to a scratch directory and reports its deterministic disk
    accounting.  Everything reported is a pure function of the
    parameters, so the job is cacheable and gate-safe.
    """
    import tempfile

    import numpy as np

    from repro.cluster.executor import cluster_sort
    from repro.cluster.external import external_sort
    from repro.cluster.pool import ClusterPool
    from repro.workloads.generators import uniform_random

    E = _as_int(params["E"], "E")
    u = _as_int(params["u"], "u")
    w = _as_int(params["w"], "w")
    n_tiles = _as_int(params["tiles"], "tiles")
    chunk_tiles = _as_int(params["chunk_tiles"], "chunk_tiles")
    case = _as_str(params["case"], "case")
    seed = _as_int(params["seed"], "seed")
    tile = u * E
    n = n_tiles * tile
    data = uniform_random(n, seed=seed, high=2**30)
    if case == "external":
        budget = max(1, n // 8)
        with tempfile.TemporaryDirectory(prefix="repro-cluster-") as scratch:
            result = external_sort(data, budget, scratch)
            ok = bool(np.array_equal(result.sorted_array(), np.sort(data)))
        stats = result.stats
        return {
            "case": case,
            "ok": ok,
            "budget_keys": budget,
            "runs_written": stats.runs_written,
            "merge_rounds": stats.merge_rounds,
            "keys_spilled": stats.keys_spilled,
            "keys_read_back": stats.keys_read_back,
            "peak_resident_keys": stats.peak_resident_keys,
        }
    if case.startswith("plan-p"):
        parts = int(case.removeprefix("plan-p"))
        outcome = cluster_sort(
            data,
            chunk=chunk_tiles * tile,
            parts=parts,
            backend="cf-batched",
            E=E,
            u=u,
            w=w,
            pool=ClusterPool(0),
        )
        return {
            "case": case,
            "ok": bool(np.array_equal(outcome.data, np.sort(data))),
            "plan_key": outcome.plan.key,
            "sort_tasks": len(outcome.plan.sort_tasks),
            "merge_tasks": len(outcome.plan.merge_tasks),
            "launches": outcome.launches,
            "counters": outcome.counters.as_dict(),
        }
    raise ParameterError(f"unknown cluster case {case!r}")


def _replay_tile(params: dict[str, Any]) -> dict[str, Any]:
    """One deterministic replay of a synthesized traffic log.

    Builds the requested load model at the fixed replay geometry, runs
    it through the logical-clock replayer with the full per-response
    oracle suite, and reports the response mix plus the replay-report
    digest — the digest is the row CI's double-run ``cmp`` gate leans
    on, since it covers every response byte, counter, and span.
    """
    from repro.fuzz.corpus import Geometry
    from repro.replay.models import build_load
    from repro.replay.replayer import ReplayConfig, replay_log

    model = _as_str(params["model"], "model")
    events = _as_int(params["events"], "events")
    seed = _as_int(params["seed"], "seed")
    window_ticks = _as_int(params["window_ticks"], "window_ticks")
    geometry = Geometry(
        w=_as_int(params["w"], "w"),
        E=_as_int(params["E"], "E"),
        u=_as_int(params["u"], "u"),
    )
    log = build_load(model, events, seed, geometry)
    report = replay_log(log, ReplayConfig(window_ticks=window_ticks))
    return {
        "model": model,
        "log_digest": log.digest,
        "requests": len(log.events),
        "ok": report["ok"],
        "shed": report["shed"],
        "expired": report["expired"],
        "batches": len(report["batches"]),
        "launches": report["launches"],
        "oracle_failures": list(report["oracle_failures"]),
        "counters": dict(report["counters"]),
        "report_digest": report["digest"],
    }


_WORKERS = {
    "throughput": _throughput_tile,
    "theorem8": _theorem8_tile,
    "defenses": _defenses_tile,
    "service_batch": _service_batch_tile,
    "service": _service_tile,
    "fuzz_case": _fuzz_case_tile,
    "engine": _engine_tile,
    "kway": _kway_tile,
    "samplesort": _samplesort_tile,
    "columns": _columns_tile,
    "cluster": _cluster_tile,
    "replay": _replay_tile,
}


def run_tile_job(job: TileJob) -> dict[str, Any]:
    """Execute one tile job and return its JSON-serializable result.

    Importable at module top level so :class:`~concurrent.futures.
    ProcessPoolExecutor` can pickle it to worker processes.
    """
    worker = _WORKERS.get(job.kind)
    if worker is None:
        raise ParameterError(f"unknown job kind {job.kind!r}")
    return worker(job.params_dict)


def throughput_points(
    job: TileJob,
    result: dict[str, Any],
    i_range: tuple[int, ...] | range,
    device: DeviceSpec = RTX_2080_TI,
    constants: CycleConstants = DEFAULT_CONSTANTS,
) -> list[ThroughputPoint]:
    """Compose a cached/parallel ``throughput`` job result into a curve.

    Equivalent to :func:`repro.perf.throughput.throughput_sweep` with the
    measurement half replaced by the job's (possibly cached) counters.
    """
    from repro.perf.throughput import compose_points

    if job.kind != "throughput":
        raise ParameterError(f"expected a throughput job, got kind {job.kind!r}")
    params = job.params_dict
    if params["w"] != device.warp_width:
        raise ParameterError(
            f"job measured at w={params['w']} cannot compose on "
            f"{device.name} (w={device.warp_width})"
        )
    sort_params = SortParams(_as_int(params["E"], "E"), _as_int(params["u"], "u"))
    return compose_points(
        sort_params,
        counters_from(cast("dict[str, int]", result["search"])),
        counters_from(cast("dict[str, int]", result["merge"])),
        counters_from(cast("dict[str, int]", result["blocksort"])),
        variant=_as_str(params["variant"], "variant"),
        workload=_as_str(params["workload"], "workload"),
        device=device,
        i_range=i_range,
        constants=constants,
    )
