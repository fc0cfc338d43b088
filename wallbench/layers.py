"""Per-layer metrics of a traced run, from its spans and its counter deltas.

Every workload reports every metric named in ``PER_LAYER``; a layer the
workload never enters reads 0 (see the table in ``WORKLOADS.md``).
Span-based figures use the spans of the throughput phase (``backlog`` on
the service workloads, ``calls`` on ``sort-long``); the service latency
split comes from the open-loop phase.
"""

from __future__ import annotations

from typing import Any, Sequence

import harness
from harness import Span

BACKENDS = ("cf", "cf-batched", "cf-cluster", "kway", "samplesort", "baseline", "numpy")

#: Every per-layer metric, ``name -> unit``, in output order.
PER_LAYER: dict[str, str] = {
    "service.submit_us": "us",
    "service.wait_ms": "ms",
    "service.exec_ms": "ms",
    "service.dispatch_ms": "ms",
    "service.requests_per_batch": "count",
    "service.fill_ratio": "ratio",
    "runner.encode_ms": "ms",
    "runner.self_ms": "ms",
    **{f"backend.{name}.us_per_key": "us/key" for name in BACKENDS},
    "engine.profile_ms": "ms",
    "engine.tiles_per_call": "count",
    "engine.plan_hit_ratio": "ratio",
    "engine.arena_reuse_rate": "ratio",
    "mergesort.blocksort_ms_per_tile": "ms",
    "mergesort.cf_merge_ms_per_block": "ms",
    "mergesort.serial_merge_ms_per_block": "ms",
    "sim.rounds": "count",
    "sim.rounds_per_s": "1/s",
    "sim.replays_per_round": "ratio",
    "cluster.tasks_per_call": "count",
    "cluster.shm_bytes_per_key": "B/key",
    "trace.keys_per_s_ratio": "ratio",
}

THROUGHPUT_PHASES = ("backlog", "calls")
MERGESORT_SPANS = (
    "mergesort.blocksort_tile", "mergesort.cf_merge_block", "mergesort.serial_merge_block",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_duration(spans: Sequence[Span]) -> float:
    return _ratio(sum(s.duration for s in spans), len(spans))


def runner_self(spans: Sequence[Span]) -> list[float]:
    """Per batch: ``run_batch`` time minus the backend call inside it."""
    backend_s: dict[tuple[int, int], float] = {}
    for s in spans:
        if s.name.startswith("backend."):
            key = (s.thread, s.batch)
            backend_s[key] = backend_s.get(key, 0.0) + s.duration
    return [
        s.duration - backend_s.get((s.thread, s.batch), 0.0)
        for s in spans if s.name == "service.run_batch"
    ]


def layer_metrics(spans: Sequence[Span], layer: dict[str, Any]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric's value for one traced run."""
    hot = [s for s in spans if s.phase in THROUGHPUT_PHASES]
    by_name: dict[str, list[Span]] = {}
    for s in hot:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    delta = layer["backlog"]
    counters = layer["counters"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    if "submit_s" in layer:
        parts = layer["decomposition"]
        out["service.submit_us"] = harness.median(layer["submit_s"]) * 1e6
        out["service.wait_ms"] = parts.wait * 1e3
        out["service.exec_ms"] = parts.exec * 1e3
        out["service.dispatch_ms"] = parts.dispatch * 1e3
        out["service.requests_per_batch"] = _ratio(delta["completed"], delta["count"])
        out["service.fill_ratio"] = _ratio(delta["elements"], delta["padded_elements"])
    encode = named("runner.batch_job")
    if encode:
        out["runner.encode_ms"] = harness.median([s.duration for s in encode]) * 1e3
    own = runner_self(hot)
    if own:
        out["runner.self_ms"] = harness.median(own) * 1e3
    for name in BACKENDS:
        calls = named(f"backend.{name}")
        keys = sum(s.count for s in calls)
        out[f"backend.{name}.us_per_key"] = _ratio(sum(s.duration for s in calls), keys) * 1e6
    profile = named("engine.profile")
    out["engine.profile_ms"] = _mean_duration(profile) * 1e3
    out["engine.tiles_per_call"] = _ratio(sum(s.count for s in profile), len(profile))
    out["engine.plan_hit_ratio"] = _ratio(
        delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
    )
    out["engine.arena_reuse_rate"] = _ratio(delta["arena_reuse"], delta["arena_checkouts"])
    out["mergesort.blocksort_ms_per_tile"] = _mean_duration(named(MERGESORT_SPANS[0])) * 1e3
    out["mergesort.cf_merge_ms_per_block"] = _mean_duration(named(MERGESORT_SPANS[1])) * 1e3
    out["mergesort.serial_merge_ms_per_block"] = (
        _mean_duration(named(MERGESORT_SPANS[2])) * 1e3
    )
    merge_spans = [s for name in MERGESORT_SPANS for s in named(name)]
    out["sim.rounds"] = float(counters.shared_rounds)
    out["sim.rounds_per_s"] = _ratio(
        sum(s.count for s in merge_spans), sum(s.duration for s in merge_spans)
    )
    out["sim.replays_per_round"] = _ratio(counters.shared_replays, counters.shared_rounds)
    cluster_calls = named("backend.cf-cluster")
    out["cluster.tasks_per_call"] = _ratio(delta["cluster_tasks"], len(cluster_calls))
    out["cluster.shm_bytes_per_key"] = _ratio(
        delta["shm_bytes"], sum(s.count for s in cluster_calls)
    )
    out["trace.keys_per_s_ratio"] = layer["keys_per_s_ratio"]
    return out


#: Parts of one open-loop request's latency, in timeline order.
REQUEST_PARTS = ("late", "wait", "queue", "exec", "fanout")


def request_breakdown(
    spans: Sequence[Span], rows: Sequence[tuple[float, float, float, float, int, float]]
) -> dict[str, float]:
    """Where open-loop requests' latency went, each part measured on its own.

    ``rows`` hold each request's due time, submit start, wait, exec, batch
    id and completion time.  Per request: ``late`` is the generator's delay,
    ``wait`` and ``exec`` come from the service's result, ``queue`` is the
    batch's ``run_batch`` span start minus the flush (shard queue) and
    ``fanout`` is completion minus the span end.  Returns each part's mean
    in seconds.  This says where the time went; it is no check, since the
    parts add up to the latency by construction whenever ``exec`` matches
    the span.
    """
    batches = {s.batch: s for s in spans if s.name == "service.run_batch"}
    parts: dict[str, list[float]] = {name: [] for name in REQUEST_PARTS}
    for due, started, wait, exec_, batch, done in rows:
        span = batches.get(batch)
        if span is None:
            continue
        row = {
            "late": started - due, "wait": wait, "queue": span.start - (started + wait),
            "exec": exec_, "fanout": done - span.end,
        }
        for name, value in row.items():
            parts[name].append(value)
    return {name: _ratio(sum(values), len(values)) for name, values in parts.items()}


def mergesort_seconds(spans: Sequence[Span]) -> float:
    """Self time of the ``repro.mergesort`` spans among ``spans`` (one call's tree).

    On ``sort-long`` these are the leaves under each backend call.  Set
    against the *untraced* wall time of the same calls, the share tells
    whether the named layers account for the time: unlike the sum of every
    span's self time, it falls short when work happens outside them.
    """
    own = harness.self_times(spans)
    return sum(own[s.id] for s in spans if s.name in MERGESORT_SPANS)


def self_time_table(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Self seconds per span name, per phase (the traced run's layer breakdown)."""
    out: dict[str, dict[str, float]] = {}
    for phase in sorted({s.phase for s in spans}):
        out[phase] = harness.self_time_by_name([s for s in spans if s.phase == phase])
    return out
