"""The service's metrics layer: per-request, per-batch, and queue health.

Everything the service measures funnels through one thread-safe
:class:`ServiceMetrics` instance: request outcomes (latency split into
queue wait and service time), micro-batch quality (fill ratio against
whole-tile capacity), queue depth extremes, aggregated simulator
counters (bank-conflict replays included), and cost-model time.  A
snapshot is plain JSON, and :meth:`ServiceMetrics.to_run_report` exports
it as a :class:`~repro.runner.report.RunReport` so service metrics ride
the same artifact pipeline (and tooling) as every experiment sweep.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.cluster.stats import CLUSTER, cluster_stats
from repro.config import RTX_2080_TI, DeviceSpec, SortParams
from repro.engine.arena import BufferArena, arena_stats
from repro.engine.batch import FUSION, fusion_stats
from repro.engine.plans import PlanCache, plan_cache_stats
from repro.perf.cost_model import CostModel
from repro.replay.stats import REPLAY, replay_stats
from repro.service.request import SortResult
from repro.sim.counters import Counters
from repro.telemetry.stats import flatten_numeric, percentile

if TYPE_CHECKING:
    from repro.runner.report import RunReport

__all__ = ["BatchRecord", "ServiceMetrics", "METRICS_SCHEMA", "counter_paths"]

#: Versioned so dashboards can evolve with the snapshot shape.
#: 2 added the ``engine.plan_cache`` section; 3 added ``cluster``;
#: 4 added ``replay``; 5 added ``engine.arena`` and ``engine.fusion``;
#: 6 added ``requests.failed``.
METRICS_SCHEMA = 6

#: A process-wide stats section of the snapshot: its dotted path, the
#: view that reads it, and which of its keys are counters.
_StatsSection = tuple[str, Callable[[], Mapping[str, float]], tuple[str, ...]]

#: The snapshot's process-wide stats sections, in snapshot order.  The
#: cluster and replay stats modules import only ``repro.telemetry.stats``,
#: so importing them here loads neither layer (both import the service).
_STATS_SECTIONS: tuple[_StatsSection, ...] = (
    ("engine.plan_cache", plan_cache_stats, PlanCache.COUNTERS),
    ("engine.arena", arena_stats, BufferArena.COUNTERS),
    ("engine.fusion", fusion_stats, FUSION.counters),
    ("cluster", cluster_stats, CLUSTER.counters),
    ("replay", replay_stats, REPLAY.counters),
)


def counter_paths() -> frozenset[str]:
    """Every snapshot path that only grows: the Prometheus counters.

    The service's own counts (:attr:`ServiceMetrics.COUNTERS`), every
    simulator counter under ``counters.``, and the declared counters of
    each process-wide stats section; every other leaf is a gauge.
    """
    paths = set(ServiceMetrics.COUNTERS)
    paths.update(f"counters.{name}" for name in Counters().as_dict())
    for section, _, counters in _STATS_SECTIONS:
        paths.update(f"{section}.{name}" for name in counters)
    return frozenset(paths)


@dataclass(frozen=True)
class BatchRecord:
    """One executed micro-batch, as the metrics layer remembers it."""

    batch_id: int
    backend: str
    shard: int
    requests: int
    elements: int
    #: Whole-tile capacity the launch occupied (``ceil(elements/tile) * tile``).
    padded_elements: int
    service_s: float
    #: Bank-conflict replays the launch performed.
    replays: int
    #: Cache hits the runner executor reported for the batch's job.
    cache_hits: int

    @property
    def fill_ratio(self) -> float:
        """Useful elements over occupied whole-tile capacity."""
        return self.elements / self.padded_elements if self.padded_elements else 0.0


class ServiceMetrics:
    """Thread-safe accumulator for everything the service measures."""

    #: The service's own snapshot paths that only grow.
    COUNTERS = (
        "requests.submitted",
        "requests.completed",
        "requests.shed",
        "requests.expired",
        "requests.failed",
        "batches.count",
        "batches.elements",
        "batches.padded_elements",
        "batches.cache_hits",
    )

    def __init__(
        self,
        params: SortParams,
        w: int,
        queue_capacity: int,
        device: DeviceSpec = RTX_2080_TI,
    ) -> None:
        self._lock = threading.Lock()
        self._params = params
        self._w = w
        self._queue_capacity = queue_capacity
        self._device = device
        self._started_at = time.monotonic()
        #: Completed requests' latencies, plus their wait and service
        #: sums: all a result leaves behind (never its sorted payload).
        self._latencies: list[float] = []
        self._wait_total = 0.0
        self._service_total = 0.0
        #: Running batch totals: the snapshot reads these, never a
        #: per-batch list, so memory stays flat however long it serves.
        self._batch_count = 0
        self._batch_elements = 0
        self._batch_padded = 0
        self._batch_cache_hits = 0
        self._fill_total = 0.0
        self._fill_min = 0.0
        self._counters = Counters()
        self._submitted = 0
        self._shed = 0
        self._expired = 0
        self._failed = 0
        self._max_queue_depth = 0
        self._depth_samples = 0
        self._depth_total = 0

    def record_admitted(self, queue_depth: int) -> None:
        """Note one admitted request and sample the queue depth."""
        with self._lock:
            self._submitted += 1
            self._max_queue_depth = max(self._max_queue_depth, queue_depth)
            self._depth_samples += 1
            self._depth_total += queue_depth

    def record_shed(self) -> None:
        """Note one request rejected by the bounded queue."""
        with self._lock:
            self._shed += 1

    def record_result(self, result: SortResult) -> None:
        """Note one completed (or expired/failed) request result.

        Keeps the timings of a completed result and counts a failed one;
        the result object, and its sorted data, are not retained.
        """
        with self._lock:
            if result.ok:
                self._latencies.append(result.latency_s)
                self._wait_total += result.wait_s
                self._service_total += result.service_s
            elif result.error == "DeadlineExceededError":
                self._expired += 1
            elif result.error == "ServiceError":
                self._failed += 1

    def record_batch(self, record: BatchRecord, counters: Counters) -> None:
        """Note one executed micro-batch and fold in its counters."""
        with self._lock:
            fill = record.fill_ratio
            self._fill_min = min(self._fill_min, fill) if self._batch_count else fill
            self._fill_total += fill
            self._batch_count += 1
            self._batch_elements += record.elements
            self._batch_padded += record.padded_elements
            self._batch_cache_hits += record.cache_hits
            self._counters.merge(counters)

    @property
    def counters(self) -> Counters:
        """A copy of the aggregated simulator counters."""
        with self._lock:
            out = Counters()
            out.merge(self._counters)
            return out

    def snapshot(self) -> dict[str, Any]:
        """The full metrics state as one JSON-serializable dictionary."""
        stats: dict[str, Any] = {}
        for path, view, _ in _STATS_SECTIONS:
            *parents, leaf = path.split(".")
            node = stats
            for parent in parents:
                node = node.setdefault(parent, {})
            node[leaf] = view()
        # Copy under the lock, compute outside it: every shard's
        # record_result and record_batch wait on this lock.
        with self._lock:
            latencies = list(self._latencies)
            counters = Counters()
            counters.merge(self._counters)
            n_batches = self._batch_count
            elements = self._batch_elements
            padded = self._batch_padded
            cache_hits = self._batch_cache_hits
            fill_total, fill_min = self._fill_total, self._fill_min
            wait_total, service_total = self._wait_total, self._service_total
            submitted, shed = self._submitted, self._shed
            expired, failed = self._expired, self._failed
            max_depth = self._max_queue_depth
            depth_samples, depth_total = self._depth_samples, self._depth_total
            wall_s = max(time.monotonic() - self._started_at, 1e-9)
        latencies.sort()
        breakdown = CostModel(self._device).estimate(
            counters, kernel_launches=max(n_batches, 1)
        )
        n_completed = len(latencies)
        return {
            "schema": METRICS_SCHEMA,
            "params": {"E": self._params.E, "u": self._params.u, "w": self._w},
            "requests": {
                "submitted": submitted,
                "completed": n_completed,
                "shed": shed,
                "expired": expired,
                "failed": failed,
                "latency_s": {
                    "mean": sum(latencies) / n_completed if n_completed else 0.0,
                    "p50": percentile(latencies, 0.50),
                    "p95": percentile(latencies, 0.95),
                    "max": latencies[-1] if latencies else 0.0,
                },
                "wait_s_mean": wait_total / n_completed if n_completed else 0.0,
                "service_s_mean": service_total / n_completed if n_completed else 0.0,
            },
            "batches": {
                "count": n_batches,
                "elements": elements,
                "padded_elements": padded,
                "fill_ratio_mean": fill_total / n_batches if n_batches else 0.0,
                "fill_ratio_min": fill_min,
                "padding_fraction": 1.0 - (elements / padded) if padded else 0.0,
                "requests_per_batch_mean": (
                    n_completed / n_batches if n_batches else 0.0
                ),
                "cache_hits": cache_hits,
            },
            "queue": {
                "capacity": self._queue_capacity,
                "max_depth": max_depth,
                "mean_depth": depth_total / depth_samples if depth_samples else 0.0,
            },
            "counters": counters.as_dict(),
            **stats,
            "modeled": {
                "total_us": breakdown.total_us,
                "us_per_request": breakdown.total_us / max(n_completed, 1),
                "us_per_element": breakdown.total_us / max(elements, 1),
            },
            "throughput": {
                "wall_s": wall_s,
                "requests_per_s": n_completed / wall_s,
                "elements_per_s": elements / wall_s,
            },
        }

    def to_run_report(self, name: str = "service-metrics") -> RunReport:
        """Export the snapshot as a RunReport-compatible artifact.

        Numeric leaves of the snapshot become the report's ``derived``
        metrics (dotted paths, e.g. ``requests.latency_s.p95``), so the
        artifact loads with :meth:`repro.runner.report.RunReport.read`
        and renders with the same tooling as the experiment sweeps.
        """
        # The runner's report stack loads only when a report is exported.
        from repro.runner.cache import code_version
        from repro.runner.executor import ExecutionStats
        from repro.runner.report import RunReport

        snap = self.snapshot()
        derived: dict[str, float] = {}
        flatten_numeric("", snap, derived)
        with self._lock:
            stats = ExecutionStats(
                total=self._batch_count,
                hits=self._batch_cache_hits,
                misses=self._batch_count - self._batch_cache_hits,
                wall_s=time.monotonic() - self._started_at,
                workers=1,
            )
        return RunReport(
            name=name, code_version=code_version(), stats=stats, tiles=[], derived=derived
        )

    def prometheus(self, prefix: str = "repro") -> str:
        """The current snapshot rendered as a Prometheus text exposition.

        Delegates to :func:`repro.telemetry.prometheus.service_exposition`
        (imported lazily to keep the metrics layer importable without the
        telemetry package at type-checking boundaries).
        """
        from repro.telemetry.prometheus import service_exposition

        return service_exposition(self.snapshot(), prefix=prefix)
