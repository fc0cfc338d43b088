"""Prometheus text-format exposition and periodic snapshot files.

:func:`render_exposition` turns a flat ``name -> value`` metric mapping
into the Prometheus text exposition format (``# HELP`` / ``# TYPE`` /
sample lines); :func:`service_exposition` applies it to a
:class:`~repro.service.metrics.ServiceMetrics` snapshot (every numeric
leaf becomes one ``repro_``-prefixed sample).  :class:`SnapshotWriter`
writes numbered ``.prom`` snapshot files so a scrape-less deployment (or
a CI run) still leaves a metrics trail on disk.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Mapping

from repro.telemetry.stats import flatten_numeric

__all__ = [
    "sanitize_metric_name",
    "render_exposition",
    "service_exposition",
    "SnapshotWriter",
]

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Dotted-path prefixes whose metrics are monotonically increasing and
#: therefore exposed with ``# TYPE ... counter``; everything else is a
#: gauge.
COUNTER_PREFIXES = (
    "counters.",
    "requests.submitted",
    "requests.completed",
    "requests.shed",
    "requests.expired",
    "requests.failed",
    "batches.count",
    "batches.elements",
    "batches.padded_elements",
    "batches.cache_hits",
    "engine.plan_cache.hits",
    "engine.plan_cache.misses",
    "engine.plan_cache.evictions",
    "engine.arena.checkouts",
    "engine.arena.reuse_hits",
    "engine.arena.releases",
    "engine.arena.discards",
    "engine.fusion.round_calls",
    "engine.fusion.round_many_calls",
    "engine.fusion.rounds_folded",
    "engine.fusion.stage_passes",
    "engine.fusion.stage_rounds_folded",
    "engine.fusion.fused_blocksorts",
    "engine.fusion.fallback_blocksorts",
    "engine.fusion.fused_merges",
    "engine.fusion.fallback_merges",
    "engine.fusion.fused_searches",
    "engine.fusion.fallback_searches",
    "cluster.tasks_executed",
    "cluster.tasks_inline",
    "cluster.tasks_process",
    "cluster.shm_bytes_shared",
    "cluster.plans_built",
    "cluster.plan_cache_hits",
    "cluster.runs_written",
    "cluster.keys_spilled",
    "cluster.bytes_spilled",
    "cluster.keys_read_back",
    "cluster.bytes_read_back",
    "cluster.merge_rounds",
    "cluster.worker_restarts",
    "replay.logs_recorded",
    "replay.events_recorded",
    "replay.replays_run",
    "replay.requests_replayed",
    "replay.responses_ok",
    "replay.responses_shed",
    "replay.responses_expired",
    "replay.oracle_checks",
    "replay.oracle_failures",
    "replay.faults_injected",
    "replay.campaigns_run",
    "replay.campaigns_failed",
)


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted metric path onto a valid Prometheus metric name."""
    flat = _INVALID.sub("_", name.replace(".", "_"))
    flat = flat.strip("_")
    if not flat:
        flat = "metric"
    if flat[0].isdigit():
        flat = f"_{flat}"
    return f"{prefix}_{flat}" if prefix else flat


def _metric_type(path: str) -> str:
    return (
        "counter"
        if any(path.startswith(p) for p in COUNTER_PREFIXES)
        else "gauge"
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def render_exposition(
    metrics: Mapping[str, float],
    prefix: str = "repro",
    help_text: Mapping[str, str] | None = None,
) -> str:
    """Render ``metrics`` in the Prometheus text exposition format.

    Metric names are sanitized dotted paths; each sample is preceded by
    its ``# HELP`` and ``# TYPE`` lines.  Output order is sorted by the
    original path, so expositions are deterministic artifacts.
    """
    helps = dict(help_text or {})
    lines: list[str] = []
    for path in sorted(metrics):
        name = sanitize_metric_name(path, prefix=prefix)
        doc = helps.get(path, f"repro metric {path}")
        lines.append(f"# HELP {name} {doc}")
        lines.append(f"# TYPE {name} {_metric_type(path)}")
        lines.append(f"{name} {_format_value(float(metrics[path]))}")
    return "\n".join(lines) + ("\n" if lines else "")


def service_exposition(snapshot: Mapping[str, Any], prefix: str = "repro") -> str:
    """Prometheus exposition of a service metrics snapshot.

    Flattens the snapshot's numeric leaves with the same helper the
    RunReport export uses, so dashboard names match artifact names
    (``requests.latency_s.p95`` -> ``repro_requests_latency_s_p95``).
    """
    flat: dict[str, float] = {}
    flatten_numeric("", dict(snapshot), flat)
    return render_exposition(flat, prefix=prefix)


class SnapshotWriter:
    """Writes numbered Prometheus snapshot files into one directory.

    Each call to :meth:`write` lands ``<stem>-NNNNNN.prom``; the ordinal
    is the writer's own count, so file names are deterministic per run
    regardless of wall time.
    """

    def __init__(self, directory: Path | str, stem: str = "metrics") -> None:
        self.directory = Path(directory)
        self.stem = stem
        self._count = 0

    @property
    def count(self) -> int:
        """Snapshots written so far."""
        return self._count

    def write(self, exposition: str) -> Path:
        """Write one snapshot file; returns its path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._count += 1
        path = self.directory / f"{self.stem}-{self._count:06d}.prom"
        path.write_text(exposition)
        return path
