"""Prometheus text-format exposition and periodic snapshot files.

:func:`render_exposition` turns a flat ``name -> value`` metric mapping
into the Prometheus text exposition format (``# HELP`` / ``# TYPE`` /
sample lines); :func:`service_exposition` applies it to a
:class:`~repro.service.metrics.ServiceMetrics` snapshot (every numeric
leaf becomes one ``repro_``-prefixed sample).  Which paths are counters
is declared, not guessed: :func:`render_exposition` takes them as an
argument, and :func:`service_exposition` reads
:func:`repro.service.metrics.counter_paths`; every other path is a
gauge.  :class:`SnapshotWriter` writes numbered ``.prom`` snapshot files
so a scrape-less deployment (or a CI run) still leaves a metrics trail
on disk.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import AbstractSet, Any, Mapping

from repro.telemetry.stats import flatten_numeric

__all__ = [
    "sanitize_metric_name",
    "render_exposition",
    "service_exposition",
    "SnapshotWriter",
]

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted metric path onto a valid Prometheus metric name."""
    flat = _INVALID.sub("_", name.replace(".", "_"))
    flat = flat.strip("_")
    if not flat:
        flat = "metric"
    if flat[0].isdigit():
        flat = f"_{flat}"
    return f"{prefix}_{flat}" if prefix else flat


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
    counters: AbstractSet[str] = frozenset(),
) -> str:
    """Render ``metrics`` in the Prometheus text exposition format.

    Metric names are sanitized dotted paths; each sample is preceded by
    its ``# HELP`` and ``# TYPE`` lines, typed ``counter`` when its path
    is in ``counters`` and ``gauge`` otherwise.  Output order is sorted
    by the original path, so expositions are deterministic artifacts.
    """
    helps = dict(help_text or {})
    lines: list[str] = []
    for path in sorted(metrics):
        name = sanitize_metric_name(path, prefix=prefix)
        doc = helps.get(path, f"repro metric {path}")
        lines.append(f"# HELP {name} {doc}")
        lines.append(f"# TYPE {name} {'counter' if path in counters else 'gauge'}")
        lines.append(f"{name} {_format_value(float(metrics[path]))}")
    return "\n".join(lines) + ("\n" if lines else "")


def service_exposition(snapshot: Mapping[str, Any], prefix: str = "repro") -> str:
    """Prometheus exposition of a service metrics snapshot.

    Flattens the snapshot's numeric leaves with the same helper the
    RunReport export uses, so dashboard names match artifact names
    (``requests.latency_s.p95`` -> ``repro_requests_latency_s_p95``),
    and types the :func:`repro.service.metrics.counter_paths` leaves
    as counters.
    """
    # Imported here: repro.service.metrics imports repro.telemetry.
    from repro.service.metrics import counter_paths

    flat: dict[str, float] = {}
    flatten_numeric("", dict(snapshot), flat)
    return render_exposition(flat, prefix=prefix, counters=counter_paths())


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
