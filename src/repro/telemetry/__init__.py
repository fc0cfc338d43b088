"""Unified observability: tracing, conflict profiling, metrics exposition.

The telemetry package is the read-side of the whole reproduction: it
never changes what the simulator, runner, or service compute — it
watches them and renders what happened in standard formats.

* :mod:`repro.telemetry.spans` — hierarchical span tracing on a
  deterministic logical clock (:class:`Tracer`, :data:`NULL_TRACER`);
* :mod:`repro.telemetry.chrome` — Chrome trace-event JSON export
  (Perfetto-loadable) for span trees and simulator access traces;
* :mod:`repro.telemetry.profiler` — per-bank / per-warp / per-phase
  conflict attribution of :class:`~repro.sim.trace.AccessTrace` rounds;
* :mod:`repro.telemetry.prometheus` — Prometheus text exposition and
  numbered on-disk metric snapshots for the service;
* :mod:`repro.telemetry.stats` — the shared nearest-rank percentile and
  metric-flattening helpers;
* :mod:`repro.telemetry.cli` — the ``repro trace`` / ``repro profile``
  verbs.

Tracing is off by default everywhere (the :data:`NULL_TRACER` no-op),
so instrumented hot paths run at seed-level performance unless a caller
passes a live :class:`Tracer`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.chrome import (
        access_trace_events,
        chrome_trace_payload,
        span_trace_events,
        write_chrome_trace,
    )
    from repro.telemetry.profiler import (
        PROFILE_TARGETS,
        ConflictProfile,
        ProfiledRun,
        profile_cf,
        profile_random,
        profile_worstcase,
    )
    from repro.telemetry.prometheus import (
        SnapshotWriter,
        render_exposition,
        sanitize_metric_name,
        service_exposition,
    )
    from repro.telemetry.spans import NULL_TRACER, Span, Tracer
    from repro.telemetry.stats import flatten_numeric, percentile, summarize
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "ConflictProfile",
    "ProfiledRun",
    "PROFILE_TARGETS",
    "profile_worstcase",
    "profile_random",
    "profile_cf",
    "span_trace_events",
    "access_trace_events",
    "chrome_trace_payload",
    "write_chrome_trace",
    "render_exposition",
    "service_exposition",
    "sanitize_metric_name",
    "SnapshotWriter",
    "percentile",
    "summarize",
    "flatten_numeric",
]
