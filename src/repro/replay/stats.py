"""Process-wide replay counters: logs, replays, oracle checks, faults.

Like the cluster and plan-cache layers, record/replay work happens
outside any single :class:`~repro.service.metrics.ServiceMetrics`
instance — the recorder hooks a live service, the replayer runs its own
logical clock — so the subsystem aggregates into one module-level
:class:`CounterSet` that the service metrics snapshot (schema 4) and the
Prometheus exposition read via :func:`replay_stats`.
"""

from __future__ import annotations

from repro.telemetry.stats import CounterSet

__all__ = ["REPLAY", "replay_stats", "reset_replay_stats"]

#: Logs finalized, replays run, response statuses, oracle checks,
#: injected faults and chaos campaigns.
REPLAY = CounterSet(
    "logs_recorded",
    "events_recorded",
    "replays_run",
    "requests_replayed",
    "responses_ok",
    "responses_shed",
    "responses_expired",
    "oracle_checks",
    "oracle_failures",
    "faults_injected",
    "campaigns_run",
    "campaigns_failed",
)


def replay_stats() -> dict[str, int]:
    """A copy of the process-wide replay counters (JSON-serializable)."""
    return REPLAY.snapshot()


def reset_replay_stats() -> None:
    """Zero every counter (test isolation hook)."""
    REPLAY.reset()
