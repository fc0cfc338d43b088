"""Deterministic traffic record/replay with chaos-injection campaigns.

The fuzz subsystem validates the paper's claims on *curated* inputs;
this package validates them on *traffic*: record (or synthesize) a
stream of sort requests with logical-clock arrival times, replay it
byte-exactly against any service backend, and inject production-shaped
faults mid-replay while every response is held to the fuzz oracles —
sortedness, the CF zero-replay guarantee, the Theorem 8 excess ceiling,
cross-backend agreement.

* :mod:`repro.replay.log` — the versioned, content-addressed
  :class:`TrafficLog` artifact (inline payloads or workload specs);
* :mod:`repro.replay.models` — diurnal-wave, bursty-tenant, and
  adversarial-mix load models with arrival schedules;
* :mod:`repro.replay.recorder` — live :class:`TrafficRecorder` capture
  hooked into :class:`~repro.service.SortService`;
* :mod:`repro.replay.replayer` — the windowed logical-time replayer
  (double-run byte identity of responses, counters, and spans);
* :mod:`repro.replay.chaos` / :mod:`repro.replay.campaign` — the fault
  catalogue (worker crash, queue saturation, slow shard, deadline
  storm) and the campaign driver emitting the ``CHAOS_REPORT``;
* :mod:`repro.replay.stats` — process-wide counters folded into the
  service metrics snapshot (schema 4) and the Prometheus exposition.

CLI surface: ``python -m repro replay record|run|chaos`` (exit code 7 =
chaos campaign failed).  See ``docs/REPLAY.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.replay.campaign import raise_on_failure, run_campaign
    from repro.replay.chaos import FAULT_KINDS, FaultInjector, FaultSpec, default_fault_plan
    from repro.replay.log import (
        EVENT_WORKLOADS,
        FORMAT_VERSION,
        TrafficEvent,
        TrafficLog,
        load_log,
        log_digest,
        make_log,
        materialize,
        save_log,
    )
    from repro.replay.models import (
        LOAD_MODELS,
        adversarial_mix,
        build_load,
        bursty_tenants,
        diurnal_wave,
    )
    from repro.replay.recorder import TICKS_PER_SECOND, TrafficRecorder
    from repro.replay.replayer import (
        DEFAULT_ORACLES,
        ReplayConfig,
        replay_log,
        response_checks,
    )
    from repro.replay.stats import replay_stats, reset_replay_stats
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "FORMAT_VERSION",
    "EVENT_WORKLOADS",
    "TrafficEvent",
    "TrafficLog",
    "materialize",
    "log_digest",
    "make_log",
    "save_log",
    "load_log",
    "LOAD_MODELS",
    "build_load",
    "diurnal_wave",
    "bursty_tenants",
    "adversarial_mix",
    "TICKS_PER_SECOND",
    "TrafficRecorder",
    "DEFAULT_ORACLES",
    "ReplayConfig",
    "replay_log",
    "response_checks",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultInjector",
    "default_fault_plan",
    "run_campaign",
    "raise_on_failure",
    "replay_stats",
    "reset_replay_stats",
]
