"""Chaos campaigns: one control replay plus one replay per fault.

:func:`run_campaign` replays a traffic log once fault-free (the
control), then once per requested fault kind with that kind's plan
injected, and folds the outcomes into a deterministic ``CHAOS_REPORT``.
A fault **survives** when its replay raised no oracle failure — shed and
expired responses are *expected* degradation under saturation and
storms, but a single unsorted response, CF merge replay at a coprime
geometry, or Theorem 8 ceiling breach marks the injection **failed**.
The ``worker_crash`` fault forces the ``cf-cluster`` backend (the only
one that schedules cluster pool tasks) and additionally demands the
crashed-and-retried run stay byte-identical to the control's responses.

Failures surface to callers two ways: the report's ``failed`` list, and
:func:`raise_on_failure`, which the ``repro replay chaos`` CLI maps to
exit code 7 (:class:`~repro.errors.ChaosFailureError`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Any, Sequence

from repro.cluster.stats import cluster_stats
from repro.errors import ChaosFailureError, ParameterError
from repro.replay.chaos import FAULT_KINDS, FaultInjector, FaultSpec, default_fault_plan
from repro.replay.log import TrafficLog
from repro.replay.replayer import ReplayConfig, replay_log
from repro.replay.stats import REPLAY
from repro.runner.cache import ResultCache

__all__ = [
    "CHAOS_REPORT_FORMAT_VERSION",
    "run_campaign",
    "raise_on_failure",
]

#: Bump when the chaos-report JSON layout changes incompatibly.
CHAOS_REPORT_FORMAT_VERSION = 1

_REPORT_KIND = "repro.replay.chaos-report"


def _response_digests(report: dict[str, Any]) -> list[str | None]:
    """The per-request output digests of one replay (None when not ok)."""
    return [r.get("data_digest") for r in report["responses"]]


def _fault_verdict(
    kind: str,
    injector: FaultInjector,
    report: dict[str, Any],
    control: dict[str, Any],
    restarts: int,
) -> dict[str, Any]:
    """Judge one injected replay against the campaign's survival contract."""
    oracle_failures = list(report["oracle_failures"])
    mismatched_outputs = False
    if kind == "worker_crash":
        # Crash recovery must be *exact*: every response the faulted run
        # produced matches the control run's bytes, request for request.
        control_digests = dict(
            zip((r["request_id"] for r in control["responses"]), _response_digests(control))
        )
        for response in report["responses"]:
            expected = control_digests.get(response["request_id"])
            if response["status"] == "ok" and response.get("data_digest") != expected:
                mismatched_outputs = True
    injected = injector.injected_total()
    survived = bool(injected) and not oracle_failures and not mismatched_outputs
    return {
        "kind": kind,
        "injected": injected,
        "injections": dict(injector.injections),
        "ok": report["ok"],
        "shed": report["shed"],
        "expired": report["expired"],
        "worker_restarts": restarts,
        "oracle_failures": oracle_failures,
        "outputs_match_control": not mismatched_outputs,
        "survived": survived,
        "replay_digest": report["digest"],
    }


def run_campaign(
    log: TrafficLog,
    config: ReplayConfig | None = None,
    kinds: Sequence[str] = FAULT_KINDS,
    plans: dict[str, tuple[FaultSpec, ...]] | None = None,
    cache: ResultCache | None = None,
) -> dict[str, Any]:
    """Run one chaos campaign over ``log``; returns the ``CHAOS_REPORT``.

    ``kinds`` selects which fault kinds run (default: all four);
    ``plans`` optionally overrides the stock
    :func:`~repro.replay.chaos.default_fault_plan` per kind.  Every
    replay — control and faulted — asserts the full per-response oracle
    suite, so the report's ``failed`` list is the ground truth the CLI
    turns into exit code 7.
    """
    config = config or ReplayConfig()
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {kind!r} (one of {', '.join(FAULT_KINDS)})"
            )
    control = replay_log(log, config, cache=cache)
    verdicts: list[dict[str, Any]] = []
    for kind in kinds:
        plan = (plans or {}).get(kind) or default_fault_plan(kind)
        fault_config = config
        if kind == "worker_crash" and config.backend != "cf-cluster":
            fault_config = replace(config, backend="cf-cluster")
            fault_control = replay_log(log, fault_config, cache=cache)
        else:
            fault_control = control
        injector = FaultInjector(plan)
        restarts_before = cluster_stats()["worker_restarts"]
        report = replay_log(log, fault_config, chaos=injector, cache=cache)
        restarts = cluster_stats()["worker_restarts"] - restarts_before
        verdicts.append(_fault_verdict(kind, injector, report, fault_control, restarts))
    survived = [v["kind"] for v in verdicts if v["survived"]]
    failed = [v["kind"] for v in verdicts if not v["survived"]]
    REPLAY.add(campaigns_run=1, campaigns_failed=int(bool(failed)))
    body = {
        "format": CHAOS_REPORT_FORMAT_VERSION,
        "kind": _REPORT_KIND,
        "log_digest": log.digest,
        "model": log.model,
        "geometry": log.geometry.as_dict(),
        "config": config.as_dict(),
        "control": {
            "digest": control["digest"],
            "ok": control["ok"],
            "shed": control["shed"],
            "expired": control["expired"],
            "oracle_failures": list(control["oracle_failures"]),
        },
        "faults": verdicts,
        "survived": survived,
        "failed": failed,
    }
    body["digest"] = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()[:16]
    return body


def raise_on_failure(report: dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.ChaosFailureError` on a failed campaign.

    No-op when every injected fault survived (and the control replay was
    clean); the ``repro replay chaos`` CLI maps the raise to exit code 7.
    """
    failed = list(report.get("failed", []))
    if report.get("control", {}).get("oracle_failures"):
        failed.insert(0, "control")
    if failed:
        raise ChaosFailureError(
            f"chaos campaign failed: {', '.join(failed)} "
            f"(log {report.get('log_digest')})"
        )
