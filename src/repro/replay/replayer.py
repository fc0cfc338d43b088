"""Deterministic replay of a traffic log against any service backend.

The replayer re-runs a :class:`~repro.replay.log.TrafficLog` on a pure
**logical clock**: events are grouped into fixed-width arrival windows,
each window flushes at its end tick, flushed requests are packed by the
service's own :func:`~repro.service.batching.plan_batches`, and each
batch's completion tick is computed from whole-tile occupancy on a
deterministic shard timeline.  No wall time enters anywhere, so the
same log replayed twice produces **byte-identical** responses, counters,
and tracer spans — the double-run identity CI pins with ``cmp``.

Every successful response is asserted against the fuzz oracle suite
(:data:`DEFAULT_ORACLES`): sortedness, the paper's CF zero-replay
guarantee (skipped for non-coprime geometries, exactly like
:mod:`repro.fuzz.oracles`), the Theorem 8 baseline excess ceiling, and
cross-backend agreement.  Chaos campaigns drive the same loop with a
fault injector (:mod:`repro.replay.chaos`) shaping admission, shard
latency, deadlines, and cluster-worker survival mid-replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np
import numpy.typing as npt

from repro.config import SortParams
from repro.engine.lane import profile_serial_merges
from repro.errors import ParameterError
from repro.fuzz.corpus import Geometry
from repro.fuzz.oracles import baseline_excess_bound
from repro.mergesort.pipeline import gpu_mergesort
from repro.replay.log import TrafficLog, materialize
from repro.replay.stats import REPLAY
from repro.runner.cache import ResultCache
from repro.service.backends import available_backends, get_backend
from repro.service.batching import BatchPolicy, plan_batches
from repro.service.jobs import run_batch
from repro.service.request import SortRequest
from repro.sim.counters import Counters
from repro.telemetry.spans import Tracer

if TYPE_CHECKING:
    from repro.replay.chaos import FaultInjector

__all__ = [
    "REPORT_FORMAT_VERSION",
    "DEFAULT_ORACLES",
    "ReplayConfig",
    "response_checks",
    "replay_log",
]

#: Bump when the replay-report JSON layout changes incompatibly.
REPORT_FORMAT_VERSION = 1

_REPORT_KIND = "repro.replay.report"

#: Per-response oracle checks, in evaluation order.
DEFAULT_ORACLES: tuple[str, ...] = (
    "sortedness",
    "zero_replay_cf",
    "baseline_bound",
    "backends_agree",
)

Array = npt.NDArray[np.int64]


@dataclass(frozen=True)
class ReplayConfig:
    """The replayer's knobs: backend override, batching, logical timing.

    Attributes
    ----------
    backend:
        Replay every request on this backend instead of the one the log
        recorded (``None`` keeps per-event backends) — how one recorded
        day of traffic validates ``cf-batched``, ``kway``,
        ``samplesort``, and ``cf-cluster`` alike.
    batch_tiles / batch_requests / shards:
        The :class:`~repro.service.batching.BatchPolicy` dimensions the
        replay plans with.  The replayer is a fixed logical-clock model:
        windows flush at their end tick and batch ``b`` runs on shard
        ``b mod shards``.  It no longer mirrors how the live service
        forms batches (idle shards pulling from the backlog), and these
        defaults stay fixed whatever the live policy's are.
    window_ticks:
        Arrival-window width on the logical clock; each window flushes
        at its end tick.
    oracles:
        Which per-response checks run (subset of
        :data:`DEFAULT_ORACLES`).
    """

    backend: str | None = None
    batch_tiles: int = 4
    batch_requests: int = 64
    shards: int = 2
    window_ticks: int = 4
    oracles: tuple[str, ...] = DEFAULT_ORACLES

    def __post_init__(self) -> None:
        """Validate knob domains and oracle names."""
        for name in ("batch_tiles", "batch_requests", "shards", "window_ticks"):
            if int(getattr(self, name)) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.backend is not None and self.backend not in available_backends():
            raise ParameterError(
                f"unknown replay backend {self.backend!r} "
                f"(one of {', '.join(available_backends())})"
            )
        for oracle in self.oracles:
            if oracle not in DEFAULT_ORACLES:
                raise ParameterError(
                    f"unknown replay oracle {oracle!r} "
                    f"(one of {', '.join(DEFAULT_ORACLES)})"
                )

    def as_dict(self) -> dict[str, Any]:
        """JSON form for replay reports."""
        return {
            "backend": self.backend,
            "batch_tiles": self.batch_tiles,
            "batch_requests": self.batch_requests,
            "shards": self.shards,
            "window_ticks": self.window_ticks,
            "oracles": list(self.oracles),
        }

    def policy(self) -> BatchPolicy:
        """The equivalent service batching policy (logical wait bound)."""
        return BatchPolicy(
            max_batch_tiles=self.batch_tiles,
            max_batch_requests=self.batch_requests,
            shards=self.shards,
        )


def _check(ok: bool, detail: str, skipped: bool = False) -> dict[str, Any]:
    """One check verdict in the fuzz oracles' ``ok/detail/skipped`` shape."""
    return {"ok": bool(ok), "detail": detail, "skipped": skipped}


def _skip(detail: str) -> dict[str, Any]:
    """A skipped (vacuously ok) check verdict."""
    return _check(True, detail, skipped=True)


def response_checks(
    payload: Array,
    output: Array,
    geometry: Geometry,
    oracles: tuple[str, ...] = DEFAULT_ORACLES,
) -> dict[str, dict[str, Any]]:
    """Assert the fuzz oracle suite on one replayed response.

    ``sortedness`` compares the served output against ``numpy.sort`` of
    the recorded payload.  ``zero_replay_cf`` re-sorts the payload
    through the CF pipeline and demands zero merge-phase replays — the
    paper's claim — skipping when ``gcd(E, w) != 1`` exactly as the fuzz
    invariant oracle does.  ``baseline_bound`` holds the payload to the
    Theorem 8 excess ceiling when its length forms whole warps of
    ``E``-element threads (skipped otherwise).  ``backends_agree`` sorts
    the payload through every registered backend, skipping those whose
    geometric preconditions reject it.
    """
    n = len(payload)
    w, E, u = geometry.w, geometry.E, geometry.u
    checks: dict[str, dict[str, Any]] = {}

    if "sortedness" in oracles:
        checks["sortedness"] = _check(
            bool(np.array_equal(output, np.sort(payload))),
            f"served output vs numpy.sort over n={n}",
        )

    if "zero_replay_cf" in oracles:
        if not geometry.coprime:
            checks["zero_replay_cf"] = _skip(
                f"gcd(E={E}, w={w}) != 1 — no zero-conflict guarantee"
            )
        else:
            replays = int(gpu_mergesort(payload, E, u, w, variant="cf").merge_replays)
            checks["zero_replay_cf"] = _check(
                replays == 0,
                f"CF merge-phase replays = {replays} (paper claim: 0)",
            )

    if "baseline_bound" in oracles:
        mergeable = n >= 2 and n % E == 0 and (n // E) % w == 0
        if not mergeable:
            checks["baseline_bound"] = _skip(
                f"n={n} does not form whole warps of E-element threads"
            )
        else:
            half = n // 2
            a, b = np.sort(payload[:half]), np.sort(payload[half:])
            u_merge = n // E
            try:
                ceiling = baseline_excess_bound(w, E, u_merge)
            except ParameterError as exc:
                checks["baseline_bound"] = _skip(
                    f"no §4 construction at u={u_merge}: {exc}"
                )
            else:
                excess = int(profile_serial_merges([(a, b)], E, w)[0].shared_excess)
                checks["baseline_bound"] = _check(
                    excess <= ceiling,
                    f"baseline merge excess {excess} <= ceiling {ceiling}",
                )

    if "backends_agree" in oracles:
        params = SortParams(E, u)
        expected = np.sort(payload)
        wrong: list[str] = []
        skipped: list[str] = []
        for name in available_backends():
            try:
                outcome = get_backend(name)(payload, [0], params, w)
            except ParameterError:
                skipped.append(name)
                continue
            if not np.array_equal(outcome.data, expected):
                wrong.append(name)
        checks["backends_agree"] = _check(
            not wrong,
            f"{len(available_backends())} backends over n={n}"
            + (f"; skipped: {', '.join(skipped)}" if skipped else "")
            + (f"; wrong: {', '.join(wrong)}" if wrong else ""),
        )

    return checks


def _data_digest(values: Array) -> str:
    """Short content address of one response payload."""
    return hashlib.sha256(
        np.ascontiguousarray(values).astype("<i8").tobytes()
    ).hexdigest()[:16]


def _serialize_spans(tracer: Tracer) -> list[dict[str, Any]]:
    """Tracer spans flattened depth-first into JSON records."""
    return [
        {
            "name": span.name,
            "category": span.category,
            "tid": span.tid,
            "start": span.start,
            "end": span.end,
            "args": dict(span.args),
        }
        for span in tracer.spans()
    ]


def replay_log(
    log: TrafficLog,
    config: ReplayConfig | None = None,
    chaos: "FaultInjector | None" = None,
    tracer: Tracer | None = None,
    cache: ResultCache | None = None,
) -> dict[str, Any]:
    """Replay a traffic log deterministically; returns the replay report.

    The logical-time model: window ``k`` spans arrival ticks
    ``[k*W, (k+1)*W)`` and flushes at ``(k+1)*W``.  Flushed requests are
    packed by the service's batching planner (batch ids continue across
    windows); each batch runs on shard ``batch_id mod shards`` starting
    at ``max(flush_tick, shard_free)``, occupying ``padded_tiles *
    skew`` ticks.  Requests whose deadline passes before their flush are
    expired unexecuted; requests whose batch completes past the deadline
    expire after execution — both mirror the live scheduler's two expiry
    points.  An installed ``chaos`` injector shapes admission capacity,
    shard skew, and deadlines per window, and may crash cluster workers
    under the executing batch.

    The returned report is a pure function of ``(log, config, chaos
    plan)``: responses (status, oracle checks, output digest), batch
    timeline, aggregated simulator counters, serialized spans, and a
    content digest over all of it.  Spans are embedded only when the
    replayer owns its tracer (``tracer=None``); an external tracer may
    carry unrelated spans, which would break the report's determinism.
    """
    config = config or ReplayConfig()
    own_tracer = tracer is None
    tracer = tracer if tracer is not None else Tracer(enabled=True)
    geometry = log.geometry
    params = SortParams(geometry.E, geometry.u)
    policy = config.policy()
    tile = params.tile_elements

    if chaos is not None:
        chaos.attach()
    try:
        report = _replay_loop(log, config, chaos, tracer, cache, geometry, params, policy, tile)
    finally:
        if chaos is not None:
            chaos.detach()

    if own_tracer:
        report["spans"] = _serialize_spans(tracer)
    else:
        report["spans"] = []
    body = {k: v for k, v in report.items()}
    report["digest"] = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()[:16]
    return report


def _replay_loop(
    log: TrafficLog,
    config: ReplayConfig,
    chaos: "FaultInjector | None",
    tracer: Tracer,
    cache: ResultCache | None,
    geometry: Geometry,
    params: SortParams,
    policy: BatchPolicy,
    tile: int,
) -> dict[str, Any]:
    """The windowed replay loop (split out so the digest wraps cleanly)."""
    W = config.window_ticks
    events = sorted(
        enumerate(log.events), key=lambda pair: (pair[1].arrival_tick, pair[0])
    )
    payloads: dict[int, Array] = {}
    responses: dict[int, dict[str, Any]] = {}
    batches_out: list[dict[str, Any]] = []
    counters = Counters()
    launches = 0
    shard_free = [0] * config.shards
    next_batch_id = 0
    n_ok = n_shed = n_expired = 0
    total_checks = 0
    oracle_failures: list[str] = []

    last_tick = events[-1][1].arrival_tick if events else 0
    n_windows = last_tick // W + 1
    cursor = 0

    with tracer.span(
        "replay.run",
        category="replay",
        args={"model": log.model, "events": len(events), "windows": n_windows},
    ):
        for window in range(n_windows):
            flush_tick = (window + 1) * W
            arrivals: list[tuple[int, Any]] = []
            while cursor < len(events) and events[cursor][1].arrival_tick < flush_tick:
                arrivals.append(events[cursor])
                cursor += 1
            if not arrivals:
                continue

            cap = chaos.admit_cap(window) if chaos is not None else None
            deadline_override = (
                chaos.deadline_override(window) if chaos is not None else None
            )

            live: list[SortRequest] = []
            deadlines: dict[int, int | None] = {}
            admitted = 0
            for index, event in arrivals:
                if cap is not None and admitted >= cap:
                    chaos.note("queue_saturation")  # type: ignore[union-attr]
                    responses[index] = {
                        "request_id": index,
                        "tenant": event.tenant,
                        "status": "shed",
                        "error": "QueueFullError",
                    }
                    n_shed += 1
                    continue
                admitted += 1
                deadline = event.deadline_ticks
                if deadline_override is not None:
                    deadline = deadline_override
                    chaos.note("deadline_storm")  # type: ignore[union-attr]
                expires_at = (
                    None if deadline is None else event.arrival_tick + deadline
                )
                if expires_at is not None and expires_at <= flush_tick:
                    responses[index] = {
                        "request_id": index,
                        "tenant": event.tenant,
                        "status": "expired",
                        "error": "DeadlineExceededError",
                    }
                    n_expired += 1
                    continue
                payload = materialize(event, geometry)
                payloads[index] = payload
                deadlines[index] = expires_at
                live.append(
                    SortRequest(
                        request_id=index,
                        data=payload,
                        backend=config.backend or event.backend,
                        kind=event.kind,
                    )
                )

            planned = plan_batches(live, policy, params, first_batch_id=next_batch_id)
            if planned:
                next_batch_id = planned[-1].batch_id + 1
            for batch in planned:
                shard = batch.shard_for(config.shards)
                skew = chaos.shard_skew(window, shard) if chaos is not None else 1
                start = max(flush_tick, shard_free[shard])
                padded_tiles = max(1, (batch.elements + tile - 1) // tile)
                complete = start + padded_tiles * skew
                shard_free[shard] = complete
                with tracer.span(
                    "replay.batch",
                    category="replay",
                    tid=1 + shard,
                    args={
                        "batch_id": batch.batch_id,
                        "backend": batch.backend,
                        "shard": shard,
                        "start_tick": start,
                        "complete_tick": complete,
                        "requests": len(batch.requests),
                    },
                ):
                    outcome, _ = run_batch(batch, params, geometry.w, cache=cache)
                counters.merge(outcome.counters)
                launches += outcome.launches
                batches_out.append(
                    {
                        "batch_id": batch.batch_id,
                        "backend": batch.backend,
                        "shard": shard,
                        "start_tick": start,
                        "complete_tick": complete,
                        "requests": len(batch.requests),
                        "elements": batch.elements,
                    }
                )
                for request, offset in zip(batch.requests, batch.offsets):
                    index = request.request_id
                    expires_at = deadlines[index]
                    if expires_at is not None and complete > expires_at:
                        responses[index] = {
                            "request_id": index,
                            "tenant": log.events[index].tenant,
                            "status": "expired",
                            "error": "DeadlineExceededError",
                            "batch_id": batch.batch_id,
                            "shard": shard,
                        }
                        n_expired += 1
                        continue
                    output = outcome.data[offset : offset + request.elements]
                    checks = response_checks(
                        payloads[index], output, geometry, config.oracles
                    )
                    total_checks += len(checks)
                    for name, verdict in checks.items():
                        if not verdict["ok"]:
                            oracle_failures.append(f"{index}:{name}")
                    responses[index] = {
                        "request_id": index,
                        "tenant": log.events[index].tenant,
                        "status": "ok",
                        "error": None,
                        "batch_id": batch.batch_id,
                        "shard": shard,
                        "complete_tick": complete,
                        "replays": int(outcome.counters.shared_replays),
                        "data_digest": _data_digest(np.asarray(output)),
                        "checks": checks,
                    }
                    n_ok += 1

    oracle_failures.sort()
    REPLAY.add(
        replays_run=1,
        requests_replayed=len(events),
        responses_ok=n_ok,
        responses_shed=n_shed,
        responses_expired=n_expired,
        oracle_checks=total_checks,
        oracle_failures=len(oracle_failures),
    )
    return {
        "format": REPORT_FORMAT_VERSION,
        "kind": _REPORT_KIND,
        "log_digest": log.digest,
        "model": log.model,
        "geometry": geometry.as_dict(),
        "config": config.as_dict(),
        "chaos": None if chaos is None else chaos.plan_dict(),
        "responses": [responses[i] for i in sorted(responses)],
        "batches": batches_out,
        "counters": counters.as_dict(),
        "launches": launches,
        "ok": n_ok,
        "shed": n_shed,
        "expired": n_expired,
        "oracle_failures": oracle_failures,
    }
