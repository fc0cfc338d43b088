"""CLI verbs for the sort service: ``repro serve`` and ``repro submit``.

Both verbs drive the *threaded* service (admission gate, shard threads
pulling batches off the backlog) with a deterministic synthetic workload
from :mod:`repro.service.synthetic`:

* ``repro submit`` — closed-loop: admit ``--count`` requests under
  backpressure, wait for every result, verify each against
  ``numpy.sort``, and print the latency/batching summary.
* ``repro serve`` — open-loop smoke: feed the same workload in timed
  bursts, so batches form both from a backlog and from lone requests
  between bursts, then report; ``--selftest`` turns the report into
  assertions (everything sorted, non-zero batch fill) for CI.

Failure modes map to distinct exit codes (documented on the exception
classes in :mod:`repro.errors`): 0 ok, 1 verification failure, 3 queue
full, 4 deadline exceeded, 5 other service error.  The canonical table
covering every verb (including ``repro fuzz``'s 6 and ``repro
replay``'s 7) is :data:`EXIT_CODES`, rendered in ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import numpy.typing as npt

from repro.errors import (
    DeadlineExceededError,
    ParameterError,
    QueueFullError,
    ServiceError,
)
from repro.service.backends import available_backends
from repro.service.batching import BatchPolicy
from repro.service.request import SortResult
from repro.service.service import (
    DEFAULT_PARAMS,
    DEFAULT_W,
    Client,
    ResultTicket,
    SortService,
)
from repro.service.synthetic import synth_payloads

__all__ = ["run_serve", "run_submit", "EXIT_OK", "EXIT_FAILURE", "EXIT_CODES"]

#: Exit code for a fully verified run.
EXIT_OK = 0
#: Exit code for an unsorted / mismatched result (should never happen).
EXIT_FAILURE = 1

#: The canonical exit-code contract of the whole ``repro`` CLI, one row
#: per code.  ``docs/CLI.md`` renders this table verbatim and a test
#: asserts the two (and the ``exit_code`` attributes on the exception
#: classes in :mod:`repro.errors`) stay in lock-step.
EXIT_CODES: dict[int, str] = {
    0: "success — all requested work completed and verified",
    1: "verification failure (unsorted or mismatched output)",
    2: "bad parameters (ParameterError)",
    3: "admission queue full (QueueFullError)",
    4: "deadline exceeded (DeadlineExceededError)",
    5: "other service error (ServiceError)",
    6: "fuzzing found a counterexample (repro fuzz)",
    7: "chaos campaign failed (repro replay chaos, ChaosFailureError)",
}


def _policy_from(args: argparse.Namespace) -> BatchPolicy:
    """The batching policy the CLI flags describe."""
    return BatchPolicy(
        max_batch_tiles=args.batch_tiles,
        max_batch_requests=args.batch_requests,
        queue_capacity=args.queue_capacity,
        shards=args.shards,
    )


def _parse_backends(spec: str) -> tuple[str, ...]:
    """Validate a comma-separated backend list against the registry."""
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    if not names:
        raise ParameterError("need at least one backend")
    known = available_backends()
    for name in names:
        if name not in known:
            raise ParameterError(f"unknown backend {name!r} (one of {known})")
    return names


def _verify(
    payloads: list[npt.NDArray[np.int64]],
    results: list[SortResult],
) -> tuple[int, int, int]:
    """Count (ok, expired, mismatched) across paired payloads/results."""
    ok = expired = mismatched = 0
    for payload, result in zip(payloads, results):
        if result.error == "DeadlineExceededError":
            expired += 1
        elif not result.ok or not np.array_equal(result.data, np.sort(payload)):
            mismatched += 1
        else:
            ok += 1
    return ok, expired, mismatched


def _summary(service: SortService, ok: int, expired: int, mismatched: int) -> str:
    """Human-readable run summary from the service's metrics snapshot."""
    snap = service.metrics.snapshot()
    req = snap["requests"]
    bat = snap["batches"]
    queue = snap["queue"]
    modeled = snap["modeled"]
    lat = req["latency_s"]
    lines = [
        f"requests: {req['submitted']} submitted, {ok} verified ok, "
        f"{expired} expired, {mismatched} mismatched, {req['shed']} shed",
        f"latency:  mean {lat['mean'] * 1e3:.2f} ms, p50 {lat['p50'] * 1e3:.2f} ms, "
        f"p95 {lat['p95'] * 1e3:.2f} ms, max {lat['max'] * 1e3:.2f} ms",
        f"batches:  {bat['count']} "
        f"(fill ratio mean {bat['fill_ratio_mean']:.3f}, "
        f"min {bat['fill_ratio_min']:.3f}; "
        f"padding {bat['padding_fraction']:.3f}; "
        f"{bat['requests_per_batch_mean']:.1f} req/batch)",
        f"queue:    capacity {queue['capacity']}, "
        f"max depth {queue['max_depth']}, mean depth {queue['mean_depth']:.1f}",
        f"conflicts: {snap['counters'].get('shared_replays', 0)} shared replays; "
        f"modeled {modeled['us_per_request']:.1f} us/request",
    ]
    return "\n".join(lines)


def _write_metrics(service: SortService, path: str | None, name: str) -> str | None:
    """Write the RunReport-compatible metrics artifact, if requested."""
    if path is None:
        return None
    written = service.metrics.to_run_report(name=name).write(path)
    return str(written)


def _write_prometheus(service: SortService, path: str | None) -> str | None:
    """Write the final Prometheus text exposition, if requested."""
    if path is None:
        return None
    from pathlib import Path

    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(service.metrics.prometheus())
    return str(target)


def _exit_code(ok: int, expired: int, mismatched: int, shed: int) -> int:
    """Worst-failure-wins exit code for a finished run."""
    if mismatched:
        return EXIT_FAILURE
    if shed:
        return QueueFullError.exit_code
    if expired:
        return DeadlineExceededError.exit_code
    return EXIT_OK


def _apply_workers_procs(args: argparse.Namespace) -> None:
    """Point the cluster pool at ``--workers-procs`` worker processes.

    Applies to the ``cf-cluster`` backend's default pool; 0 (the default)
    keeps execution inline so ``serve``/``submit`` spawn nothing extra.
    """
    from repro.cluster.pool import set_default_procs

    set_default_procs(int(getattr(args, "workers_procs", 0) or 0))


def run_submit(args: argparse.Namespace) -> int:
    """Closed-loop blast: submit ``--count`` requests, verify every result."""
    _apply_workers_procs(args)
    params = DEFAULT_PARAMS
    backends = _parse_backends(args.backends)
    payloads = synth_payloads(
        args.count, args.min_elems, args.max_elems, args.mix,
        args.seed, params, DEFAULT_W,
    )
    shed = 0
    started = time.monotonic()
    with Client(service=SortService(params, DEFAULT_W, policy=_policy_from(args))) as client:
        tickets: list[ResultTicket] = []
        accepted: list[npt.NDArray[np.int64]] = []
        for index, payload in enumerate(payloads):
            try:
                tickets.append(
                    client.service.submit(
                        payload,
                        backend=backends[index % len(backends)],
                        deadline_s=args.deadline,
                        block=True,
                        timeout=args.timeout,
                    )
                )
                accepted.append(payload)
            except QueueFullError:
                shed += 1
        results = [t.result(args.timeout) for t in tickets]
        ok, expired, mismatched = _verify(accepted, results)
        wall = time.monotonic() - started
        print(
            f"submit: {args.count} requests ({args.mix}) over backends "
            f"{','.join(backends)} in {wall:.2f}s"
        )
        print(_summary(client.service, ok, expired, mismatched))
        artifact = _write_metrics(client.service, args.metrics_out, "service-submit")
        prom = _write_prometheus(client.service, args.prom_out)
    if artifact:
        print(f"wrote metrics artifact: {artifact}")
    if prom:
        print(f"wrote prometheus exposition: {prom}")
    return _exit_code(ok, expired, mismatched, shed)


def run_serve(args: argparse.Namespace) -> int:
    """Open-loop smoke: burst-feed the service, then report (``--selftest``)."""
    _apply_workers_procs(args)
    params = DEFAULT_PARAMS
    backends = _parse_backends(args.backends)
    payloads = synth_payloads(
        args.count, args.min_elems, args.max_elems, args.mix,
        args.seed, params, DEFAULT_W,
    )
    burst = max(1, args.burst)
    shed = 0
    snapshots = None
    if args.prom_snapshots:
        from repro.telemetry.prometheus import SnapshotWriter

        snapshots = SnapshotWriter(args.prom_snapshots)
    with Client(service=SortService(params, DEFAULT_W, policy=_policy_from(args))) as client:
        tickets: list[ResultTicket] = []
        accepted: list[npt.NDArray[np.int64]] = []
        for index, payload in enumerate(payloads):
            try:
                tickets.append(
                    client.service.submit(
                        payload,
                        backend=backends[index % len(backends)],
                        deadline_s=args.deadline,
                        block=False,
                    )
                )
                accepted.append(payload)
            except QueueFullError:
                shed += 1
            if (index + 1) % burst == 0:
                if snapshots is not None:
                    snapshots.write(client.service.metrics.prometheus())
                if args.burst_gap > 0:
                    # Let the shards drain the burst before the next one.
                    time.sleep(args.burst_gap)
        results = [t.result(args.timeout) for t in tickets]
        ok, expired, mismatched = _verify(accepted, results)
        snap = client.metrics_snapshot()
        print(
            f"serve: {args.count} offered ({args.mix}), "
            f"{len(tickets)} accepted, {shed} shed"
        )
        print(_summary(client.service, ok, expired, mismatched))
        artifact = _write_metrics(client.service, args.metrics_out, "service-serve")
        if snapshots is not None:
            snapshots.write(client.service.metrics.prometheus())
        prom = _write_prometheus(client.service, args.prom_out)
    if artifact:
        print(f"wrote metrics artifact: {artifact}")
    if snapshots is not None:
        print(f"wrote {snapshots.count} prometheus snapshots to {snapshots.directory}")
    if prom:
        print(f"wrote prometheus exposition: {prom}")
    if args.selftest:
        batches = snap["batches"]
        assert isinstance(batches, dict)
        problems = []
        if mismatched:
            problems.append(f"{mismatched} results came back unsorted")
        if ok == 0:
            problems.append("no request completed successfully")
        if batches["count"] and batches["fill_ratio_mean"] <= 0.0:
            problems.append("batch fill ratio is zero")
        if problems:
            for problem in problems:
                print(f"selftest FAIL: {problem}", file=sys.stderr)
            return EXIT_FAILURE
        print("selftest PASS: results sorted, batches filled")
    return _exit_code(ok, expired, mismatched, shed)


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the serve/submit flag group on the main CLI parser."""
    group = parser.add_argument_group("service (serve/submit)")
    policy = BatchPolicy()
    group.add_argument(
        "--count", type=int, default=200,
        help="(serve/submit) synthetic requests to issue (default 200)",
    )
    group.add_argument(
        "--mix", choices=("random", "adversarial", "mixed"), default="mixed",
        help="(serve/submit) workload mix (default mixed)",
    )
    group.add_argument(
        "--backends", default="cf",
        help="(serve/submit) comma-separated backends, round-robin (default cf)",
    )
    group.add_argument(
        "--min-elems", type=int, default=8, dest="min_elems",
        help="(serve/submit) smallest random request length (default 8)",
    )
    group.add_argument(
        "--max-elems", type=int, default=160, dest="max_elems",
        help="(serve/submit) largest random request length (default 160)",
    )
    group.add_argument(
        "--deadline", type=float, default=None,
        help="(serve/submit) per-request deadline in seconds (default none)",
    )
    group.add_argument(
        "--timeout", type=float, default=120.0,
        help="(serve/submit) client-side wait for each result (default 120s)",
    )
    group.add_argument(
        "--seed", type=int, default=0,
        help="(serve/submit) workload synthesis seed (default 0)",
    )
    group.add_argument(
        "--batch-tiles", type=int, default=policy.max_batch_tiles, dest="batch_tiles",
        help="(serve/submit) micro-batch capacity in whole u*E tiles "
        f"(default {policy.max_batch_tiles})",
    )
    group.add_argument(
        "--batch-requests", type=int, default=policy.max_batch_requests,
        dest="batch_requests",
        help="(serve/submit) micro-batch capacity in requests "
        f"(default {policy.max_batch_requests})",
    )
    group.add_argument(
        "--queue-capacity", type=int, default=policy.queue_capacity,
        dest="queue_capacity",
        help="(serve/submit) admission bound on in-flight requests "
        f"(default {policy.queue_capacity})",
    )
    group.add_argument(
        "--shards", type=int, default=policy.shards,
        help="(serve/submit) shard threads executing batches "
        f"(default {policy.shards})",
    )
    group.add_argument(
        "--workers-procs", type=int, default=0, dest="workers_procs",
        help="(serve/submit) cluster-pool processes for the cf-cluster "
        "backend (default 0 = inline, no extra processes)",
    )
    group.add_argument(
        "--burst", type=int, default=32,
        help="(serve) requests per open-loop burst (default 32)",
    )
    group.add_argument(
        "--burst-gap", type=float, default=0.02, dest="burst_gap",
        help="(serve) pause between bursts in seconds (default 0.02)",
    )
    group.add_argument(
        "--metrics-out", default=None, dest="metrics_out", metavar="PATH",
        help="(serve/submit) write the metrics RunReport artifact to PATH",
    )
    group.add_argument(
        "--prom-out", default=None, dest="prom_out", metavar="PATH",
        help="(serve/submit) write the final Prometheus text exposition to PATH",
    )
    group.add_argument(
        "--prom-snapshots", default=None, dest="prom_snapshots", metavar="DIR",
        help="(serve) write numbered Prometheus snapshots into DIR, one per burst",
    )
    group.add_argument(
        "--selftest", action="store_true",
        help="(serve) fail unless results are sorted and batches non-empty",
    )


def dispatch(args: argparse.Namespace) -> int:
    """Route a parsed ``serve``/``submit`` invocation; map errors to codes."""
    handler = run_serve if args.experiment == "serve" else run_submit
    try:
        return handler(args)
    except ParameterError as exc:
        print(f"{args.experiment}: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"{args.experiment}: {exc}", file=sys.stderr)
        return exc.exit_code
