"""The benchmark's three workloads: inputs from the seed, then the timed phases.

Inputs come only from :mod:`repro.workloads` and are generated before any
clock starts; the program sees nothing but the generated arrays.  Each
workload's ``setup`` is what ``setup_s`` times in a fresh interpreter
(build the service, one warm-up pass that fills the plan cache), and
``measure`` runs the timed phases on what ``setup`` returned.  Why each
workload exists, and which layer metric should move which end-to-end
metric on it, is recorded in ``wallbench/WORKLOADS.md``.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import resource
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, ContextManager, Protocol

import numpy as np

from repro.cluster.stats import cluster_stats
from repro.config import RTX_2080_TI, SortParams
from repro.engine.arena import arena_stats
from repro.engine.plans import plan_cache_stats
from repro.errors import QueueFullError, ServiceError
from repro.perf.cost_model import CostModel
from repro.service.backends import get_backend
from repro.service.request import SortResult
from repro.service.service import SortService
from repro.sim.counters import Counters
from repro.workloads import adversarial, derive_stream_seed, request_lengths, uniform_random

import harness
from layers import BACKENDS, mergesort_seconds
from tracing import Recorder

#: Default service geometry: one tile is ``u * E = 160`` keys.
PARAMS = SortParams(E=5, u=32)
W = 8
TILE = PARAMS.tile_elements

#: Index spaces of :func:`derive_stream_seed`, one per input stream.
_OPEN, _BACKLOG, _WARMUP, _LONG = 1 << 32, 2 << 32, 3 << 32, 4 << 32

#: A run whose open-loop generator was this late at p50 or p99 is rejected.
#: Waits for the interpreter lock, which shard threads hold for up to the
#: 5 ms switch interval, stay under both.
GENERATOR_P50_LIMIT_S = 0.005
GENERATOR_P99_LIMIT_S = 0.05

#: Share of a service workload's run spent in the open-loop phase.
OPEN_SHARE = 0.5
#: Slices of a backlogged phase whose median keys/s is reported.
BACKLOG_WINDOWS = 10
#: Consecutive slices of the open-loop requests whose median p50 and tail are reported.
LATENCY_SLICES = 5
#: Untraced/traced pairs of backlog stretches a traced service run alternates.
TRACE_PAIRS = 4
#: Requests a backlogged generator cycles through.
BACKLOG_POOL = 2048

#: Seconds to wait for one request's result before counting it failed.
RESULT_TIMEOUT_S = 60.0


def stop_resource_tracker() -> None:
    """Stop this process's shared-memory resource tracker, if started, and wait for it.

    ``cf-cluster`` allocates ``multiprocessing.shared_memory`` blocks even
    inline, which starts a tracker process that would otherwise outlive
    this one.  Registered with :mod:`atexit`, so every way out of a run or
    a set-up probe stops it.
    """
    resource_tracker._resource_tracker._stop()


atexit.register(stop_resource_tracker)


@dataclass(frozen=True)
class Request:
    """One generated request: its payload and the backend it names."""

    backend: str
    data: np.ndarray


@dataclass
class Tally:
    """Failure accounting against the number attempted."""

    attempted: int = 0
    errors: int = 0
    shed: int = 0
    expired: int = 0
    mismatched: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.shed + self.expired + self.mismatched

    def check(self, payload: np.ndarray, data: np.ndarray | None, error: str | None) -> bool:
        """Count one request: ``data`` must equal ``np.sort(payload)``."""
        self.attempted += 1
        if error == "DeadlineExceededError":
            self.expired += 1
        elif error == "QueueFullError":
            self.shed += 1
        elif error is not None or data is None:
            self.errors += 1
        elif not np.array_equal(data, np.sort(payload)):
            self.mismatched += 1
        else:
            return True
        return False


@dataclass
class Outcome:
    """What one measured run produced."""

    #: End-to-end metrics of an untraced run, as ``name -> (value, unit)``.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Raw layer figures of a traced run, turned into metrics by :mod:`layers`.
    layer: dict[str, Any] = field(default_factory=dict)
    #: Human-readable context printed beside the metrics.
    notes: list[str] = field(default_factory=list)
    #: Machine-readable extras written to the results file.
    extra: dict[str, Any] = field(default_factory=dict)
    #: The run measured something other than what it claims (e.g. a late generator).
    rejected: str | None = None


class Workload(Protocol):
    """What ``run.py`` and ``probe_setup.py`` need from a workload."""

    name: str

    def setup(self, seed: int, tally: Tally) -> Any: ...

    def measure(
        self, state: Any, seed: int, seconds: float, tally: Tally, recorder: Recorder | None
    ) -> Outcome: ...

    def close(self, state: Any) -> None: ...


def _traced(recorder: Recorder | None, phase: str) -> ContextManager[None]:
    return recorder.recording(phase) if recorder is not None else contextlib.nullcontext()


def _sim_metrics(counters: Counters, keys: int, launches: int) -> dict[str, tuple[float, str]]:
    modeled = CostModel(RTX_2080_TI).estimate(counters, kernel_launches=max(launches, 1))
    return {
        "sim_replays_per_key": (counters.shared_replays / keys, "replays/key"),
        "sim_modeled_us_per_key": (modeled.total_us / keys, "us/key"),
    }


def _latency_metrics(latency_s: list[float], out: Outcome, slices: int = 1) -> None:
    """p50 and tail latency; with ``slices`` > 1, medians over consecutive slices."""
    tail = harness.sliced_tail(latency_s, slices)
    out.metrics["lat_p50_ms"] = (harness.sliced_median(latency_s, slices) * 1e3, "ms")
    out.metrics["lat_tail_ms"] = (tail.value * 1e3, "ms")
    per = f", median over {slices} slices of {len(latency_s) // slices}" if slices > 1 else ""
    out.notes.append(
        f"lat_tail_ms is p{tail.percentile:g} of {tail.samples} samples{per}"
        f" ({tail.beyond} beyond it{' per slice' if per else ''})"
    )
    out.extra["lat_tail"] = {
        "percentile": tail.percentile, "samples": tail.samples, "beyond": tail.beyond,
    }


def process_stats(service: SortService | None = None) -> dict[str, float]:
    """Cumulative engine, cluster and (with a service) batch counts; diff two."""
    plans, arena, cluster = plan_cache_stats(), arena_stats(), cluster_stats()
    out = {
        "plan_hits": plans["hits"], "plan_misses": plans["misses"],
        "arena_reuse": arena["reuse_hits"], "arena_checkouts": arena["checkouts"],
        "cluster_tasks": float(cluster["tasks_executed"]),
        "shm_bytes": float(cluster["shm_bytes_shared"]),
    }
    if service is not None:
        snap = service.metrics.snapshot()
        out["completed"] = float(snap["requests"]["completed"])
        for key in ("count", "elements", "padded_elements"):
            out[key] = float(snap["batches"][key])
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def _sum(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    return {k: a.get(k, 0.0) + b[k] for k in b}


def _counters_delta(after: Counters, before: Counters) -> Counters:
    out = Counters()
    for name, value in after.as_dict().items():
        setattr(out, name, value - getattr(before, name))
    return out


# --------------------------------------------------------------- service loads


class _Stamps:
    """Completion times per request id, taken where the service records results.

    Wraps the service's ``metrics.record_result`` (called once per finished
    request, just before its ticket completes), so latency runs to
    completion rather than to whenever the generator looks.  During a
    backlogged phase it also frees one slot of the generator's window.
    """

    def __init__(self, service: SortService) -> None:
        self.done_at: dict[int, float] = {}
        self.window: threading.Semaphore | None = None
        record = service.metrics.record_result

        def stamped(result: SortResult) -> None:
            self.done_at[result.request_id] = time.monotonic()
            window = self.window
            if window is not None:
                window.release()
            record(result)

        service.metrics.record_result = stamped  # type: ignore[method-assign]


@dataclass
class _Sent:
    """One submitted request and when it was due, started and admitted."""

    request: Request
    ticket: Any | None
    due: float
    started: float
    ended: float
    result: SortResult | None = None


def _collect(sent: list[_Sent], tally: Tally) -> list[_Sent]:
    """Wait for every ticket and check every output; return the good ones."""
    good = []
    for item in sent:
        if item.ticket is None:
            tally.check(item.request.data, None, "QueueFullError")
            continue
        try:
            item.result = item.ticket.result(RESULT_TIMEOUT_S)
        except ServiceError:
            tally.check(item.request.data, None, "ServiceError")
            continue
        if tally.check(item.request.data, item.result.data, item.result.error):
            good.append(item)
    return good


@dataclass
class ServeState:
    """A built, warmed service and its completion stamps."""

    service: SortService
    stamps: _Stamps


@dataclass(frozen=True)
class ServeLoad:
    """A ``SortService`` fed open-loop at ``rate_hz``, then backlogged."""

    name: str
    backends: tuple[str, ...]
    #: Every other request is the one-tile Section 4 adversary input.
    adversary: bool
    #: Open-loop arrival rate, about half the backlogged capacity.
    rate_hz: float
    #: Requests the backlogged generator keeps outstanding.
    depth: int

    def requests(self, seed: int, stream: int, count: int) -> list[Request]:
        """``count`` requests of one seeded stream, round-robin over backends."""
        lengths = request_lengths(count, 8, TILE, seed=derive_stream_seed(seed, stream))
        tile_attack = adversarial(1, PARAMS.E, PARAMS.u, W)
        out = []
        for j, n in enumerate(lengths):
            backend = self.backends[j % len(self.backends)]
            if self.adversary and j % 2:
                out.append(Request(backend, tile_attack))
            else:
                data = uniform_random(int(n), seed=derive_stream_seed(seed, stream + 1 + j))
                out.append(Request(backend, data))
        return out

    def setup(self, seed: int, tally: Tally) -> ServeState:
        """Build the service and run one checked warm-up pass."""
        service = SortService(PARAMS, W)
        state = ServeState(service, _Stamps(service))
        warm = self.requests(seed, _WARMUP, 64)
        sent = [
            _Sent(r, service.submit(r.data, backend=r.backend, block=True), 0.0, 0.0, 0.0)
            for r in warm
        ]
        _collect(sent, tally)
        return state

    def close(self, state: ServeState) -> None:
        state.service.close()

    def _open_loop(self, service: SortService, reqs: list[Request]) -> list[_Sent]:
        """Submit each request at its due time, never waiting for results."""
        sent = []
        t0 = time.monotonic() + 0.01
        for i, req in enumerate(reqs):
            due = t0 + i / self.rate_hz
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            started = time.monotonic()
            try:
                ticket = service.submit(req.data, backend=req.backend, block=False)
            except QueueFullError:
                ticket = None
            sent.append(_Sent(req, ticket, due, started, time.monotonic()))
        return sent

    def _backlog(
        self, state: ServeState, pool: list[Request], seconds: float, tally: Tally,
        windows: int = BACKLOG_WINDOWS,
    ) -> list[float]:
        """Keep ``depth`` requests outstanding for ``seconds``; return keys/s per slice.

        Keys completed per second in each of ``windows`` slices from 10% of
        the phase to its end: the initial fill and the final drain are left
        out.
        """
        service, stamps = state.service, state.stamps
        window = threading.Semaphore(self.depth)
        stamps.window = window
        sent = []
        t0 = time.monotonic()
        t_end = t0 + seconds
        try:
            while window.acquire(timeout=max(t_end - time.monotonic(), 0.0)):
                now = time.monotonic()
                if now >= t_end:
                    break
                req = pool[len(sent) % len(pool)]
                ticket = service.submit(
                    req.data, backend=req.backend, block=True, timeout=RESULT_TIMEOUT_S
                )
                sent.append(_Sent(req, ticket, now, now, time.monotonic()))
            good = _collect(sent, tally)
        finally:
            stamps.window = None
        completions = [(stamps.done_at[s.ticket.request_id], len(s.request.data)) for s in good]
        return harness.window_rates(completions, t0 + 0.1 * seconds, t_end, windows)

    def measure(
        self, state: ServeState, seed: int, seconds: float, tally: Tally,
        recorder: Recorder | None,
    ) -> Outcome:
        """Open-loop phase, then the backlogged phase; closes the service."""
        open_s = seconds * OPEN_SHARE
        opened = self.requests(seed, _OPEN, round(self.rate_hz * open_s))
        pool = self.requests(seed, _BACKLOG, BACKLOG_POOL)
        service, stamps = state.service, state.stamps
        out = Outcome()
        try:
            counters0 = service.metrics.counters
            stats0 = process_stats(service)
            with _traced(recorder, "open"):
                sent = self._open_loop(service, opened)
                good = _collect(sent, tally)
            # The service keeps every result it returns, so memory grows with
            # requests completed.  Sampled here, after a fixed request count,
            # a throughput gain in the backlogged phase cannot read as growth.
            rss_mb = peak_rss_mb()
            if recorder is None:
                rates = self._backlog(state, pool, seconds - open_s, tally)
                out.extra["window_keys_per_s"] = rates
                keys_per_s = harness.median(rates)
            else:
                # Traced run: short untraced and traced backlogs alternate, and
                # the median ratio of neighbours is the tracing overhead.
                stretch = (seconds - open_s) / (2 * TRACE_PAIRS)
                ratios = []
                backlog: dict[str, float] = {}
                for _ in range(TRACE_PAIRS):
                    (untraced,) = self._backlog(state, pool, stretch, tally, windows=1)
                    stats1 = process_stats(service)
                    with recorder.recording("backlog"):
                        (traced,) = self._backlog(state, pool, stretch, tally, windows=1)
                    backlog = _sum(backlog, _delta(process_stats(service), stats1))
                    ratios.append(traced / untraced)
            stats2 = process_stats(service)
            counters = _counters_delta(service.metrics.counters, counters0)
        finally:
            service.close()

        done = stamps.done_at
        latency = [done[s.ticket.request_id] - s.due for s in good]
        parts = harness.decompose(
            latency, [s.result.wait_s for s in good], [s.result.service_s for s in good]
        )
        late = harness.lateness([s.due for s in sent], [s.started for s in sent])
        late_p50, late_p99 = harness.median(late) * 1e3, harness.quantile(late, 0.99) * 1e3
        out.notes.append(
            f"gen.late_ms p50={late_p50:.3f} p99={late_p99:.3f} "
            f"({len(sent)} open-loop requests at {self.rate_hz:g}/s)"
        )
        out.notes.append(
            f"decomposition: p50 wait {parts.wait * 1e3:.3f} + exec {parts.exec * 1e3:.3f}"
            f" + dispatch {parts.dispatch * 1e3:.3f} ms = {parts.parts_over_latency:.3f}"
            f" x lat p50 {parts.latency * 1e3:.3f} ms"
        )
        out.extra.update(
            gen_late_ms={"p50": late_p50, "p99": late_p99},
            decomposition_over_p50=parts.parts_over_latency,
        )
        if harness.generator_behind(late, GENERATOR_P50_LIMIT_S, GENERATOR_P99_LIMIT_S):
            out.rejected = (
                f"open-loop generator fell behind: lateness p50 {late_p50:.1f} ms,"
                f" p99 {late_p99:.1f} ms (limits {GENERATOR_P50_LIMIT_S * 1e3:g},"
                f" {GENERATOR_P99_LIMIT_S * 1e3:g} ms)"
            )

        if recorder is None:
            out.metrics["keys_per_s"] = (keys_per_s, "keys/s")
            out.metrics["peak_rss_mb"] = (rss_mb, "MB")
            # In due-time order; failed requests miss every latency limit.
            ok = {id(s) for s in good}
            _latency_metrics(
                [done[s.ticket.request_id] - s.due if id(s) in ok else math.inf for s in sent],
                out, LATENCY_SLICES,
            )
            totals = _delta(stats2, stats0)
            out.metrics.update(
                _sim_metrics(counters, int(totals["elements"]), int(totals["count"]))
            )
            return out

        out.layer.update(
            submit_s=[s.ended - s.started for s in sent],
            # Per request: due, submit start, wait, exec, batch id, completion.
            requests=[
                (s.due, s.started, s.result.wait_s, s.result.service_s,
                 s.result.batch_id, done[s.ticket.request_id])
                for s in good
            ],
            decomposition=parts,
            backlog=backlog,
            counters=counters,
            keys_per_s_ratio=harness.median(ratios),
        )
        return out


# ------------------------------------------------------------------ sort-long


@dataclass
class _CallLog:
    """Per-call timings plus the first pass's exact counters."""

    call_s: list[float] = field(default_factory=list)
    #: Pool index of each call in ``call_s``, and whether it was traced.
    segment: list[int] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    #: Self time in ``repro.mergesort`` spans per call (0 for an untraced one).
    mergesort_s: list[float] = field(default_factory=list)
    first: Counters = field(default_factory=Counters)
    first_keys: int = 0
    first_launches: int = 0

    def least(self, values: list[float], traced: bool) -> dict[int, float]:
        """Min-of-k: each segment's least per-call ``values`` among traced or untraced calls.

        The host's speed changes from second to second when other tenants
        run; the fastest repetition of a segment drops that out.
        """
        out: dict[int, float] = {}
        for index, value, mode in zip(self.segment, values, self.traced):
            if mode == traced:
                out[index] = min(out.get(index, math.inf), value)
        return out

    def best(self, traced: bool = False) -> dict[int, float]:
        """Each segment's fastest call."""
        return self.least(self.call_s, traced)

    def best_keys_per_s(self, pool: list[Request], traced: bool = False) -> float:
        best = self.best(traced)
        return sum(len(pool[i].data) for i in best) / sum(best.values())


@dataclass(frozen=True)
class SortLong:
    """One caller making back-to-back direct backend calls on long segments."""

    name: str = "sort-long"
    backends: tuple[str, ...] = ("cf-batched", "baseline")

    def segments(self, seed: int) -> list[Request]:
        """16 segments of 161-2560 keys: random and adversary, interleaved.

        Lengths are fixed so every seed sorts the same amount of work:
        random segments sit mid-way in each 300-key stratum of 161-2560
        keys, adversary segments are 2, 4, 8 and 16 tiles.  Each backend
        sorts one adversary segment of each size; only the random values
        depend on the seed.
        """
        out = []
        for i, n_tiles in enumerate((2, 2, 4, 4, 8, 8, 16, 16)):
            backend = self.backends[i % 2]
            n = TILE + 150 + 300 * i
            out.append(Request(
                backend, uniform_random(n, seed=derive_stream_seed(seed, _LONG + i))
            ))
            out.append(Request(backend, adversarial(n_tiles, PARAMS.E, PARAMS.u, W)))
        return out

    def setup(self, seed: int, tally: Tally) -> None:
        """One checked call per backend on a two-tile adversary segment."""
        data = adversarial(2, PARAMS.E, PARAMS.u, W)
        for name in self.backends:
            outcome = get_backend(name)(data, [0], PARAMS, W)
            tally.check(data, outcome.data, None)

    def close(self, state: None) -> None:
        pass

    def _calls(
        self, pool: list[Request], seconds: float, tally: Tally, recorder: Recorder | None
    ) -> _CallLog:
        """Cycle through ``pool`` for ``seconds``, finishing at least one pass.

        Every later pass must reproduce the first pass's counters exactly;
        a difference counts the call as mismatched.  With a ``recorder``,
        every other call is traced, alternating per segment from pass to
        pass (at least two passes), so each segment has traced and untraced
        repetitions taken moments apart: the base of the tracing overhead.
        """
        run = _CallLog()
        first: dict[int, dict[str, int]] = {}
        passes = 1 if recorder is None else 2
        t_end = time.monotonic() + seconds
        k = 0
        while k < passes * len(pool) or time.monotonic() < t_end:
            index = k % len(pool)
            traced = recorder is not None and (k // len(pool) + index) % 2 == 0
            req = pool[index]
            k += 1
            first_span = len(recorder.spans) if recorder is not None else 0
            started = time.perf_counter()
            try:
                with _traced(recorder if traced else None, "calls"):
                    # Looked up inside, so a traced call gets the wrapped backend.
                    outcome = get_backend(req.backend)(req.data, [0], PARAMS, W)
            except Exception:  # a failing call is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                tally.check(req.data, None, "error")
                continue
            elapsed = time.perf_counter() - started
            run.call_s.append(elapsed)
            run.segment.append(index)
            run.traced.append(traced)
            run.mergesort_s.append(
                mergesort_seconds(recorder.spans[first_span:]) if traced else 0.0
            )
            counts = outcome.counters.as_dict()
            if k <= len(pool):
                first[index] = counts
                run.first.merge(outcome.counters)
                run.first_keys += len(req.data)
                run.first_launches += outcome.launches
            if tally.check(req.data, outcome.data, None) and counts != first.get(index, counts):
                tally.mismatched += 1
        return run

    def measure(
        self, state: None, seed: int, seconds: float, tally: Tally,
        recorder: Recorder | None,
    ) -> Outcome:
        pool = self.segments(seed)
        out = Outcome()
        if recorder is None:
            run = self._calls(pool, seconds, tally, None)
            best = run.best()
            out.metrics["keys_per_s"] = (run.best_keys_per_s(pool), "keys/s")
            _latency_metrics([best[i] for i in run.segment], out)
            out.metrics.update(_sim_metrics(run.first, run.first_keys, run.first_launches))
            # Memory does not grow with calls here: only per-call timings are kept.
            out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            out.extra.update(call_s=run.call_s, segment=run.segment)
            out.notes.append(
                f"{len(run.call_s)} calls; each call counted at its"
                " segment's fastest repetition"
            )
            return out
        stats0 = process_stats()
        run = self._calls(pool, seconds, tally, recorder)
        untraced = run.best(traced=False)
        own = run.least(run.mergesort_s, traced=True)
        out.layer.update(
            counters=run.first,
            mergesort_over_wall=sum(own[i] for i in untraced) / sum(untraced.values()),
            backlog=_delta(process_stats(), stats0),
            keys_per_s_ratio=(
                run.best_keys_per_s(pool, traced=True) / run.best_keys_per_s(pool, traced=False)
            ),
        )
        return out


WORKLOADS: dict[str, Workload] = {
    "serve-short": ServeLoad(
        "serve-short", backends=("cf-batched",), adversary=False, rate_hz=400.0, depth=256
    ),
    "sort-long": SortLong(),
    "serve-mixed": ServeLoad(
        "serve-mixed", backends=BACKENDS, adversary=True, rate_hz=35.0, depth=64
    ),
}
