"""The in-process batch sorting service and its synchronous client.

:class:`SortService` wires the subsystem together: a bounded admission
gate (in-flight request slots — the backpressure contract), the
work-conserving :class:`~repro.service.scheduler.BatchScheduler` whose
shard threads execute each batch with one backend call
(:func:`~repro.service.jobs.run_batch`; through the :mod:`repro.runner`
executor only when a ``ResultCache`` is given), and one
:class:`~repro.service.metrics.ServiceMetrics` accumulator.

:class:`Client` is the ergonomic synchronous surface: ``sort`` one
array, or ``submit_many`` a whole workload and collect per-request
:class:`~repro.service.request.SortResult` records.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt

from repro.config import SortParams
from repro.errors import QueueFullError, ServiceError
from repro.service.batching import BatchPolicy, MicroBatch
from repro.service.jobs import run_batch
from repro.service.metrics import BatchRecord, ServiceMetrics
from repro.service.request import SortRequest, SortResult
from repro.service.scheduler import BatchScheduler, PendingRequest
from repro.telemetry.spans import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.replay.recorder import TrafficRecorder
    from repro.runner.cache import ResultCache

__all__ = ["ResultTicket", "SortService", "Client"]

_LOG = logging.getLogger(__name__)

#: Default sort geometry: small enough that one simulated tile is fast,
#: large enough that micro-batching has headroom (tile = u*E = 160).
DEFAULT_PARAMS = SortParams(E=5, u=32)
DEFAULT_W = 8


class ResultTicket:
    """A claim check for one submitted request."""

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self._done = threading.Event()
        self._result: SortResult | None = None

    def _complete(self, result: SortResult) -> None:
        self._result = result
        self._done.set()

    def done(self) -> bool:
        """Whether the result is available."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> SortResult:
        """Block until the result arrives (or raise ``ServiceError``).

        The returned :class:`~repro.service.request.SortResult` may still
        carry an ``error`` (e.g. an expired deadline) — call its
        :meth:`~repro.service.request.SortResult.raise_if_failed` for
        exception-style handling.
        """
        if not self._done.wait(timeout):
            raise ServiceError(
                f"request {self.request_id}: no result within {timeout}s"
            )
        assert self._result is not None
        return self._result


class _Tracked:
    """Internal pairing of a pending request with its ticket."""

    def __init__(self, pending: PendingRequest, ticket: ResultTicket) -> None:
        self.pending = pending
        self.ticket = ticket


class SortService:
    """The in-process micro-batching sort service."""

    def __init__(
        self,
        params: SortParams = DEFAULT_PARAMS,
        w: int = DEFAULT_W,
        policy: BatchPolicy | None = None,
        cache: ResultCache | None = None,
        tracer: Tracer | None = None,
        recorder: "TrafficRecorder | None" = None,
    ) -> None:
        self.params = params
        self.w = w
        self.policy = policy or BatchPolicy()
        self._cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional traffic recorder; every admitted request is captured
        #: as one replayable event (:mod:`repro.replay.recorder`).
        self.recorder = recorder
        self.metrics = ServiceMetrics(
            params, w, queue_capacity=self.policy.queue_capacity
        )
        self._slots = threading.BoundedSemaphore(self.policy.queue_capacity)
        self._in_flight = 0
        self._state_lock = threading.Lock()
        self._tracked: dict[int, _Tracked] = {}
        self._next_request_id = 0
        self._closed = False
        self._scheduler = BatchScheduler(
            self.policy,
            params,
            on_batch=self._execute_batch,
            on_expired=self._expire,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------ admission

    def submit(
        self,
        data: npt.NDArray[np.int64],
        backend: str = "cf",
        deadline_s: float | None = None,
        block: bool = False,
        timeout: float | None = None,
        kind: str = "flat",
    ) -> ResultTicket:
        """Admit one sort request; returns a :class:`ResultTicket`.

        Admission is gated by ``queue_capacity`` in-flight slots.  With
        ``block=False`` (load-shedding) a full service raises
        :class:`~repro.errors.QueueFullError` immediately; with
        ``block=True`` (backpressure) the call waits up to ``timeout``
        seconds for a slot before raising the same error.  ``kind`` tags
        the request (``"flat"`` or ``"columns"``, see
        :data:`repro.service.request.REQUEST_KINDS`).  A submit that
        races :meth:`close` past admission raises
        :class:`~repro.errors.ServiceError` and gives its slot back.
        """
        if self._closed:
            raise ServiceError("service is closed")
        acquired = (
            self._slots.acquire(timeout=timeout) if block
            else self._slots.acquire(blocking=False)
        )
        if not acquired:
            self.metrics.record_shed()
            raise QueueFullError(
                f"admission queue full ({self.policy.queue_capacity} in flight)"
            )
        try:
            with self._state_lock:
                request_id = self._next_request_id
                self._next_request_id += 1
                request = SortRequest(
                    request_id=request_id,
                    data=data,
                    backend=backend,
                    deadline_s=deadline_s,
                    kind=kind,
                )
                now = time.monotonic()
                pending = PendingRequest(
                    request=request,
                    submitted_at=now,
                    deadline_at=None if deadline_s is None else now + deadline_s,
                )
                ticket = ResultTicket(request_id)
                self._tracked[request_id] = _Tracked(pending, ticket)
                self._in_flight += 1
                depth = self._in_flight
        except BaseException:
            self._slots.release()
            raise
        with self.tracer.span(
            "service.submit",
            category="service",
            args={
                "request_id": request_id,
                "backend": backend,
                "kind": kind,
                "depth": depth,
            },
        ):
            if self.recorder is not None:
                self.recorder.record(request)
            queued = self._scheduler.enqueue(pending)
        if not queued:
            with self._state_lock:
                del self._tracked[request_id]
                self._in_flight -= 1
            self._slots.release()
            raise ServiceError("service is closed")
        self.metrics.record_admitted(depth)
        return ticket

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet completed/expired."""
        with self._state_lock:
            return self._in_flight

    # ----------------------------------------------------------- completion

    def _finish(self, result: SortResult) -> None:
        """Complete one tracked request: ticket, metrics, slot release."""
        with self._state_lock:
            tracked = self._tracked.pop(result.request_id, None)
            if tracked is None:
                return
            self._in_flight -= 1
        self.metrics.record_result(result)
        tracked.ticket._complete(result)
        self._slots.release()

    def _expire(self, pending: PendingRequest, taken_at: float) -> None:
        """Deadline-expiry path: complete with ``DeadlineExceededError``."""
        self._finish(
            SortResult(
                request_id=pending.request.request_id,
                backend=pending.request.backend,
                wait_s=taken_at - pending.submitted_at,
                error="DeadlineExceededError",
            )
        )

    def _execute_batch(
        self,
        batch: MicroBatch,
        members: list[PendingRequest],
        taken_at: float,
        shard: int,
    ) -> None:
        """Shard callback: run one batch and fan its results out."""
        started = time.monotonic()
        try:
            with self.tracer.span(
                "service.batch",
                category="service",
                tid=1 + shard,
                args={
                    "batch_id": batch.batch_id,
                    "backend": batch.backend,
                    "shard": shard,
                    "requests": len(members),
                },
            ):
                outcome, stats = run_batch(batch, self.params, self.w, cache=self._cache)
        except Exception:
            # A failing backend fails its own requests, not the shard:
            # completing them releases their admission slots.
            _LOG.exception(
                "batch %d on backend %r failed", batch.batch_id, batch.backend
            )
            service_s = time.monotonic() - started
            for pending in members:
                self._finish(
                    SortResult(
                        request_id=pending.request.request_id,
                        backend=batch.backend,
                        batch_id=batch.batch_id,
                        shard=shard,
                        wait_s=taken_at - pending.submitted_at,
                        service_s=service_s,
                        error="ServiceError",
                    )
                )
            return
        service_s = time.monotonic() - started
        tile = self.params.tile_elements
        elements = batch.elements
        padded = ((elements + tile - 1) // tile) * tile if elements else 0
        self.metrics.record_batch(
            BatchRecord(
                batch_id=batch.batch_id,
                backend=batch.backend,
                shard=shard,
                requests=len(members),
                elements=elements,
                padded_elements=padded,
                service_s=service_s,
                replays=outcome.counters.shared_replays,
                cache_hits=stats.hits,
            ),
            outcome.counters,
        )
        for pending, offset in zip(members, batch.offsets):
            request = pending.request
            self._finish(
                SortResult(
                    request_id=request.request_id,
                    backend=batch.backend,
                    data=outcome.data[offset : offset + request.elements].copy(),
                    batch_id=batch.batch_id,
                    shard=shard,
                    wait_s=taken_at - pending.submitted_at,
                    service_s=service_s,
                    batch_replays=outcome.counters.shared_replays,
                )
            )

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Drain: refuse new requests, finish every queued one, stop threads."""
        if self._closed:
            return
        self._closed = True
        self._scheduler.close()

    def __enter__(self) -> "SortService":
        """Context-manager entry: the service is already running."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: drain and stop."""
        self.close()


class Client:
    """Synchronous convenience API over a :class:`SortService`."""

    def __init__(self, service: SortService | None = None, **service_kwargs: object) -> None:
        self._owns = service is None
        if service is None:
            service = SortService(**service_kwargs)  # type: ignore[arg-type]
        self.service = service

    def sort(
        self,
        data: npt.NDArray[np.int64],
        backend: str = "cf",
        deadline_s: float | None = None,
        timeout: float | None = 60.0,
    ) -> npt.NDArray[np.int64]:
        """Sort one array through the service; raises on any failure."""
        ticket = self.service.submit(
            data, backend=backend, deadline_s=deadline_s, block=True, timeout=timeout
        )
        result = ticket.result(timeout)
        result.raise_if_failed()
        return result.data

    def submit_many(
        self,
        arrays: Sequence[npt.NDArray[np.int64]],
        backend: str = "cf",
        deadline_s: float | None = None,
        timeout: float | None = 120.0,
    ) -> list[SortResult]:
        """Submit a whole workload (backpressured) and collect every result.

        Results come back in submission order.  Individual failures
        (expired deadlines) are embedded in their
        :class:`~repro.service.request.SortResult` rather than raised, so
        one slow request cannot mask the rest of the batch.
        """
        tickets = [
            self.service.submit(
                arr, backend=backend, deadline_s=deadline_s, block=True, timeout=timeout
            )
            for arr in arrays
        ]
        return [t.result(timeout) for t in tickets]

    def metrics_snapshot(self) -> dict[str, object]:
        """The service's current metrics snapshot (JSON-serializable)."""
        return self.service.metrics.snapshot()

    def close(self) -> None:
        """Close the underlying service iff this client created it."""
        if self._owns:
            self.service.close()

    def __enter__(self) -> "Client":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close if owned."""
        self.close()
