"""The work-conserving scheduler: idle shards pull batches off the backlog.

``shards`` daemon threads wait on one :class:`threading.Condition`.  An
idle shard takes the backend of the oldest pending request and cuts the
first :func:`~repro.service.batching.plan_batches` batch from that
backend's queue, in admission order.  Nothing waits for a batch to fill:
a batch holds one request under light load and grows with the backlog,
up to ``max_batch_tiles`` whole tiles or ``max_batch_requests``.

Requests whose deadline already passed are expired (the ``on_expired``
callback) as the shard takes them, so a shard is never spent on a result
nobody is waiting for; the batch itself runs through ``on_batch`` on the
shard that took it.  :meth:`BatchScheduler.close` refuses new requests,
lets the shards drain everything already queued, and joins them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.config import SortParams
from repro.service.batching import BatchPolicy, MicroBatch, plan_batches
from repro.service.request import SortRequest
from repro.telemetry.spans import NULL_TRACER, Tracer

__all__ = ["PendingRequest", "BatchScheduler"]


@dataclass
class PendingRequest:
    """One admitted request waiting to be batched."""

    request: SortRequest
    #: ``time.monotonic()`` at admission.
    submitted_at: float
    #: Absolute monotonic deadline, or ``None`` for no deadline.
    deadline_at: float | None

    @property
    def expired(self) -> bool:
        """Whether the deadline has already passed."""
        return self.deadline_at is not None and time.monotonic() > self.deadline_at


#: Runs one batch: ``(batch, its pending requests in order, take time, shard)``.
BatchHandler = Callable[[MicroBatch, list[PendingRequest], float, int], None]


class BatchScheduler:
    """Per-backend admission queues drained by ``shards`` pulling threads.

    ``tracer`` (optional, default off) wraps each executed batch in a
    ``pool.work`` span on the shard's logical track.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        params: SortParams,
        on_batch: BatchHandler,
        on_expired: Callable[[PendingRequest, float], None],
        tracer: Tracer | None = None,
    ) -> None:
        self._policy = policy
        self._params = params
        self._on_batch = on_batch
        self._on_expired = on_expired
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._cond = threading.Condition()
        #: Pending requests per backend, in admission order; never empty.
        self._queues: dict[str, deque[PendingRequest]] = {}
        self._next_batch_id = 0
        self._closing = False
        self._threads = [
            threading.Thread(
                target=self._shard_loop,
                args=(shard,),
                name=f"repro-service-shard-{shard}",
                daemon=True,
            )
            for shard in range(policy.shards)
        ]
        for thread in self._threads:
            thread.start()

    def enqueue(self, pending: PendingRequest) -> bool:
        """Queue one admitted request; ``False`` once :meth:`close` has begun."""
        with self._cond:
            if self._closing:
                return False
            self._queues.setdefault(pending.request.backend, deque()).append(pending)
            self._cond.notify()
        return True

    def close(self) -> None:
        """Refuse new requests, drain the queued ones, join every shard."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    def _take(
        self,
    ) -> tuple[MicroBatch | None, list[PendingRequest], list[PendingRequest]]:
        """Cut the oldest backend's first batch; the caller holds the lock.

        Returns ``(batch, its live requests, the expired ones taken)``;
        ``batch`` is ``None`` when every request taken had expired.
        """
        backend = min(self._queues, key=lambda b: self._queues[b][0].submitted_at)
        queue = self._queues[backend]
        capacity = self._policy.capacity_elements(self._params)
        live: list[PendingRequest] = []
        expired: list[PendingRequest] = []
        elements = 0
        # A prefix at least as long as the first batch: planning it cuts
        # the same first batch as planning the whole queue would.
        while queue and len(live) < self._policy.max_batch_requests and elements < capacity:
            item = queue.popleft()
            if item.expired:
                expired.append(item)
            else:
                live.append(item)
                elements += item.request.elements
        batch: MicroBatch | None = None
        if live:
            batch = plan_batches(
                [item.request for item in live],
                self._policy,
                self._params,
                first_batch_id=self._next_batch_id,
            )[0]
            self._next_batch_id += 1
            queue.extendleft(reversed(live[len(batch.requests) :]))
            live = live[: len(batch.requests)]
        if not queue:
            del self._queues[backend]
        return batch, live, expired

    def _shard_loop(self, shard: int) -> None:
        """Take and run batches until closed and drained."""
        while True:
            with self._cond:
                while not self._queues and not self._closing:
                    self._cond.wait()
                if not self._queues:
                    return
                batch, live, expired = self._take()
            taken_at = time.monotonic()
            for item in expired:
                self._on_expired(item, taken_at)
            if batch is not None:
                with self._tracer.span(
                    "pool.work",
                    category="service.shard",
                    tid=shard + 1,
                    args={"batch_id": batch.batch_id, "expired": len(expired)},
                ):
                    self._on_batch(batch, live, taken_at, shard)
