"""Micro-batch planning: coalescing queued requests into whole tiles.

The paper's batching insight, applied to serving: one simulated thread
block sorts a tile of ``u*E`` elements in input-independent time (CF
variant), so the service packs the requests queued for one backend into
whole tiles, up to a cap, before launching.  This module is the *pure*
half of the scheduler — given queued requests and a :class:`BatchPolicy`,
it decides batch boundaries deterministically, with no clocks or threads
— so the live scheduler, the synchronous client path, the replayer and
the benchmark workers all share one planning function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SortParams
from repro.errors import ParameterError
from repro.service.request import SortRequest

__all__ = ["BatchPolicy", "MicroBatch", "plan_batches"]


@dataclass(frozen=True)
class BatchPolicy:
    """The scheduler's knobs: how large a batch may grow, how much to queue.

    Attributes
    ----------
    max_batch_tiles:
        Batch capacity in whole ``u*E`` tiles; a batch stops growing as
        soon as its elements fill it.
    max_batch_requests:
        Batch capacity in requests, whichever comes first.
    queue_capacity:
        Bounded admission-queue size in *requests*; submissions beyond it
        are shed with :class:`~repro.errors.QueueFullError` (or block,
        under backpressure).
    shards:
        Threads executing batches.  The live service is bound by the
        interpreter lock, so one is fastest; more let a batch that runs
        on worker processes (``cf-cluster`` with a process pool) overlap
        work on other backends.  The logical-clock replayer places batch
        ``b`` on shard ``b mod shards``.
    """

    max_batch_tiles: int = 32
    max_batch_requests: int = 64
    queue_capacity: int = 1024
    shards: int = 1

    def __post_init__(self) -> None:
        """Validate every knob's domain."""
        for name in ("max_batch_tiles", "max_batch_requests", "queue_capacity", "shards"):
            if int(getattr(self, name)) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")

    def capacity_elements(self, params: SortParams) -> int:
        """Batch capacity in elements: ``max_batch_tiles`` whole tiles."""
        return self.max_batch_tiles * params.tile_elements


@dataclass
class MicroBatch:
    """One planned micro-batch: the unit a worker shard executes."""

    #: Monotonically increasing batch identity.
    batch_id: int
    #: Backend every request in the batch selected.
    backend: str
    #: The coalesced requests, in admission order.
    requests: list[SortRequest] = field(default_factory=list)

    @property
    def elements(self) -> int:
        """Total payload elements across the batch's requests."""
        return sum(r.elements for r in self.requests)

    @property
    def offsets(self) -> list[int]:
        """Segment start offsets of each request within the concatenation."""
        out: list[int] = []
        pos = 0
        for request in self.requests:
            out.append(pos)
            pos += request.elements
        return out

    def fill_ratio(self, params: SortParams) -> float:
        """Useful elements over the whole-tile capacity the batch occupies.

        The batch pads to ``ceil(elements / tile)`` whole ``u*E`` tiles
        (one simulated block each); a ratio of 1.0 means perfect
        coalescing, small ratios mean the launch mostly sorted padding.
        """
        elements = self.elements
        if elements == 0:
            return 0.0
        tile = params.tile_elements
        tiles = (elements + tile - 1) // tile
        return elements / (tiles * tile)

    def shard_for(self, shards: int) -> int:
        """The replayer's deterministic shard assignment: ``batch_id mod shards``."""
        return self.batch_id % shards


def plan_batches(
    requests: list[SortRequest],
    policy: BatchPolicy,
    params: SortParams,
    first_batch_id: int = 0,
) -> list[MicroBatch]:
    """Split ``requests`` into micro-batches, greedily, in admission order.

    Requests are grouped by backend (a batch is one launch on one
    backend), then packed until either the element capacity
    (:meth:`BatchPolicy.capacity_elements`) or ``max_batch_requests``
    would be exceeded.  A single request larger than the capacity still
    gets its own batch — the segmented sort handles oversized segments by
    falling back to an individual pipeline sort.  Planning is a pure
    function of its arguments, so serial, sharded, and benchmark
    executions form identical batches.
    """
    capacity = policy.capacity_elements(params)
    limit = policy.max_batch_requests
    batches: list[MicroBatch] = []
    #: Each backend's open batch and its running element count, so
    #: planning reads each request's size once.
    open_batches: dict[str, tuple[MicroBatch, int]] = {}
    for request in requests:
        backend = request.backend
        size = request.elements
        batch, elements = open_batches.get(backend, (None, 0))
        if batch is None or elements + size > capacity or len(batch.requests) >= limit:
            batch = MicroBatch(batch_id=first_batch_id + len(batches), backend=backend)
            batches.append(batch)
            elements = 0
        batch.requests.append(request)
        elements += size
        if elements >= capacity or len(batch.requests) >= limit:
            open_batches.pop(backend, None)
        else:
            open_batches[backend] = (batch, elements)
    return batches
