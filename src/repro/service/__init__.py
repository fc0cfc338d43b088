"""The batched sort service: micro-batching front end over the simulator.

Many real deployments of GPU mergesort are *services*: lots of small,
independent sort requests that only become GPU-shaped work once coalesced
into whole ``u*E``-element tiles.  This subsystem reproduces that shape on
the paper's simulator stack — typed requests with deadlines
(:mod:`~repro.service.request`), a work-conserving scheduler whose idle
shard threads cut each batch from the backlog
(:mod:`~repro.service.scheduler`, :mod:`~repro.service.batching`) and
sort it with one backend call, or through the :mod:`repro.runner`
executor when a result cache is given (:mod:`~repro.service.jobs`), a
pluggable backend registry (``cf``,
``cf-batched``, ``cf-cluster``, ``kway``, ``samplesort``, ``baseline``,
``numpy``; :mod:`~repro.service.backends`), bounded-queue backpressure with
load-shedding, and a metrics layer whose snapshots export as RunReport
artifacts (:mod:`~repro.service.metrics`).

Entry points: :class:`Client` / :class:`SortService` in Python, and the
``repro serve`` / ``repro submit`` CLI verbs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.backends import (
        DEFAULT_BACKENDS,
        BatchOutcome,
        available_backends,
        get_backend,
        register_backend,
    )
    from repro.service.batching import BatchPolicy, MicroBatch, plan_batches
    from repro.service.jobs import batch_job, run_batch
    from repro.service.metrics import METRICS_SCHEMA, BatchRecord, ServiceMetrics
    from repro.service.request import KEY_LIMIT, SortRequest, SortResult
    from repro.service.scheduler import BatchScheduler, PendingRequest
    from repro.service.service import (
        DEFAULT_PARAMS,
        DEFAULT_W,
        Client,
        ResultTicket,
        SortService,
    )
    from repro.service.synthetic import run_synchronous, synth_payloads, synth_requests
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "KEY_LIMIT",
    "SortRequest",
    "SortResult",
    "BatchOutcome",
    "DEFAULT_BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
    "BatchPolicy",
    "MicroBatch",
    "plan_batches",
    "batch_job",
    "run_batch",
    "METRICS_SCHEMA",
    "BatchRecord",
    "ServiceMetrics",
    "BatchScheduler",
    "PendingRequest",
    "DEFAULT_PARAMS",
    "DEFAULT_W",
    "ResultTicket",
    "SortService",
    "Client",
    "run_synchronous",
    "synth_payloads",
    "synth_requests",
]
