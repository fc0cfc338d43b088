"""Typed request/result contracts of the batch sorting service.

A :class:`SortRequest` is one caller's small sort: a 1-D ``int64`` array,
the backend that should sort it, and an optional relative deadline.  A
:class:`SortResult` is everything the service reports back — the sorted
data (or the error that prevented it), which micro-batch served the
request, and the per-request latency split into queue wait and service
time.  Both are plain dataclasses so they serialize naturally into the
metrics layer and the ``repro submit`` CLI output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.errors import DeadlineExceededError, ParameterError, QueueFullError, ServiceError
from repro.mergesort.segmented import KEY_LIMIT

__all__ = ["REQUEST_KINDS", "SortRequest", "SortResult", "validate_request_data"]

#: Admitted request kinds: ``"flat"`` (a plain key array) or ``"columns"``
#: (packed composite-key words from :mod:`repro.columns.service`).
REQUEST_KINDS: tuple[str, ...] = ("flat", "columns")

#: Error-name -> exception class map for :meth:`SortResult.raise_if_failed`.
_ERROR_CLASSES: dict[str, type[ServiceError]] = {
    "QueueFullError": QueueFullError,
    "DeadlineExceededError": DeadlineExceededError,
    "ServiceError": ServiceError,
}


def validate_request_data(data: npt.NDArray[np.int64]) -> npt.NDArray[np.int64]:
    """Check (and return) one request's payload array.

    The service batches requests through the segmented sort, whose packed
    (segment-id, key) trick bounds keys to ±2^39; anything outside that —
    or not 1-D integer data — is rejected at admission time with
    :class:`~repro.errors.ParameterError`, before it can poison a whole
    micro-batch.
    """
    arr = np.asarray(data)
    if arr.ndim != 1:
        raise ParameterError(f"request data must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ParameterError(f"request data must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    if len(arr) and (int(arr.min()) <= -KEY_LIMIT or int(arr.max()) >= KEY_LIMIT):
        raise ParameterError("request values must fit in +-2^39 (segmented-sort key limit)")
    return arr


@dataclass(frozen=True)
class SortRequest:
    """One sort request as admitted by the service.

    Attributes
    ----------
    request_id:
        Service-assigned identity, unique per service instance and
        monotonically increasing in admission order.
    data:
        The 1-D ``int64`` payload (validated, defensively copied).
    backend:
        Registered backend name (``"cf"``, ``"baseline"``, ``"numpy"``;
        see :mod:`repro.service.backends`).
    deadline_s:
        Optional *relative* deadline in seconds from admission.  Expired
        requests complete with a ``DeadlineExceededError`` result instead
        of occupying a worker shard.
    kind:
        What the payload encodes: ``"flat"`` for a plain key array (the
        default), ``"columns"`` for packed composite-key words submitted
        by the columnar layer (:mod:`repro.columns.service`).  Both sort
        identically; the kind is carried for metrics and tracing.
    """

    request_id: int
    data: npt.NDArray[np.int64]
    backend: str = "cf"
    deadline_s: float | None = None
    kind: str = "flat"

    def __post_init__(self) -> None:
        """Validate the payload, the deadline, and the kind."""
        object.__setattr__(self, "data", validate_request_data(self.data))
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ParameterError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.kind not in REQUEST_KINDS:
            raise ParameterError(
                f"unknown request kind {self.kind!r} "
                f"(one of {', '.join(REQUEST_KINDS)})"
            )

    @property
    def elements(self) -> int:
        """Payload length in elements."""
        return int(len(self.data))


@dataclass
class SortResult:
    """The service's answer to one :class:`SortRequest`.

    ``error`` is ``None`` on success, else the class name of the
    :class:`~repro.errors.ServiceError` subclass that failed the request
    (kept as a string so results stay trivially JSON-serializable).
    """

    #: Identity of the request this result answers.
    request_id: int
    #: Backend that served (or would have served) the request.
    backend: str
    #: Sorted payload; empty when ``error`` is set.
    data: npt.NDArray[np.int64] = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    #: Micro-batch that served the request (-1 when it never reached one).
    batch_id: int = -1
    #: Worker shard that executed the batch (-1 when never executed).
    shard: int = -1
    #: Seconds spent queued before a shard took the request.
    wait_s: float = 0.0
    #: Seconds spent executing the batch that contained the request.
    service_s: float = 0.0
    #: Bank-conflict replays attributed to this request's batch.
    batch_replays: int = 0
    #: ``ServiceError`` subclass name, or ``None`` on success.
    error: str | None = None

    @property
    def ok(self) -> bool:
        """``True`` iff the request completed with sorted data."""
        return self.error is None

    @property
    def latency_s(self) -> float:
        """End-to-end latency: queue wait plus batch service time."""
        return self.wait_s + self.service_s

    def raise_if_failed(self) -> None:
        """Re-raise the recorded failure as its typed exception.

        Maps the ``error`` name back through :mod:`repro.errors`
        (``QueueFullError``, ``DeadlineExceededError``, generic
        :class:`~repro.errors.ServiceError` otherwise); no-op on success.
        """
        if self.error is None:
            return
        cls = _ERROR_CLASSES.get(self.error, ServiceError)
        raise cls(f"request {self.request_id}: {self.error}")
