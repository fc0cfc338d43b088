"""Recording live service traffic into replayable logs.

A :class:`TrafficRecorder` attaches to a :class:`~repro.service.SortService`
(the optional ``recorder=`` constructor argument) and captures every
admitted :class:`~repro.service.request.SortRequest` as one inline
:class:`~repro.replay.log.TrafficEvent`: the exact payload values, the
backend, the request kind, the tenant, and a logical arrival tick — one
tick per admission, in admission order, so the recorded schedule is a
deterministic function of the traffic and never of wall time.  Relative
deadlines are quantized onto the logical clock at
:data:`TICKS_PER_SECOND`.

The recorder only ever *observes*: it holds no reference to results and
adds one mutex acquisition per admission, so an attached recorder does
not perturb scheduling decisions.
"""

from __future__ import annotations

import threading

from repro.fuzz.corpus import Geometry
from repro.replay.log import TrafficEvent, TrafficLog, make_log
from repro.replay.stats import REPLAY
from repro.service.request import SortRequest

__all__ = ["TICKS_PER_SECOND", "TrafficRecorder"]

#: Logical ticks one wall-clock second maps to when quantizing recorded
#: relative deadlines (1 tick ~ 1 ms, the service's latency granularity).
TICKS_PER_SECOND = 1000


class TrafficRecorder:
    """Thread-safe capture of admitted requests into a traffic log."""

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        self._lock = threading.Lock()
        self._events: list[TrafficEvent] = []

    def record(self, request: SortRequest, tenant: str = "default") -> TrafficEvent:
        """Capture one admitted request; returns the recorded event.

        The arrival tick is the recorder's admission counter (record
        order *is* arrival order); payload values are copied inline so
        later mutation of the request array cannot corrupt the log.
        """
        deadline_ticks = (
            None
            if request.deadline_s is None
            else max(1, round(request.deadline_s * TICKS_PER_SECOND))
        )
        with self._lock:
            event = TrafficEvent(
                arrival_tick=len(self._events),
                tenant=str(tenant),
                kind=request.kind,
                backend=request.backend,
                deadline_ticks=deadline_ticks,
                values=tuple(int(v) for v in request.data.tolist()),
            )
            self._events.append(event)
        return event

    def __len__(self) -> int:
        """Events recorded so far."""
        with self._lock:
            return len(self._events)

    def log(self, model: str = "recorded", seed: int = 0) -> TrafficLog:
        """Finalize the capture into a content-addressed traffic log.

        ``model`` defaults to ``"recorded"`` (live capture provenance);
        ``seed`` is carried for symmetry with synthetic logs but plays
        no generative role for inline events.
        """
        with self._lock:
            events = tuple(self._events)
        log = make_log(self.geometry, model, seed, events)
        REPLAY.add(logs_recorded=1, events_recorded=len(events))
        return log
