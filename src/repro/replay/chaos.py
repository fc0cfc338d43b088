"""Chaos faults: deterministic mid-replay failure injection.

Four production-shaped fault kinds (:data:`FAULT_KINDS`):

``worker_crash``
    Kills cluster pool workers at planned task ordinals via the
    driver-side hook :func:`repro.cluster.pool.install_fault_hook`; the
    pool's recovery path rebuilds the executor and retries the task
    once, so a *surviving* service still returns byte-identical results.
``queue_saturation``
    Caps per-window admissions during the fault's window range; excess
    arrivals are shed with ``QueueFullError`` — backpressure without
    wall-clock queues.
``slow_shard``
    Multiplies one shard's logical service time, skewing batch
    completion ticks so queued deadlines expire *after* execution — the
    straggler-shard regime.
``deadline_storm``
    Overrides arrival deadlines to a near-impossible tick budget during
    the fault windows, flooding the expiry paths.

A :class:`FaultSpec` is a frozen, JSON-serializable description — no
randomness, no clocks — so a chaos campaign is exactly as replayable as
the traffic log it runs over.  A :class:`FaultInjector` evaluates one
plan during a replay and counts every activation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.cluster.pool import TaskDict, clear_fault_hook, install_fault_hook
from repro.errors import ParameterError, WorkerCrashed
from repro.replay.stats import REPLAY

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultInjector", "default_fault_plan"]

#: The fault catalogue, in campaign order.
FAULT_KINDS: tuple[str, ...] = (
    "worker_crash",
    "queue_saturation",
    "slow_shard",
    "deadline_storm",
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: kind, active window range, kind-specific knobs.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    start_window / end_window:
        Half-open replay-window range ``[start, end)`` the fault is
        active in (ignored by ``worker_crash``, which plans in task
        ordinals instead).
    crash_tasks:
        ``worker_crash``: 0-based cluster-task ordinals to kill (each
        fires exactly once).
    capacity:
        ``queue_saturation``: max admissions per active window.
    shard / skew:
        ``slow_shard``: which shard is slow, and its logical service
        time multiplier.
    deadline_ticks:
        ``deadline_storm``: the deadline forced onto arrivals in active
        windows.
    """

    kind: str
    start_window: int = 0
    end_window: int = 1 << 30
    crash_tasks: tuple[int, ...] = ()
    capacity: int = 1
    shard: int = 0
    skew: int = 4
    deadline_ticks: int = 1

    def __post_init__(self) -> None:
        """Validate the kind and its knob domains."""
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {self.kind!r} (one of {', '.join(FAULT_KINDS)})"
            )
        if self.start_window < 0 or self.end_window <= self.start_window:
            raise ParameterError(
                f"need 0 <= start_window < end_window, got "
                f"[{self.start_window}, {self.end_window})"
            )
        if self.kind == "worker_crash" and not self.crash_tasks:
            raise ParameterError("worker_crash needs at least one crash_tasks ordinal")
        if any(t < 0 for t in self.crash_tasks):
            raise ParameterError(f"crash_tasks must be >= 0, got {self.crash_tasks}")
        if self.capacity < 0:
            raise ParameterError(f"capacity must be >= 0, got {self.capacity}")
        if self.shard < 0:
            raise ParameterError(f"shard must be >= 0, got {self.shard}")
        if self.skew < 1:
            raise ParameterError(f"skew must be >= 1, got {self.skew}")
        if self.deadline_ticks < 1:
            raise ParameterError(f"deadline_ticks must be >= 1, got {self.deadline_ticks}")

    def active(self, window: int) -> bool:
        """Whether the fault is live in replay window ``window``."""
        return self.start_window <= window < self.end_window

    def as_dict(self) -> dict[str, Any]:
        """JSON form for chaos reports."""
        return {
            "kind": self.kind,
            "start_window": self.start_window,
            "end_window": self.end_window,
            "crash_tasks": list(self.crash_tasks),
            "capacity": self.capacity,
            "shard": self.shard,
            "skew": self.skew,
            "deadline_ticks": self.deadline_ticks,
        }


class FaultInjector:
    """Evaluates one fault plan during a replay, counting activations.

    The replayer calls :meth:`admit_cap`, :meth:`deadline_override`, and
    :meth:`shard_skew` per window and :meth:`note` per activation;
    :meth:`attach`/:meth:`detach` bracket the replay, installing the
    cluster pool's crash hook when the plan contains ``worker_crash``
    faults.  All state is plan-derived and counter-shaped, so the same
    plan over the same log activates identically every run.
    """

    def __init__(self, faults: Sequence[FaultSpec]) -> None:
        self.faults = tuple(faults)
        self.injections: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._task_ordinal = 0
        self._pending_crashes = {
            ordinal
            for fault in self.faults
            if fault.kind == "worker_crash"
            for ordinal in fault.crash_tasks
        }

    # ------------------------------------------------------------ plan views

    def admit_cap(self, window: int) -> int | None:
        """Per-window admission cap (min over active saturation faults)."""
        caps = [
            f.capacity
            for f in self.faults
            if f.kind == "queue_saturation" and f.active(window)
        ]
        return min(caps) if caps else None

    def deadline_override(self, window: int) -> int | None:
        """Forced deadline in ticks (min over active storm faults)."""
        storms = [
            f.deadline_ticks
            for f in self.faults
            if f.kind == "deadline_storm" and f.active(window)
        ]
        return min(storms) if storms else None

    def shard_skew(self, window: int, shard: int) -> int:
        """Service-time multiplier for ``shard`` in ``window`` (>= 1)."""
        skew = 1
        for f in self.faults:
            if f.kind == "slow_shard" and f.active(window) and f.shard == shard:
                skew = max(skew, f.skew)
                self.note("slow_shard")
        return skew

    # ----------------------------------------------------------- activations

    def note(self, kind: str, count: int = 1) -> None:
        """Count ``count`` activations of ``kind`` (replayer callback)."""
        self.injections[kind] = self.injections.get(kind, 0) + count

    def injected_total(self) -> int:
        """Total fault activations across all kinds."""
        return sum(self.injections.values())

    def plan_dict(self) -> dict[str, Any]:
        """The plan's JSON form (embedded in replay/chaos reports)."""
        return {"faults": [f.as_dict() for f in self.faults]}

    # ------------------------------------------------------------- lifecycle

    def _crash_hook(self, task: TaskDict) -> None:
        """Pool fault hook: crash the worker at each planned task ordinal."""
        ordinal = self._task_ordinal
        self._task_ordinal += 1
        if ordinal in self._pending_crashes:
            self._pending_crashes.discard(ordinal)
            self.note("worker_crash")
            raise WorkerCrashed(f"injected crash at cluster task ordinal {ordinal}")

    def attach(self) -> None:
        """Install side effects (the pool crash hook) for one replay."""
        if any(f.kind == "worker_crash" for f in self.faults):
            install_fault_hook(self._crash_hook)

    def detach(self) -> None:
        """Remove side effects and fold activation counts into the stats.

        Counts stay readable on :attr:`injections` after detach; an
        injector is single-use (one replay per instance), so the stats
        fold happens exactly once.
        """
        if any(f.kind == "worker_crash" for f in self.faults):
            clear_fault_hook()
        REPLAY.add(faults_injected=self.injected_total())


def default_fault_plan(kind: str) -> tuple[FaultSpec, ...]:
    """The campaign's stock single-fault plan for ``kind``.

    Tuned for the bench/CI log sizes (a few dozen events over ~10
    windows): the crash hits the first two cluster tasks, saturation and
    the storm cover windows 1–3, and the slow shard drags shard 0 by 6x
    for the whole replay.
    """
    if kind == "worker_crash":
        return (FaultSpec(kind="worker_crash", crash_tasks=(0, 1)),)
    if kind == "queue_saturation":
        return (FaultSpec(kind="queue_saturation", start_window=1, end_window=3, capacity=1),)
    if kind == "slow_shard":
        return (FaultSpec(kind="slow_shard", shard=0, skew=6),)
    if kind == "deadline_storm":
        return (FaultSpec(kind="deadline_storm", start_window=1, end_window=3, deadline_ticks=1),)
    raise ParameterError(
        f"unknown fault kind {kind!r} (one of {', '.join(FAULT_KINDS)})"
    )
