"""Shared summary statistics and counters for metrics snapshots.

One definition of the percentile (exact nearest-rank on the *sorted*
sample) serves every layer: :mod:`repro.service.metrics` latency
summaries, the conflict profiler's round-depth summaries, and any future
dashboard math.  Keeping the definition in one place means a p95 in a
service snapshot and a p95 in a trace summary are always the same
quantity.

:class:`CounterSet` is the one shape every process-wide stats ledger
takes (the engine's fusion ledger, the cluster and replay counters):
names declared once, in snapshot order, next to the code that updates
them, so the Prometheus exposition reads which leaves are counters from
the declaration instead of a hand-kept list.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence

__all__ = ["CounterSet", "percentile", "summarize", "flatten_numeric"]


class CounterSet:
    """Thread-safe integer counters and peak gauges behind one lock.

    ``names`` are every value in snapshot order; the ones also listed
    in ``peaks`` are high-water gauges, the rest are monotonic counters,
    named by :attr:`counters`.  Updating an undeclared name raises
    :class:`KeyError`.
    """

    def __init__(self, *names: str, peaks: Sequence[str] = ()) -> None:
        #: The monotonic names, in declaration order.
        self.counters: tuple[str, ...] = tuple(n for n in names if n not in peaks)
        self._peaks = frozenset(peaks)
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def add(self, **values: int) -> None:
        """Fold each ``name=value`` in, all under one lock hold.

        A counter grows by ``value``; a peak gauge rises to ``value``
        if that is higher.
        """
        with self._lock:
            for name, value in values.items():
                if name in self._peaks:
                    self._values[name] = max(self._values[name], value)
                else:
                    self._values[name] += value

    def snapshot(self) -> dict[str, int]:
        """A copy of every value, in declaration order."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        """Zero every value (test isolation and profiling runs)."""
        with self._lock:
            for name in self._values:
                self._values[name] = 0


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an already-sorted sample.

    ``q`` is a fraction in ``[0, 1]``; the rank is ``round(q * (n - 1))``
    clamped into the sample, so ``q=0`` is the minimum, ``q=1`` the
    maximum, and a single-element sample returns that element for every
    ``q``.  An empty sample returns ``0.0`` (the service reports zeros
    while idle rather than raising).
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return float(sorted_values[rank])


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Count/mean/min/p50/p95/max summary of an (unsorted) sample.

    The percentile fields use :func:`percentile`, so summaries printed by
    ``repro profile`` and the service's latency lines agree on definitions.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    return {
        "count": float(n),
        "mean": (sum(ordered) / n) if n else 0.0,
        "min": ordered[0] if n else 0.0,
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "max": ordered[-1] if n else 0.0,
    }


def flatten_numeric(prefix: str, value: Any, out: dict[str, float]) -> None:
    """Flatten a nested mapping's numeric leaves into dotted-path floats.

    Booleans are skipped (they are flags, not metrics); non-numeric leaves
    are ignored.  Used by the service metrics artifact and the Prometheus
    exposition, so both expose the same metric names.
    """
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, Mapping):
        for key in sorted(value):
            flatten_numeric(f"{prefix}.{key}" if prefix else str(key), value[key], out)
