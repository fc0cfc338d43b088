"""Pure arithmetic of the wall-clock benchmark: percentiles, spans, lateness.

Nothing here imports :mod:`repro` or reads a clock, so every rule the
benchmark reports by (the tail-percentile choice, span self time, the
per-request latency decomposition, generator lateness) is a plain function
of its inputs and is unit-tested in ``wallbench/tests``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Candidate tail percentiles, highest first, in tenths of a percent so the
#: "samples beyond" arithmetic stays exact.
TAIL_LADDER_PERMILLE: tuple[int, ...] = (999, 990, 950, 900, 750, 500)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] (NumPy's default rule)."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return quantile(values, 0.5)


def samples_beyond(n: int, permille: int) -> int:
    """How many of ``n`` samples lie above the ``permille``/10 percentile."""
    return n * (1000 - permille) // 1000


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it was taken at."""

    percentile: float
    value: float
    samples: int
    beyond: int


def tail_permille(n: int) -> int:
    """The highest ladder percentile (in permille) with ``MIN_BEYOND`` of ``n`` above it.

    With fewer than ``MIN_BEYOND`` samples above even the median, the
    median is used and the reported ``beyond`` says how thin the tail is.
    """
    for permille in TAIL_LADDER_PERMILLE:
        if samples_beyond(n, permille) >= MIN_BEYOND:
            return permille
    return TAIL_LADDER_PERMILLE[-1]


def tail(values: Sequence[float]) -> Tail:
    """Value at the highest ladder percentile with ``MIN_BEYOND`` samples above it.

    Failed requests enter as ``math.inf``: they miss any latency limit.
    """
    n = len(values)
    permille = tail_permille(n)
    return Tail(permille / 10, quantile(values, permille / 1000), n, samples_beyond(n, permille))


def slices(values: Sequence[float], count: int) -> list[Sequence[float]]:
    """``values`` cut into ``count`` contiguous runs of equal length (remainder dropped)."""
    size = len(values) // count
    if size < 1:
        raise ValueError(f"cannot cut {len(values)} values into {count} slices")
    return [values[i * size : (i + 1) * size] for i in range(count)]


def sliced_median(values: Sequence[float], count: int) -> float:
    """Median of the medians of ``count`` consecutive slices of ``values``."""
    return median([median(part) for part in slices(values, count)])


def sliced_tail(values: Sequence[float], count: int) -> Tail:
    """Median over ``count`` consecutive slices of each slice's :func:`tail`.

    A burst of interference inflates the tail of the slice it falls in;
    the median over slices reports the typical tail instead.  ``beyond``
    is per slice.
    """
    parts = slices(values, count)
    permille = tail_permille(len(parts[0]))
    return Tail(
        permille / 10,
        median([quantile(part, permille / 1000) for part in parts]),
        len(values),
        samples_beyond(len(parts[0]), permille),
    )


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (``statistics.quantiles``, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def window_rates(
    events: Sequence[tuple[float, float]], start: float, end: float, windows: int
) -> list[float]:
    """Amount per second in each of ``windows`` equal slices of ``[start, end)``.

    ``events`` are ``(time, amount)`` pairs, e.g. a request's completion
    time and its keys.
    """
    if end <= start or windows < 1:
        raise ValueError("need end > start and at least one window")
    width = (end - start) / windows
    totals = [0.0] * windows
    for when, amount in events:
        if start <= when < end:
            totals[min(int((when - start) / width), windows - 1)] += amount
    return [total / width for total in totals]


# ------------------------------------------------------------------ lateness


def lateness(due: Sequence[float], started: Sequence[float]) -> list[float]:
    """Per-request seconds the generator started after the request was due."""
    if len(due) != len(started):
        raise ValueError("due and started must have equal length")
    return [s - d for d, s in zip(due, started)]


def generator_behind(late_s: Sequence[float], p50_limit_s: float, p99_limit_s: float) -> bool:
    """Whether the open-loop generator fell behind its schedule.

    A late median means the generator could not keep the rate at all; a
    late 99th percentile means stalls long enough to bunch arrivals.  In
    either case the offered load was not the stated one.  Isolated waits
    for the interpreter lock (a few ms) stay under both limits.
    """
    if not late_s:
        return False
    return median(late_s) > p50_limit_s or quantile(late_s, 0.99) > p99_limit_s


# ------------------------------------------------------- latency decomposition


@dataclass(frozen=True)
class Decomposition:
    """Medians of one request population's latency and its three parts."""

    latency: float
    wait: float
    exec: float
    dispatch: float

    @property
    def parts_over_latency(self) -> float:
        """Sum of the part medians over the latency median (1.0 = reconciles)."""
        return (self.wait + self.exec + self.dispatch) / self.latency


def decompose(
    latency: Sequence[float], wait: Sequence[float], exec_: Sequence[float]
) -> Decomposition:
    """Split per-request latency into wait, exec and the remainder.

    ``dispatch = latency - wait - exec`` per request: everything outside the
    scheduler wait and the batch execution, i.e. the shard queue, result
    fan-out, the ``submit`` call and the generator's lateness.
    """
    if not (len(latency) == len(wait) == len(exec_)) or not latency:
        raise ValueError("need equal, non-empty latency/wait/exec samples")
    dispatch = [lat - w - e for lat, w, e in zip(latency, wait, exec_)]
    return Decomposition(
        latency=median(latency), wait=median(wait), exec=median(exec_),
        dispatch=median(dispatch),
    )


# ----------------------------------------------------------------- self time


@dataclass(frozen=True)
class Span:
    """One timed call into a layer, as the tracer records it."""

    id: int
    name: str
    parent: int | None
    thread: int
    batch: int
    start: float
    end: float
    #: Work the call covered (keys, tiles, blocks), named by the wrapper.
    count: int = 0
    phase: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + own[span.id]
    return out
