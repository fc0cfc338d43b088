"""Synthetic load models: traffic streams with arrival-time schedules.

:mod:`repro.service.synthetic` synthesizes request *payloads*; this
module layers the missing dimension on top — *when* requests arrive, on
the replayer's logical clock.  Three production-shaped models:

``diurnal_wave``
    Arrival intensity follows an integer triangle wave (the day/night
    load curve), so batches fill well at the peak and flush near-empty
    in the trough — the fill-ratio regime chaos deadlines stress.
``bursty_tenants``
    One hog tenant fires multi-request bursts at single ticks while the
    other tenants trickle steady singletons — the WFQ starvation
    schedule, and the natural prey of the queue-saturation fault.
``adversarial_mix``
    Section 4 worst-case tiles interleaved with uniform traffic — the
    paper's adversary arriving *mixed into* ordinary streams, at any
    geometry including non-coprime ``(E, w)`` where the CF guarantee is
    void and the zero-replay oracle must skip rather than fail.

Every model is a pure function of ``(count, seed, geometry)``; per-event
seeds derive via :func:`~repro.workloads.generators.derive_stream_seed`,
so streams never alias across models or seeds.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ParameterError
from repro.fuzz.corpus import Geometry
from repro.replay.log import TrafficEvent, TrafficLog, make_log
from repro.replay.stats import REPLAY
from repro.workloads.generators import derive_stream_seed

__all__ = ["LOAD_MODELS", "build_load", "diurnal_wave", "bursty_tenants", "adversarial_mix"]


def _spec_length(geometry: Geometry, token: int) -> int:
    """A deterministic payload length in ``[w, tile]`` from one seed token."""
    steps = geometry.tile // geometry.w
    return geometry.w * (1 + token % steps)


def diurnal_wave(count: int, seed: int, geometry: Geometry) -> TrafficLog:
    """Traffic whose per-tick arrival rate rides an integer triangle wave.

    The wave has period 8 ticks and amplitude 3: troughs admit one
    request per tick, peaks four — so micro-batches alternate between
    well-filled and padding-heavy, which is exactly the fill-ratio swing
    a day of real traffic produces.  Payloads are uniform-random with
    lengths derived per event; every third event carries a generous
    deadline so the deadline-storm fault has something to tighten.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    events: list[TrafficEvent] = []
    tick = 0
    while len(events) < count:
        phase = tick % 8
        rate = 1 + (phase if phase <= 3 else 7 - phase)  # 1,2,3,4,4,3,2,1
        for _ in range(rate):
            if len(events) >= count:
                break
            token = derive_stream_seed(seed, len(events))
            events.append(
                TrafficEvent(
                    arrival_tick=tick,
                    tenant=f"tenant-{token % 3}",
                    backend="cf",
                    deadline_ticks=64 if len(events) % 3 == 0 else None,
                    workload="random",
                    n=_spec_length(geometry, token),
                    seed=token,
                )
            )
        tick += 1
    log = make_log(geometry, "diurnal_wave", seed, events)
    REPLAY.add(logs_recorded=1, events_recorded=len(events))
    return log


def bursty_tenants(count: int, seed: int, geometry: Geometry) -> TrafficLog:
    """One hog tenant bursting against steady singleton tenants.

    Every fourth tick the ``hog`` tenant fires a burst of four requests
    at the *same* arrival tick; tenants ``steady-0``/``steady-1``
    alternate single requests on the remaining ticks.  This is the WFQ
    fairness stress schedule — under weighted fair queueing the steady
    tenants' dispatch positions stay bounded regardless of the hog — and
    the queue-saturation fault's natural victim.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    events: list[TrafficEvent] = []
    tick = 0
    while len(events) < count:
        if tick % 4 == 0:
            for _ in range(4):
                if len(events) >= count:
                    break
                token = derive_stream_seed(seed, len(events))
                events.append(
                    TrafficEvent(
                        arrival_tick=tick,
                        tenant="hog",
                        backend="cf",
                        workload="duplicate_runs",
                        n=_spec_length(geometry, token),
                        seed=token,
                    )
                )
        else:
            token = derive_stream_seed(seed, len(events))
            events.append(
                TrafficEvent(
                    arrival_tick=tick,
                    tenant=f"steady-{tick % 2}",
                    backend="cf",
                    deadline_ticks=96,
                    workload="random",
                    n=_spec_length(geometry, token),
                    seed=token,
                )
            )
        tick += 1
    log = make_log(geometry, "bursty_tenants", seed, events)
    REPLAY.add(logs_recorded=1, events_recorded=len(events))
    return log


def adversarial_mix(count: int, seed: int, geometry: Geometry) -> TrafficLog:
    """Section 4 worst-case tiles interleaved with uniform traffic.

    Every third event is one whole adversarial tile at the log's
    geometry (the input class that craters the baseline's merge phase);
    the rest are uniform-random payloads of varying length.  At a
    non-coprime geometry the adversarial construction still materializes
    (``worstcase_full_input`` only needs ``1 < E <= w``) but the CF
    zero-replay oracle *skips* — the mix a production validator must
    classify correctly rather than alarm on.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    events: list[TrafficEvent] = []
    for index in range(count):
        token = derive_stream_seed(seed, index)
        if index % 3 == 2:
            events.append(
                TrafficEvent(
                    arrival_tick=index // 2,
                    tenant="adversary",
                    backend="cf",
                    workload="adversarial",
                    seed=token,
                )
            )
        else:
            events.append(
                TrafficEvent(
                    arrival_tick=index // 2,
                    tenant=f"tenant-{token % 2}",
                    backend="cf",
                    workload="random",
                    n=_spec_length(geometry, token),
                    seed=token,
                )
            )
    log = make_log(geometry, "adversarial_mix", seed, events)
    REPLAY.add(logs_recorded=1, events_recorded=len(events))
    return log


#: Name -> builder map: ``builder(count, seed, geometry) -> TrafficLog``.
LOAD_MODELS: dict[str, Callable[[int, int, Geometry], TrafficLog]] = {
    "diurnal_wave": diurnal_wave,
    "bursty_tenants": bursty_tenants,
    "adversarial_mix": adversarial_mix,
}


def build_load(model: str, count: int, seed: int, geometry: Geometry) -> TrafficLog:
    """Build ``count`` events of the named load model (validated)."""
    try:
        builder = LOAD_MODELS[model]
    except KeyError:
        raise ParameterError(
            f"unknown load model {model!r} (one of {', '.join(sorted(LOAD_MODELS))})"
        ) from None
    return builder(count, seed, geometry)
