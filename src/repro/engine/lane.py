"""The batched execution lane: group, stack, vectorize, restore order.

The lane is the engine's front door for heterogeneous work lists: it
groups tiles (or (A, B) merge pairs) by shape, runs one batched pass per
group (:mod:`repro.engine.batch`), and hands results back in the
caller's order.  Each batched pass is wrapped in a tracer span
(category ``"engine"``), so Chrome traces show exactly how a sample set
collapsed into vectorized launches.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, ContextManager, Iterator, Sequence

import numpy as np
import numpy.typing as npt

from repro.engine.arena import arena_stats
from repro.engine.batch import (
    batched_blocksort_profile,
    batched_cf_merge_profile,
    batched_kway_merge_profile,
    batched_search_profile,
    batched_serial_merge_profile,
    fusion_stats,
)
from repro.sim.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (telemetry -> mergesort -> engine)
    from repro.telemetry.spans import Span, Tracer

__all__ = [
    "EngineStats",
    "profile_searches",
    "profile_serial_merges",
    "profile_cf_merges",
    "profile_kway_merges",
    "profile_blocksorts",
]

Pair = tuple[npt.ArrayLike, npt.ArrayLike]
RunGroup = Sequence[npt.ArrayLike]


@dataclass
class EngineStats:
    """What one lane invocation did: items in, vectorized passes out.

    The fusion/arena fields are before/after deltas of the process-global
    :func:`~repro.engine.batch.fusion_stats` and
    :func:`~repro.engine.arena.arena_stats` counters around each batched
    pass, so they attribute exactly this invocation's folded rounds and
    scratch checkouts (``arena_peak_bytes`` is the global high-water mark
    observed, not a delta).
    """

    items: int = 0
    passes: int = 0
    fused_stage_passes: int = 0
    rounds_folded: int = 0
    arena_checkouts: int = 0
    arena_reuse_hits: int = 0
    arena_peak_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter as a plain ``name -> int`` mapping."""
        return {
            "items": self.items,
            "passes": self.passes,
            "fused_stage_passes": self.fused_stage_passes,
            "rounds_folded": self.rounds_folded,
            "arena_checkouts": self.arena_checkouts,
            "arena_reuse_hits": self.arena_reuse_hits,
            "arena_peak_bytes": self.arena_peak_bytes,
        }


@contextmanager
def _stats_scope(stats: EngineStats | None, n_items: int) -> Iterator[None]:
    """Account one batched pass into ``stats`` (no-op when ``None``)."""
    if stats is None:
        yield
        return
    f0, a0 = fusion_stats(), arena_stats()
    yield
    f1, a1 = fusion_stats(), arena_stats()
    stats.items += n_items
    stats.passes += 1
    stats.fused_stage_passes += int(f1["stage_passes"] - f0["stage_passes"])
    stats.rounds_folded += int(
        (f1["rounds_folded"] - f0["rounds_folded"])
        + (f1["stage_rounds_folded"] - f0["stage_rounds_folded"])
    )
    stats.arena_checkouts += int(a1["checkouts"] - a0["checkouts"])
    stats.arena_reuse_hits += int(a1["reuse_hits"] - a0["reuse_hits"])
    stats.arena_peak_bytes = max(stats.arena_peak_bytes, int(a1["peak_bytes"]))


def _span(
    tracer: "Tracer | None", name: str, args: dict[str, object]
) -> "ContextManager[Span | None]":
    """A tracer span, or a no-op context when no tracer is attached."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, category="engine", args=args)


def _pair_groups(pairs: Sequence[Pair]) -> "OrderedDict[int, list[int]]":
    """Indices grouped by ``|A|+|B|``, preserving first-seen order."""
    groups: "OrderedDict[int, list[int]]" = OrderedDict()
    for i, (a, b) in enumerate(pairs):
        total = len(np.asarray(a)) + len(np.asarray(b))
        groups.setdefault(total, []).append(i)
    return groups


def profile_searches(
    pairs: Sequence[Pair],
    E: int,
    w: int,
    *,
    mapped: bool = False,
    tracer: "Tracer | None" = None,
    stats: EngineStats | None = None,
) -> list[Counters]:
    """Batched merge-path search profiles, one per pair, input order."""
    out: list[Counters] = [Counters() for _ in pairs]
    for total, idxs in _pair_groups(pairs).items():
        with _span(
            tracer, f"engine.search x{len(idxs)}",
            {"tiles": len(idxs), "total": total, "mapped": mapped},
        ), _stats_scope(stats, len(idxs)):
            results = batched_search_profile(
                [pairs[i] for i in idxs], E, w, mapped=mapped
            )
        for i, c in zip(idxs, results):
            out[i] = c
    return out


def profile_serial_merges(
    pairs: Sequence[Pair],
    E: int,
    w: int,
    *,
    read_policy: str = "bounded",
    tracer: "Tracer | None" = None,
    stats: EngineStats | None = None,
) -> list[Counters]:
    """Batched baseline serial-merge profiles, one per pair, input order."""
    out: list[Counters] = [Counters() for _ in pairs]
    for total, idxs in _pair_groups(pairs).items():
        with _span(
            tracer, f"engine.merge x{len(idxs)}",
            {"tiles": len(idxs), "total": total},
        ), _stats_scope(stats, len(idxs)):
            results = batched_serial_merge_profile(
                [pairs[i] for i in idxs], E, w, read_policy=read_policy
            )
        for i, c in zip(idxs, results):
            out[i] = c
    return out


def profile_cf_merges(
    pairs: Sequence[Pair],
    E: int,
    w: int,
    *,
    tracer: "Tracer | None" = None,
    stats: EngineStats | None = None,
) -> list[Counters]:
    """CF gather/scatter profiles (analytic, input independent)."""
    out: list[Counters] = [Counters() for _ in pairs]
    for total, idxs in _pair_groups(pairs).items():
        with _span(
            tracer, f"engine.cf-merge x{len(idxs)}",
            {"tiles": len(idxs), "total": total},
        ), _stats_scope(stats, len(idxs)):
            results = batched_cf_merge_profile(len(idxs), total, E, w)
        for i, c in zip(idxs, results):
            out[i] = c
    return out


def profile_kway_merges(
    groups: Sequence[RunGroup],
    E: int,
    w: int,
    *,
    tracer: "Tracer | None" = None,
    stats: EngineStats | None = None,
) -> list[Counters]:
    """Batched k-way CF merge profiles (staged gather), one per run
    group, input order.

    Groups are batched by ``(k, total)``: one pass is one k-way level
    whose blocks are the groups, so they share the fan-in and the
    merged length.
    """
    out: list[Counters] = [Counters() for _ in groups]
    shapes: "OrderedDict[tuple[int, int], list[int]]" = OrderedDict()
    for i, runs in enumerate(groups):
        arrays = [np.asarray(r) for r in runs]
        shapes.setdefault(
            (len(arrays), sum(len(a) for a in arrays)), []
        ).append(i)
    for (k, total), idxs in shapes.items():
        with _span(
            tracer, f"engine.kway-merge x{len(idxs)}",
            {"tiles": len(idxs), "k": k, "total": total, "schedule": "staged"},
        ), _stats_scope(stats, len(idxs)):
            results = batched_kway_merge_profile([groups[i] for i in idxs], E, w)
        for i, c in zip(idxs, results):
            out[i] = c
    return out


def profile_blocksorts(
    tiles: Sequence[npt.ArrayLike],
    E: int,
    w: int,
    variant: str = "thrust",
    *,
    read_policy: str = "bounded",
    tracer: "Tracer | None" = None,
    stats: EngineStats | None = None,
) -> list[Counters]:
    """Batched blocksort profiles, one per tile, input order."""
    out: list[Counters] = [Counters() for _ in tiles]
    groups: "OrderedDict[int, list[int]]" = OrderedDict()
    for i, tile in enumerate(tiles):
        groups.setdefault(len(np.asarray(tile)), []).append(i)
    for length, idxs in groups.items():
        stack = np.stack([np.asarray(tiles[i], dtype=np.int64) for i in idxs])
        with _span(
            tracer, f"engine.blocksort x{len(idxs)}",
            {"tiles": len(idxs), "length": length, "variant": variant},
        ), _stats_scope(stats, len(idxs)):
            results = batched_blocksort_profile(
                stack, E, w, variant, read_policy=read_policy
            )
        for i, c in zip(idxs, results):
            out[i] = c
    return out
