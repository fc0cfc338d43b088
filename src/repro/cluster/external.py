"""Out-of-core external sort: run files on disk, bounded-memory merge.

For ``n`` keys that exceed the memory budget, :func:`external_sort`
makes two passes:

1. **Run formation** — consume the input in chunks of ``budget_keys``,
   sort each chunk in memory, and spill it to a *content-addressed* run
   file (``<sha256(bytes)>.npy``, the runner cache's addressing scheme —
   identical runs dedupe to one file, and a re-run of identical input
   touches no new disk).
2. **Bounded merge** — stream the ``k`` runs back through per-run read
   buffers of ``B = budget_keys // (2k + 2)`` keys.  Each round emits
   every buffered key ``<=`` the smallest buffer *tail* (that buffer
   drains completely, guaranteeing progress), stable-sorts the round,
   appends it to the output file, and refills drained buffers from their
   memory-mapped run files.  Peak residency is at most ``2kB <
   budget_keys`` keys, so the sort completes with a budget well under
   ``n/4`` (the acceptance bound) for any chunk count.

Spill and readback traffic is accounted in a :class:`SpillStats` (folded
into the process-wide counters for the metrics snapshot and Prometheus)
and, when a tracer is passed, in ``external.*`` telemetry spans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from repro.cluster.stats import CLUSTER
from repro.errors import ParameterError
from repro.telemetry.spans import NULL_TRACER, Tracer

__all__ = ["SpillStats", "ExternalSortResult", "write_run", "external_sort"]

IntArray = npt.NDArray[np.int64]

_ITEMSIZE = 8


@dataclass
class SpillStats:
    """Disk-traffic accounting for one external sort."""

    #: Sorted run files produced by run formation.
    runs_written: int = 0
    #: Keys written to run files.
    keys_spilled: int = 0
    #: Bytes written to run files.
    bytes_spilled: int = 0
    #: Keys streamed back through merge read buffers.
    keys_read_back: int = 0
    #: Bytes streamed back through merge read buffers.
    bytes_read_back: int = 0
    #: Bounded-merge rounds executed.
    merge_rounds: int = 0
    #: Largest number of keys resident in memory at any instant.
    peak_resident_keys: int = 0

    def note_resident(self, keys: int) -> None:
        """Fold an instantaneous residency sample into the peak."""
        self.peak_resident_keys = max(self.peak_resident_keys, keys)


@dataclass
class ExternalSortResult:
    """Where an external sort left its output, plus its accounting."""

    #: Raw little-endian int64 file holding the sorted output.
    out_path: Path
    #: Number of keys sorted.
    n: int
    #: The run files the merge consumed, in formation order.
    run_paths: list[Path]
    #: Spill/readback accounting.
    stats: SpillStats

    def sorted_array(self) -> IntArray:
        """Load the sorted output back into memory (test/small-n helper)."""
        return np.fromfile(self.out_path, dtype=np.int64)


def write_run(run: IntArray, spill_dir: Path) -> Path:
    """Spill one sorted run to a content-addressed ``.npy`` file.

    The name is the SHA-256 of the raw bytes, so identical runs share
    one file and re-spilling is idempotent (the runner cache's
    addressing scheme).
    """
    digest = hashlib.sha256(run.tobytes()).hexdigest()
    path = spill_dir / f"{digest}.npy"
    if not path.exists():
        np.save(path, run)
    return path


def external_sort(
    data: IntArray,
    budget_keys: int,
    spill_dir: str | Path,
    tracer: Tracer = NULL_TRACER,
) -> ExternalSortResult:
    """Sort ``data`` using at most ~``budget_keys`` resident keys.

    ``data`` itself is treated as the out-of-core source (sliced, never
    copied wholesale); working memory — one formation chunk, the merge
    read buffers, one merge round — stays within the budget.  The sorted
    output lands in ``spill_dir / "sorted.int64"`` as raw int64; use
    :meth:`ExternalSortResult.sorted_array` to load it back.
    """
    if budget_keys < 1:
        raise ParameterError(f"need budget_keys >= 1, got {budget_keys}")
    source = np.asarray(data, dtype=np.int64)
    if source.ndim != 1:
        raise ParameterError("data must be one-dimensional")
    directory = Path(spill_dir)
    directory.mkdir(parents=True, exist_ok=True)
    out_path = directory / "sorted.int64"
    n = len(source)
    stats = SpillStats()

    run_paths: list[Path] = []
    with tracer.span(
        "external.run_formation",
        category="cluster",
        args={"n": n, "budget_keys": budget_keys},
    ):
        for lo in range(0, n, budget_keys):
            chunk = np.array(source[lo : lo + budget_keys])
            chunk.sort(kind="stable")
            stats.note_resident(len(chunk))
            run_paths.append(write_run(chunk, directory))
            stats.runs_written += 1
            stats.keys_spilled += len(chunk)
            stats.bytes_spilled += len(chunk) * _ITEMSIZE

    k = len(run_paths)
    with tracer.span(
        "external.merge", category="cluster", args={"k": k, "n": n}
    ), open(out_path, "wb") as out_file:
        if k:
            buffer_keys = max(1, budget_keys // (2 * k + 2))
            readers = [np.load(path, mmap_mode="r") for path in run_paths]
            positions = [0] * k
            buffers: list[IntArray] = [np.empty(0, dtype=np.int64) for _ in range(k)]

            def refill(r: int) -> None:
                """Stream the next ``buffer_keys`` keys of run ``r`` into its buffer."""
                lo = positions[r]
                hi = min(lo + buffer_keys, len(readers[r]))
                if hi > lo:
                    fresh = np.array(readers[r][lo:hi])
                    positions[r] = hi
                    stats.keys_read_back += len(fresh)
                    stats.bytes_read_back += len(fresh) * _ITEMSIZE
                    buffers[r] = np.concatenate([buffers[r], fresh])

            for r in range(k):
                refill(r)
            while any(len(b) for b in buffers):
                tails = [
                    b[-1]
                    for r, b in enumerate(buffers)
                    if len(b) and positions[r] < len(readers[r])
                ]
                emit: list[IntArray] = []
                if tails:
                    limit = min(tails)
                    for r in range(k):
                        take = int(np.searchsorted(buffers[r], limit, side="right"))
                        emit.append(buffers[r][:take])
                        buffers[r] = buffers[r][take:]
                else:
                    for r in range(k):
                        emit.append(buffers[r])
                        buffers[r] = np.empty(0, dtype=np.int64)
                merged = np.concatenate(emit)
                merged.sort(kind="stable")
                stats.note_resident(sum(len(b) for b in buffers) + len(merged))
                out_file.write(merged.tobytes())
                stats.merge_rounds += 1
                for r in range(k):
                    if not len(buffers[r]):
                        refill(r)

    CLUSTER.add(
        runs_written=stats.runs_written,
        keys_spilled=stats.keys_spilled,
        bytes_spilled=stats.bytes_spilled,
        keys_read_back=stats.keys_read_back,
        bytes_read_back=stats.bytes_read_back,
        merge_rounds=stats.merge_rounds,
        peak_resident_keys=stats.peak_resident_keys,
    )
    return ExternalSortResult(out_path=out_path, n=n, run_paths=run_paths, stats=stats)
