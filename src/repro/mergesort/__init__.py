"""Thrust-style GPU mergesort and the CF-Merge variant, on the simulator.

The pipeline mirrors Thrust's pairwise mergesort (Green et al.'s merge
path, two-stage partitioning):

1. **Blocksort** — each thread block sorts a tile of ``u*E`` elements:
   per-thread odd-even-transposition sort of ``E`` registers, then
   ``log2(u)`` levels of intra-block pair merges.
2. **Pairwise merge levels** — sorted runs are merged pairwise; every
   output tile of ``u*E`` elements is produced by one thread block that
   (a) locates its sub-ranges of ``A`` and ``B`` by merge-path search in
   global memory, (b) stages them in shared memory, (c) has each thread
   find its ``(A_i, B_i)`` by merge-path search in shared memory, and
   (d) merges.

Step (d) is where the two variants differ:

* :mod:`repro.mergesort.thrust` — the unmodified baseline: each thread
  *serially merges* ``A_i`` and ``B_i`` directly in shared memory; its
  data-dependent reads are where bank conflicts occur.
* :mod:`repro.mergesort.cf` — CF-Merge: the load-balanced dual subsequence
  gather brings ``(A_i, B_i)`` into registers with zero conflicts, an
  odd-even transposition network merges them obliviously, and the dual
  subsequence scatter writes the results back conflict free.

The batched engine lane (:mod:`repro.engine.lane`) re-implements the
conflict *counting* (not the execution) of these kernels as vectorized
NumPy, bit-identical to the lockstep simulator, so the throughput
experiments can sweep to the paper's ``n = 2^26 * E`` scales, and
:func:`~repro.mergesort.pipeline.batched_mergesort` runs the whole
pipeline on it with every counter equal to :func:`gpu_mergesort`'s;
:func:`~repro.mergesort.kway.batched_kway_sort` and
:func:`~repro.mergesort.samplesort.batched_sample_sort` do the same for
:func:`kway_sort` and :func:`sample_sort`.
"""

from repro.mergesort.merge_path import (
    block_split_from_merge_path,
    merge_path_partition,
    merge_path_search,
    warp_split_from_merge_path,
)
from repro.mergesort.register_merge import (
    bitonic_merge_rotated,
    odd_even_transposition_sort,
)
from repro.mergesort.serial_merge import serial_merge_block
from repro.mergesort.cf import cf_merge_block
from repro.mergesort.blocksort import blocksort_tile
from repro.mergesort.pipeline import MergesortResult, batched_mergesort, gpu_mergesort
from repro.mergesort.kway import (
    KwaySortResult,
    batched_kway_sort,
    kway_level_count,
    kway_merge_block,
    kway_merge_path_search,
    kway_sort,
)
from repro.mergesort.samplesort import SampleSortResult, batched_sample_sort, sample_sort

__all__ = [
    "merge_path_search",
    "merge_path_partition",
    "warp_split_from_merge_path",
    "block_split_from_merge_path",
    "odd_even_transposition_sort",
    "bitonic_merge_rotated",
    "serial_merge_block",
    "cf_merge_block",
    "blocksort_tile",
    "gpu_mergesort",
    "batched_mergesort",
    "MergesortResult",
    "kway_merge_path_search",
    "kway_merge_block",
    "kway_level_count",
    "kway_sort",
    "batched_kway_sort",
    "KwaySortResult",
    "sample_sort",
    "batched_sample_sort",
    "SampleSortResult",
]
