"""Merge-path order statistics (Green et al., the partitioner Thrust uses).

Merging two sorted arrays ``A`` and ``B`` is parallelized by cutting the
merge into equal-size output windows: the ``i``-th cut point is the order
statistic splitting the first ``i * chunk`` elements of the merged output
into a prefix of ``A`` and a prefix of ``B``.  Each cut is found by a
binary search along a cross diagonal of the implicit merge grid in
``O(log min(|A|, |B|))`` comparisons (CLRS exercise 9.3-10).

Ties break toward ``A`` (``A[k] <= B[m]`` consumes from ``A`` first), which
makes the merge stable and matches the serial merge in
:mod:`repro.mergesort.serial_merge`.
"""

from __future__ import annotations

import numpy as np

from repro.core.splits import BlockSplit, WarpSplit
from repro.errors import ParameterError

__all__ = [
    "merge_path_search",
    "merge_path_partition",
    "warp_split_from_merge_path",
    "block_split_from_merge_path",
]


def merge_path_search(a, b, diagonal: int) -> tuple[int, int]:
    """Return ``(ai, bi)`` with ``ai + bi == diagonal`` on the merge path.

    ``ai`` is the number of elements of ``a`` (and ``bi`` of ``b``) that
    precede the ``diagonal``-th element of the stable merge of ``a`` and
    ``b``.

    >>> merge_path_search([1, 3, 5], [2, 4, 6], 3)
    (2, 1)
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not 0 <= diagonal <= len(a) + len(b):
        raise ParameterError(
            f"diagonal {diagonal} out of range [0, {len(a) + len(b)}]"
        )
    lo = max(0, diagonal - len(b))
    hi = min(diagonal, len(a))
    while lo < hi:
        mid = (lo + hi) // 2
        # Crossing condition: A[mid] goes before B[diagonal-mid-1]?
        if a[mid] <= b[diagonal - 1 - mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo, diagonal - lo


def merge_path_partition(a, b, chunk: int) -> list[tuple[int, int]]:
    """Return cut points at diagonals ``0, chunk, 2*chunk, ..., |A|+|B|``.

    The trailing cut ``(|A|, |B|)`` is always included, so consecutive cut
    pairs delimit the per-worker sub-merges.
    """
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    a = np.asarray(a)
    b = np.asarray(b)
    total = len(a) + len(b)
    cuts = [merge_path_search(a, b, d) for d in range(0, total, chunk)]
    cuts.append((len(a), len(b)))
    return cuts


def warp_split_from_merge_path(a, b, E: int) -> WarpSplit:
    """Compute a :class:`~repro.core.splits.WarpSplit` for merging ``a, b``.

    ``|a| + |b|`` must be a multiple of ``E``; the number of threads is
    ``(|a| + |b|) / E``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    total = len(a) + len(b)
    if total == 0 or total % E:
        raise ParameterError(
            f"|A|+|B| = {total} must be a positive multiple of E = {E}"
        )
    cuts = merge_path_partition(a, b, E)
    sizes = tuple(cuts[i + 1][0] - cuts[i][0] for i in range(total // E))
    return WarpSplit(E=E, a_sizes=sizes)


def block_split_from_merge_path(a, b, E: int, w: int) -> BlockSplit:
    """Compute a :class:`~repro.core.splits.BlockSplit` for merging ``a, b``."""
    a = np.asarray(a)
    b = np.asarray(b)
    total = len(a) + len(b)
    if total == 0 or total % E:
        raise ParameterError(
            f"|A|+|B| = {total} must be a positive multiple of E = {E}"
        )
    u = total // E
    if u % w:
        raise ParameterError(f"thread count {u} must be a multiple of w = {w}")
    cuts = merge_path_partition(a, b, E)
    sizes = tuple(cuts[i + 1][0] - cuts[i][0] for i in range(u))
    return BlockSplit(E=E, w=w, a_sizes=sizes)
