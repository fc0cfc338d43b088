"""The paper's primary contribution: the load-balanced dual subsequence gather.

The procedure loads, for every thread ``i`` of a warp (or thread block), its
pair of subsequences ``A_i`` and ``B_i`` (``|A_i| + |B_i| = E``) from shared
memory into the thread's registers **without any bank conflicts**, for every
possible split — including the data-dependent splits produced by merge-path
partitioning.  The inverse procedure (the *scatter*) writes ``E`` register
values per thread back to contiguous per-thread output ranges, equally
conflict free.

Module map
----------
:mod:`repro.core.layout`
    The two permutations: ``pi`` (reverse the ``B`` list, Section 3.1) and
    ``rho`` (circular shift of ``wE/d``-element partitions, Section 3.2),
    plus builders that place ``A`` and ``B`` into shared-memory order.
:mod:`repro.core.splits`
    Value objects describing how a warp's/block's elements divide into the
    per-thread ``(A_i, B_i)`` pairs.
:mod:`repro.core.schedule`
    Pure computation of which (thread, address) pairs are touched in every
    round — Algorithm 1's index arithmetic, and the *naive* (no-reversal)
    schedule of Figure 7 for comparison.
:mod:`repro.core.gather` / :mod:`repro.core.scatter`
    Executable simulator kernels and convenience drivers.
:mod:`repro.core.verify`
    Conflict-freeness checkers used by tests and ``python -m repro verify``.
:mod:`repro.core.dual_scan`
    The Conclusion's generalization: any algorithm that performs a parallel
    scan over a pair of arrays, made bank conflict free.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.layout import (
        apply_block_layout,
        apply_warp_layout,
        block_layout_position,
        pi,
        rho,
        rho_inverse,
        warp_layout_position,
    )
    from repro.core.splits import BlockSplit, WarpSplit
    from repro.core.schedule import (
        Access,
        block_gather_schedule,
        block_scatter_schedule,
        naive_gather_schedule,
        warp_gather_schedule,
        scatter_schedule,
    )
    from repro.core.gather import (
        gather_block,
        gather_reference,
        gather_warp,
        items_rotation,
    )
    from repro.core.scatter import scatter_block, scatter_warp, unpermute
    from repro.core.verify import (
        assert_conflict_free,
        rounds_are_complete_residue_systems,
        schedule_conflicts,
        schedule_is_conflict_free,
    )
    from repro.core.dual_scan import THREAD_FUNCTIONS, conflict_free_dual_scan
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "pi",
    "rho",
    "rho_inverse",
    "warp_layout_position",
    "block_layout_position",
    "apply_warp_layout",
    "apply_block_layout",
    "WarpSplit",
    "BlockSplit",
    "Access",
    "warp_gather_schedule",
    "block_gather_schedule",
    "naive_gather_schedule",
    "scatter_schedule",
    "block_scatter_schedule",
    "gather_warp",
    "gather_block",
    "gather_reference",
    "items_rotation",
    "scatter_warp",
    "scatter_block",
    "unpermute",
    "assert_conflict_free",
    "schedule_is_conflict_free",
    "schedule_conflicts",
    "rounds_are_complete_residue_systems",
    "THREAD_FUNCTIONS",
    "conflict_free_dual_scan",
]
