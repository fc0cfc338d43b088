"""Worst-case input construction for Thrust mergesort (Section 4).

Berney & Sitchinava's earlier construction (IPDPS 2020) required ``w`` a
power of two, ``GCD(w, E) = 1`` and ``w/2 < E < w``; Section 4 generalizes
it to arbitrary ``w``, arbitrary ``d = GCD(w, E)`` and ``1 < E <= w`` —
closing the prior work's open problem.  The idea: divide the warp's ``wE``
elements into ``d`` subproblems, and within each build a tuple sequence
``T`` assigning each thread a read count from ``A`` and from ``B`` such
that the threads consuming a full ``(E, 0)`` or ``(0, E)`` tuple are forced
into lock-step sequential scans of the *same* ``E`` shared-memory banks.

Module map: :mod:`repro.worstcase.sequence` (the ``s_i``/``x_i``/``y_i``
sequence ``S`` and its lemmas), :mod:`repro.worstcase.tuples` (the sequence
``T`` and warp/block assembly), :mod:`repro.worstcase.generator`
(realization into actual sorted arrays, plus the recursive whole-input
generator for the full sort), and :mod:`repro.worstcase.theory`
(Theorem 8's closed-form conflict counts).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.worstcase.sequence import S_sequence, s_values, x_values, y_values
    from repro.worstcase.tuples import (
        block_tuples,
        subproblem_tuples,
        warp_tuples,
    )
    from repro.worstcase.generator import (
        worstcase_full_input,
        worstcase_merge_inputs,
    )
    from repro.worstcase.theory import (
        theorem8_combined,
        theorem8_subproblem,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "s_values",
    "x_values",
    "y_values",
    "S_sequence",
    "subproblem_tuples",
    "warp_tuples",
    "block_tuples",
    "worstcase_merge_inputs",
    "worstcase_full_input",
    "theorem8_subproblem",
    "theorem8_combined",
]
