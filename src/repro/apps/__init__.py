"""Applications of the bank-conflict machinery beyond mergesort.

The paper's Section 2 surveys problem-specific bank-conflict-free
algorithms (scans, transposes, tridiagonal solvers, predecessor search);
this subpackage implements representative ones on the simulator, both to
demonstrate the substrate's generality and to put the paper's
contribution in its neighbours' context:

* :mod:`repro.apps.transpose` — in-shared-memory matrix transpose: the
  naive row-major layout conflicts ``w``-deep, the classic ``+1`` padding
  fixes it with wasted space, and a diagonal (skewed) layout fixes it
  in-place — three standard designs, all measured.
* :mod:`repro.apps.scan` — Blelloch exclusive scan: power-of-two tree
  strides against power-of-two banks (heavy, depth-growing conflicts) vs.
  the GPU Gems conflict-free padding (measured exactly zero).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.apps.scan import exclusive_scan_naive, exclusive_scan_padded
    from repro.apps.transpose import (
        transpose_diagonal,
        transpose_naive,
        transpose_padded,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "transpose_naive",
    "transpose_padded",
    "transpose_diagonal",
    "exclusive_scan_naive",
    "exclusive_scan_padded",
]
