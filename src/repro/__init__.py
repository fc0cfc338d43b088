"""CF-Merge: bank-conflict-free GPU mergesort, reproduced in simulation.

Reproduction of Berney & Sitchinava, *Eliminating Bank Conflicts in GPU
Mergesort* (SPAA 2025), on a warp-synchronous shared-memory simulator.

Quickstart::

    import numpy as np
    from repro import gpu_mergesort

    data = np.random.default_rng(0).integers(0, 10**6, 10_000)
    result = gpu_mergesort(data, E=15, u=32, w=32, variant="cf")
    assert (result.data == np.sort(data)).all()
    assert result.merge_replays == 0      # zero bank conflicts while merging

See README.md for the architecture overview, DESIGN.md for the system
inventory and experiment index, and ``python -m repro --help`` for the
experiment runner that regenerates every figure and table of the paper.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.config import RTX_2080_TI, THRUST_DEFAULT, TUNED, DeviceSpec, SortParams
    from repro.core import (
        BlockSplit,
        WarpSplit,
        conflict_free_dual_scan,
        gather_block,
        gather_warp,
        scatter_warp,
    )
    from repro.mergesort import (
        MergesortResult,
        blocksort_tile,
        cf_merge_block,
        gpu_mergesort,
        serial_merge_block,
    )
    from repro.perf import occupancy, speedup_summary, throughput_sweep
    from repro.sim import BankModel, Counters, Device, SharedMemory
    from repro.worstcase import (
        theorem8_combined,
        worstcase_full_input,
        worstcase_merge_inputs,
    )
    from repro._version import __version__
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "__version__",
    # configuration
    "DeviceSpec",
    "SortParams",
    "RTX_2080_TI",
    "THRUST_DEFAULT",
    "TUNED",
    # the core contribution
    "WarpSplit",
    "BlockSplit",
    "gather_warp",
    "gather_block",
    "scatter_warp",
    "conflict_free_dual_scan",
    # mergesort
    "gpu_mergesort",
    "MergesortResult",
    "serial_merge_block",
    "cf_merge_block",
    "blocksort_tile",
    # worst case
    "worstcase_merge_inputs",
    "worstcase_full_input",
    "theorem8_combined",
    # performance
    "occupancy",
    "throughput_sweep",
    "speedup_summary",
    # simulator
    "BankModel",
    "SharedMemory",
    "Counters",
    "Device",
]
