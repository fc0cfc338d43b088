"""Performance modeling: occupancy, cycle costs, and throughput sweeps.

The simulator measures *what happens* (rounds, replays, transactions);
this subpackage converts measurements into *time*:

* :mod:`repro.perf.occupancy` — the CUDA occupancy calculation that
  explains why ``E=15, u=512`` (100%) beats Thrust's default
  ``E=17, u=256`` (75%) on the modeled RTX 2080 Ti.
* :mod:`repro.perf.cost_model` — documented cycle constants turning
  counters into microseconds (see :mod:`repro.perf.calibration`).
* :mod:`repro.perf.throughput` — the Figures 5/6 experiment runner:
  per-tile costs are measured (exactly for the periodic worst case,
  sampled for random inputs) and composed over all levels and blocks of
  the full-scale sort.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# ``occupancy`` names both a function and a submodule, so it cannot be lazy
# (repro._lazy): once the submodule loads, the package attribute is the module.
from repro.perf.occupancy import OccupancyResult, occupancy

if TYPE_CHECKING:
    from repro.perf.cost_model import CostModel, CostBreakdown
    from repro.perf.pram import cf_merge_rounds, cf_pipeline_rounds
    from repro.perf.throughput import ThroughputPoint, throughput_sweep, speedup_summary
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "occupancy",
    "OccupancyResult",
    "CostModel",
    "CostBreakdown",
    "throughput_sweep",
    "ThroughputPoint",
    "speedup_summary",
    "cf_merge_rounds",
    "cf_pipeline_rounds",
]
