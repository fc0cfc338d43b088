"""Rendering of the paper's figures and tables from measured data.

Figures are reproduced as text: shared memory is drawn as the paper draws
it — a ``w``-row matrix, one row per bank, data in column-major order —
with cell labels and per-round access markers taken from live simulation
traces, never from the formulas under test.

Every public entry point returns a plain string, so the CLI prints it and
the tests assert on its structure.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.grid import BankGrid
    from repro.analysis.figures import (
        figure1,
        figure2,
        figure3,
        figure4,
        figure7,
        figure8,
    )
    from repro.analysis.tables import (
        karsin_table,
        occupancy_table,
        theorem8_table,
        throughput_table,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "BankGrid",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure7",
    "figure8",
    "theorem8_table",
    "occupancy_table",
    "karsin_table",
    "throughput_table",
]
