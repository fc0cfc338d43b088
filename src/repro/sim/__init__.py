"""Warp-synchronous GPU shared-memory simulator (the paper's DMM model).

The paper analyzes shared-memory algorithms in the Distributed Memory
Machine: ``w`` synchronous processors (a warp) and ``w`` memory modules
(banks), where address ``j`` resides in bank ``j mod w`` and concurrent
accesses to distinct addresses in one bank serialize.  This subpackage is an
executable version of that model:

* :mod:`repro.sim.banks` — the address-to-bank map and the cost of one
  warp-wide access round.
* :mod:`repro.sim.memory` — :class:`~repro.sim.memory.SharedMemory` (bank
  conflict accounting, broadcast semantics) and
  :class:`~repro.sim.memory.GlobalMemory` (coalesced transaction
  accounting).
* :mod:`repro.sim.registers` — per-thread register files; static-index
  accesses are free, dynamic indexing can be flagged (mirrors the CUDA
  local-memory spill the paper works around with oblivious merging).
* :mod:`repro.sim.instructions` — the micro-ops a thread program may yield.
* :mod:`repro.sim.warp` / :mod:`repro.sim.block` — lockstep execution of
  per-thread generator programs, warps grouped into thread blocks with
  barrier synchronization.
* :mod:`repro.sim.device` — multi-block kernel launches on a
  :class:`~repro.config.DeviceSpec`, aggregating counters.
* :mod:`repro.sim.counters` / :mod:`repro.sim.trace` — statistics and
  per-round access traces (used to render the paper's figures).

Execution is *functional*: data really moves, sorts really sort, and every
shared-memory round's conflict cost is measured from the actual addresses —
never assumed.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.banks import BankModel
    from repro.sim.block import ThreadBlock
    from repro.sim.counters import Counters
    from repro.sim.device import Device
    from repro.sim.instructions import (
        Compute,
        GlobalRead,
        GlobalWrite,
        SharedRead,
        SharedWrite,
        Shuffle,
        Sync,
    )
    from repro.sim.memory import GlobalMemory, SharedMemory
    from repro.sim.registers import RegisterFile
    from repro.sim.trace import AccessEvent, AccessTrace
    from repro.sim.warp import Warp
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "BankModel",
    "Counters",
    "SharedMemory",
    "GlobalMemory",
    "RegisterFile",
    "SharedRead",
    "SharedWrite",
    "GlobalRead",
    "GlobalWrite",
    "Compute",
    "Sync",
    "Shuffle",
    "Warp",
    "ThreadBlock",
    "Device",
    "AccessTrace",
    "AccessEvent",
]
