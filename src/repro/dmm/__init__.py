"""General DMM conflict mitigation: hashing-based shared-memory simulation.

Section 2 of the paper surveys the *granularity of parallel memories*
literature: generic PRAM-on-DMM simulations (Mehlhorn-Vishkin, Czumaj et
al.) tame module congestion with universal hashing, randomization and
replication — achieving small expected delay for *any* access pattern —
"[but] in practice, the overheads associated with the techniques used in
these general approaches ... make it impractical for high performance
implementations."

This subpackage makes that judgement measurable.  It provides a
universally hashed address-to-bank mapping
(:class:`~repro.dmm.hashing.UniversalHash`,
:class:`~repro.dmm.hashing.HashedBankModel`,
:class:`~repro.dmm.hashing.HashedSharedMemory`) that can stand in for the
stock bank model, and the ablation benchmark
(``benchmarks/bench_ablation_hashed_dmm.py``) compares the three defenses
on the Section 4 adversary:

* the **coprime heuristic** (Thrust today) — free, but no worst-case
  guarantee;
* **universal hashing** (the general DMM approach) — defeats the adversary
  *in expectation* (conflicts fall to random-input levels) but never
  reaches zero, charges hash arithmetic on every access, and destroys the
  carefully structured conflict-free passes (staging rounds that were free
  become ~2.5-deep);
* **CF-Merge** (the paper) — exactly zero, deterministically.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dmm.hashing import HashedBankModel, HashedSharedMemory, UniversalHash
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = ["UniversalHash", "HashedBankModel", "HashedSharedMemory"]
