"""Number-theoretic foundations used by the bank-conflict-free schedules.

This subpackage implements Appendix A of the paper (congruences, greatest
common divisors, modular inverses, complete residue systems) together with
the concrete residue-set constructions of Section 3:

* :func:`repro.numtheory.core.gcd`, :func:`~repro.numtheory.core.extended_gcd`,
  :func:`~repro.numtheory.core.mod_inverse`, and friends — Definitions 10-15,
  Corollaries 16-18.
* :class:`repro.numtheory.residues.ResidueSystem` and the set builders
  :func:`~repro.numtheory.residues.R_j`,
  :func:`~repro.numtheory.residues.R_j_ell`,
  :func:`~repro.numtheory.residues.D_ell`,
  :func:`~repro.numtheory.residues.R_prime_j` — Lemmas 1-4 and Corollary 3.

Everything here is pure, deterministic, and independent of the simulator, so
it can be unit-tested exhaustively and reused by the schedule verifiers.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.numtheory.core import (
        coprime,
        extended_gcd,
        euclid_division,
        gcd,
        lcm,
        mod_inverse,
    )
    from repro.numtheory.residues import (
        D_ell,
        R_j,
        R_j_ell,
        R_prime_j,
        is_complete_residue_system,
        residues_mod,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "gcd",
    "extended_gcd",
    "lcm",
    "coprime",
    "mod_inverse",
    "euclid_division",
    "R_j",
    "R_j_ell",
    "D_ell",
    "R_prime_j",
    "is_complete_residue_system",
    "residues_mod",
]
