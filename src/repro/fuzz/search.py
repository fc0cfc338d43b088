"""Score-guided adversarial search for baseline worst cases.

Searches the space of warp-level merges at one ``(w, E)``: a candidate
is an interleaving mask over ``w * E`` distinct values (``True`` -> run
A, ``False`` -> run B), scored by the baseline serial merge's
merge-phase excess (:func:`repro.engine.lane.profile_serial_merges` —
the vectorized profile, bit-identical to the lockstep simulator, so
thousands of evaluations run in seconds).

Simulated annealing over two move kinds — swap one A element with one B
element (70%), or flip a window of the mask (30%) — with a geometric
temperature schedule.  The acceptance criterion is the only place the
score is used, so the search knows nothing of Section 4's construction;
that it *rediscovers* inputs meeting Theorem 8's closed form is the
independent evidence the campaign report records (``matched``).  The
dual claim rides along: the best input found is replayed through
CF-Merge, whose replay count must stay zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.engine.lane import profile_cf_merges, profile_serial_merges
from repro.errors import ParameterError
from repro.worstcase import theorem8_combined

__all__ = ["SearchResult", "adversarial_search", "mask_to_inputs"]

Array = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

#: Annealing temperature schedule (geometric, in score units).
_T_START = 3.0
_T_END = 0.05
#: Probability of the swap move (vs window flip).
_P_SWAP = 0.7


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one annealing run at one ``(w, E)``."""

    w: int
    E: int
    iters: int
    seed: int
    #: Best baseline merge-phase excess found.
    best_excess: int
    #: Theorem 8's closed form at this (w, E).
    formula: int
    #: Did the search independently reach the analytic worst case?
    #: (Measured excess meets the closed form; it may exceed it — the
    #: formula counts the scan conflicts the proof constructs, while the
    #: measurement includes head loads and incidental conflicts too.)
    matched: bool
    #: CF-Merge's replay count on the best input (the dual claim: 0).
    cf_merge_replays: int
    #: The best interleaving mask (1 -> run A), replayable.
    best_mask: tuple[int, ...]
    #: (iteration, excess) whenever the best improved.
    improvements: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[str, Any]:
        """JSON form for campaign reports."""
        return {
            "w": self.w,
            "E": self.E,
            "iters": self.iters,
            "seed": self.seed,
            "best_excess": self.best_excess,
            "formula": self.formula,
            "matched": self.matched,
            "cf_merge_replays": self.cf_merge_replays,
            "best_mask": list(self.best_mask),
            "improvements": [list(pair) for pair in self.improvements],
        }


def mask_to_inputs(mask: BoolArray) -> tuple[Array, Array]:
    """Interleaving mask -> the two sorted runs (distinct values)."""
    values = np.arange(len(mask), dtype=np.int64)
    return values[mask], values[~mask]


def _repair(mask: BoolArray) -> BoolArray:
    """Keep both runs non-empty."""
    if not mask.any():
        mask[0] = True
    if mask.all():
        mask[-1] = False
    return mask


def _excess(mask: BoolArray, E: int, w: int) -> int:
    a, b = mask_to_inputs(mask)
    return int(profile_serial_merges([(a, b)], E, w)[0].shared_excess)


def adversarial_search(
    w: int, E: int, *, iters: int = 2000, seed: int = 0
) -> SearchResult:
    """Anneal an interleaving mask toward maximal baseline merge excess."""
    if w < 2 or E < 2:
        raise ParameterError(f"need w >= 2 and E >= 2, got w={w}, E={E}")
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    total = w * E
    rng = np.random.default_rng([seed, w, E])

    mask = _repair(rng.random(total) < 0.5)
    current = _excess(mask, E, w)
    best = current
    best_mask = mask.copy()
    improvements: list[tuple[int, int]] = [(0, best)]

    for iteration in range(1, iters + 1):
        candidate = mask.copy()
        if float(rng.random()) < _P_SWAP:
            trues = np.flatnonzero(candidate)
            falses = np.flatnonzero(~candidate)
            i = int(trues[int(rng.integers(0, len(trues)))])
            j = int(falses[int(rng.integers(0, len(falses)))])
            candidate[i] = False
            candidate[j] = True
        else:
            lo = int(rng.integers(0, total))
            length = int(rng.integers(1, max(2, total // 4)))
            candidate[lo : min(total, lo + length)] ^= True
            candidate = _repair(candidate)
        score = _excess(candidate, E, w)
        temperature = _T_START * (_T_END / _T_START) ** (iteration / iters)
        accept = score >= current or float(rng.random()) < math.exp(
            (score - current) / temperature
        )
        if accept:
            mask, current = candidate, score
            if score > best:
                best, best_mask = score, candidate.copy()
                improvements.append((iteration, score))

    formula = int(theorem8_combined(w, E))
    a, b = mask_to_inputs(best_mask)
    cf_replays = int(profile_cf_merges([(a, b)], E, w)[0].shared_replays)
    return SearchResult(
        w=w,
        E=E,
        iters=iters,
        seed=seed,
        best_excess=int(best),
        formula=formula,
        matched=bool(best >= formula),
        cf_merge_replays=cf_replays,
        best_mask=tuple(int(v) for v in best_mask),
        improvements=tuple(improvements),
    )
