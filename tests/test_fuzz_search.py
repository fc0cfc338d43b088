"""Adversarial search: rediscovering Theorem 8 without being told it.

The annealer only sees the baseline merge-phase excess counter — it has
no knowledge of the Section 4 construction.  That it still reaches the
closed form is the campaign's independent evidence for the bound, and
the dual claim (CF-Merge stays at zero replays on the adversarial input
the search produces) rides along.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fuzz.search import SearchResult, adversarial_search, mask_to_inputs
from repro.worstcase import theorem8_combined


@pytest.fixture(scope="module")
def found() -> SearchResult:
    return adversarial_search(12, 5, iters=2000, seed=0)


class TestMaskToInputs:
    def test_partitions_distinct_values(self):
        mask = np.array([True, False, True, True, False], dtype=bool)
        a, b = mask_to_inputs(mask)
        assert a.tolist() == [0, 2, 3]
        assert b.tolist() == [1, 4]
        assert len(np.intersect1d(a, b)) == 0


class TestAdversarialSearch:
    def test_rediscovers_the_theorem8_worst_case(self, found):
        # The acceptance bar: search meets the analytic prediction at
        # (w, E) = (12, 5) from replay counters alone.
        assert found.formula == theorem8_combined(12, 5)
        assert found.best_excess >= found.formula
        assert found.matched

    def test_cf_merge_is_conflict_free_on_the_found_input(self, found):
        assert found.cf_merge_replays == 0

    def test_deterministic_per_seed(self, found):
        again = adversarial_search(12, 5, iters=2000, seed=0)
        assert again == found

    def test_best_mask_replays_to_the_recorded_excess(self, found):
        # The search scores through the engine lane; the lockstep
        # simulator must reproduce the recorded excess exactly.
        from repro.mergesort import serial_merge_block

        mask = np.asarray(found.best_mask, dtype=bool)
        a, b = mask_to_inputs(mask)
        assert len(a) + len(b) == 12 * 5
        _, sim = serial_merge_block(a, b, 5, 12, simulate_search=False)
        assert sim.merge.shared_excess == found.best_excess

    def test_improvements_are_monotone(self, found):
        iterations = [i for i, _ in found.improvements]
        scores = [s for _, s in found.improvements]
        assert iterations == sorted(iterations)
        assert scores == sorted(scores)
        assert scores[-1] == found.best_excess

    def test_as_dict_is_json_serializable(self, found):
        payload = found.as_dict()
        json.dumps(payload)
        assert payload["matched"] is True

    @pytest.mark.parametrize("w,E,iters", [(1, 5, 10), (12, 1, 10), (12, 5, 0)])
    def test_invalid_parameters_rejected(self, w, E, iters):
        with pytest.raises(ParameterError):
            adversarial_search(w, E, iters=iters)
