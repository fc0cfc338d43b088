"""Tests for the block-level dual scan."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import BlockSplit
from repro.core.dual_scan import conflict_free_dual_scan_block
from repro.errors import ParameterError


class TestBlockDualScan:
    def _inputs(self, split, seed=0):
        rng = random.Random(seed)
        total = split.total
        merged = np.cumsum([rng.randint(0, 4) for _ in range(total)])
        a_vals, b_vals = [], []
        pos = 0
        for i in range(split.u):
            n_ai = split.a_sizes[i]
            a_vals.extend(merged[pos : pos + n_ai])
            b_vals.extend(merged[pos + n_ai : pos + split.E])
            pos += split.E
        return np.array(a_vals), np.array(b_vals), merged

    @pytest.mark.parametrize("u,w,E", [(18, 6, 4), (24, 12, 5), (16, 8, 8)])
    def test_block_merge_scan(self, u, w, E):
        rng = random.Random(u)
        split = BlockSplit(E=E, w=w, a_sizes=tuple(rng.randint(0, E) for _ in range(u)))
        a, b, merged = self._inputs(split, seed=u)
        out, counters = conflict_free_dual_scan_block(a, b, split, "merge")
        assert counters.shared_replays == 0
        assert np.array_equal(np.sort(out), np.sort(merged))

    def test_custom_function(self):
        split = BlockSplit(E=4, w=6, a_sizes=(2,) * 18)
        a, b, _ = self._inputs(split, seed=1)
        out, counters = conflict_free_dual_scan_block(
            a, b, split, lambda ar, br: np.full(4, len(ar))
        )
        assert counters.shared_replays == 0
        assert set(out.tolist()) == {2}

    def test_unknown_name(self):
        split = BlockSplit(E=4, w=6, a_sizes=(2,) * 18)
        a, b, _ = self._inputs(split)
        with pytest.raises(ParameterError):
            conflict_free_dual_scan_block(a, b, split, "nope")

    def test_wrong_output_length(self):
        split = BlockSplit(E=4, w=6, a_sizes=(2,) * 18)
        a, b, _ = self._inputs(split)
        with pytest.raises(ParameterError):
            conflict_free_dual_scan_block(a, b, split, lambda ar, br: np.zeros(2))
