"""Karsin et al.'s statistic — 2-3 bank conflicts per step on random inputs.

The paper leans on this measurement twice: it motivates Thrust's coprime
heuristic, and it prices CF-Merge's overhead ("equivalent to 2-3 extra
accesses").  The benchmark reproduces it with the replay metric on the
paper's parameters.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import attach

from repro.engine.lane import profile_serial_merges


@pytest.mark.parametrize("E", [15, 17])
def test_karsin_random_conflicts(benchmark, E):
    w, u, samples = 32, 256, 10
    rng = np.random.default_rng(E)
    pairs = []
    for _ in range(samples):
        vals = np.arange(u * E, dtype=np.int64)
        mask = rng.random(u * E) < 0.5
        pairs.append((vals[mask], vals[~mask]))

    def measure():
        per_step = [
            prof.shared_replays / prof.shared_read_rounds
            for prof in profile_serial_merges(pairs, E, w)
        ]
        return float(np.mean(per_step))

    mean_replays = benchmark(measure)
    assert 1.8 <= mean_replays <= 3.2  # "between 2 and 3"
    attach(benchmark, replays_per_step=round(mean_replays, 2))
