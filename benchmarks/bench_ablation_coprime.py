"""Ablation — the coprime-E heuristic vs CF-Merge.

Thrust's existing defense against conflicts is choosing ``E`` coprime with
``w``.  This ablation measures what the heuristic buys (and what it
doesn't): non-coprime ``E`` conflicts even on *random* inputs and even in
the staging passes, coprime ``E`` still loses on adversarial inputs, and
CF-Merge is flat everywhere.
"""

from __future__ import annotations

import numpy as np
from conftest import attach

from repro.engine.lane import profile_serial_merges
from repro.worstcase import worstcase_merge_inputs

W, U = 32, 64


def _random_pair(E, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.arange(U * E, dtype=np.int64)
    mask = rng.random(U * E) < 0.5
    return vals[mask], vals[~mask]


def test_ablation_coprime_protects_structured_passes(benchmark):
    """What the coprime heuristic actually buys: the *structured* passes.

    Thread-contiguous access rounds (blocksort's register staging, round
    ``m`` touching addresses ``{i*E + m}``) serialize ``gcd(w, E)`` deep —
    those are the rounds the heuristic keeps conflict free.  Measured via
    full blocksort simulation: E=16 staging replays dwarf E=15/17's.
    """
    from repro.mergesort import blocksort_tile

    rng = np.random.default_rng(0)

    def measure():
        out = {}
        for E in (15, 16, 17):
            tile = rng.integers(0, 10**6, 64 * E)
            _, stats = blocksort_tile(tile, E, W, "thrust")
            out[E] = stats.stage.shared_replays
        return out

    stage_replays = benchmark.pedantic(measure, rounds=2, iterations=1)
    assert stage_replays[15] == 0 and stage_replays[17] == 0  # coprime: free
    assert stage_replays[16] > 1000  # gcd 16: heavy serialization
    attach(benchmark, stage_replays={f"E={E}": r for E, r in stage_replays.items()})


def test_ablation_heuristic_fails_on_adversary(benchmark):
    """Coprime E helps on random inputs but not against Section 4."""

    def measure():
        out = {}
        for E in (15, 17):
            ra, rb = _random_pair(E, seed=1)
            rand = profile_serial_merges([(ra, rb)], E, W)[0]
            wa, wb = worstcase_merge_inputs(W, E, u=U)
            worst = profile_serial_merges([(wa, wb)], E, W)[0]
            out[E] = (
                rand.shared_replays / rand.shared_read_rounds,
                worst.shared_replays / worst.shared_read_rounds,
            )
        return out

    rates = benchmark(measure)
    for E, (rand_rate, worst_rate) in rates.items():
        assert worst_rate > 3 * rand_rate  # the heuristic is not a defense
    attach(
        benchmark,
        rand_vs_worst={f"E={E}": (round(r, 2), round(w_, 2)) for E, (r, w_) in rates.items()},
    )
