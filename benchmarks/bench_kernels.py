"""Micro-benchmarks of the simulator and engine primitives.

Not a paper artifact — these track the reproduction's own performance:
the lockstep executor, the batched (vectorized) engine lane, the full simulated
sort, and the cost-model conversion.
"""

from __future__ import annotations

import numpy as np
from conftest import attach

from repro.config import RTX_2080_TI
from repro.engine.lane import profile_serial_merges
from repro.mergesort import gpu_mergesort, serial_merge_block
from repro.perf import CostModel
from repro.sim import BankModel, Counters, SharedMemory


def test_bank_round_cost(benchmark):
    bm = BankModel(32)
    addrs = list(range(0, 32 * 15, 15))

    result = benchmark(bm.round_cost, addrs)
    assert result.replays == 0


def test_shared_memory_round(benchmark):
    shm = SharedMemory(1024, w=32)
    accesses = [(t, t * 17 % 1024) for t in range(32)]

    benchmark(shm.warp_read, accesses)


def test_lockstep_vs_engine_lane(benchmark):
    """The batched lane's speed advantage over the generator simulator."""
    rng = np.random.default_rng(0)
    E, u, w = 15, 64, 32
    vals = np.arange(u * E, dtype=np.int64)
    mask = rng.random(u * E) < 0.5
    a, b = vals[mask], vals[~mask]

    (lane,) = benchmark(profile_serial_merges, [(a, b)], E, w)
    _, sim = serial_merge_block(a, b, E, w, simulate_search=False)
    assert lane.shared_replays == sim.merge.shared_replays  # identical counts


def test_full_simulated_sort(benchmark):
    rng = np.random.default_rng(1)
    data = rng.integers(0, 10**6, 8 * 16 * 5)

    def run():
        return gpu_mergesort(data, E=5, u=16, w=8, variant="cf")

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.merge_replays == 0


def test_cost_model_conversion(benchmark):
    model = CostModel(RTX_2080_TI)
    counters = Counters(
        shared_read_rounds=10**6,
        shared_cycles=3 * 10**6,
        global_read_transactions=10**5,
        compute_ops=10**7,
    )

    breakdown = benchmark(model.estimate, counters, 0.75, 10)
    assert breakdown.total_us > 0
    attach(benchmark, total_us=round(breakdown.total_us, 1))
