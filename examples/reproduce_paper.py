#!/usr/bin/env python3
"""Guided tour: the paper's whole argument in one runnable script.

Walks the SPAA 2025 paper's storyline with live measurements at each
step — small geometries so everything is instant.  For the full-scale
figures use ``python -m repro fig5`` / ``fig6``.

Run:  python examples/reproduce_paper.py
"""

import numpy as np

from repro import BankModel, gpu_mergesort, theorem8_combined
from repro.core import WarpSplit, gather_warp, warp_gather_schedule
from repro.core.verify import rounds_are_complete_residue_systems
from repro.engine.lane import profile_serial_merges
from repro.numtheory import coprime
from repro.worstcase import worstcase_full_input, worstcase_merge_inputs


def step(n: int, title: str) -> None:
    print(f"\n--- step {n}: {title} " + "-" * max(0, 48 - len(title)))


def main() -> None:
    w, E = 8, 5
    print("Eliminating Bank Conflicts in GPU Mergesort — the argument, live.")

    step(1, "banks serialize strided access")
    bm = BankModel(w)
    for stride in (E, w // 2):
        cost = bm.round_cost(bm.strided_access(0, stride))
        tag = "coprime" if coprime(w, stride) else "shared divisor"
        print(f"  stride {stride} ({tag}): {cost.cycles} cycle(s)")

    step(2, "random merges conflict a little (Karsin's 2-3)")
    rng = np.random.default_rng(0)
    vals = np.arange(32 * 15)
    mask = rng.random(len(vals)) < 0.5
    prof = profile_serial_merges([(vals[mask], vals[~mask])], 15, 32)[0]
    print(f"  measured: {prof.shared_replays / prof.shared_read_rounds:.2f} replays/step")

    step(3, "adversarial merges conflict a lot (Section 4)")
    a, b = worstcase_merge_inputs(32, 15)
    prof = profile_serial_merges([(a, b)], 15, 32)[0]
    print(f"  measured: {prof.shared_replays / prof.shared_read_rounds:.2f} replays/step"
          f"  (Theorem 8 aligned count: {theorem8_combined(32, 15)})")

    step(4, "the gather's rounds are complete residue systems")
    split = WarpSplit(E=E, a_sizes=(2, 5, 0, 3, 4, 1, 2, 3))
    sched = warp_gather_schedule(split)
    print(f"  every round a CRS: {rounds_are_complete_residue_systems(sched, w)}")
    regs, counters, _ = gather_warp(np.arange(split.n_a), np.arange(split.n_b), split)
    print(f"  simulated gather replays: {counters.shared_replays}")

    step(5, "the full sort, attacked and defended")
    data = worstcase_full_input(4, E, 16, w)
    thrust = gpu_mergesort(data, E, 16, w, "thrust")
    cf = gpu_mergesort(data, E, 16, w, "cf")
    t_cycles = thrust.merge_stats.merge.shared_cycles
    c_cycles = cf.merge_stats.merge.shared_cycles
    print(f"  Thrust merge cycles on the adversary : {t_cycles}")
    print(f"  CF-Merge merge cycles, same input    : {c_cycles} "
          f"(replays: {cf.merge_replays})")
    assert np.array_equal(thrust.data, cf.data)

    step(6, "and on random input, CF costs ~nothing")
    rand = np.random.default_rng(1).permutation(len(data))
    thrust_r = gpu_mergesort(rand, E, 16, w, "thrust")
    cf_r = gpu_mergesort(rand, E, 16, w, "cf")
    print(f"  Thrust: {thrust_r.merge_stats.merge.shared_cycles} cycles;"
          f"  CF: {cf_r.merge_stats.merge.shared_cycles} cycles")
    print("\nDone — see EXPERIMENTS.md for the paper-scale numbers.")


if __name__ == "__main__":
    main()
