#!/usr/bin/env python3
"""The Section 4 adversary: slow down Thrust mergesort, fail against CF-Merge.

Builds the generalized worst-case input (adversarial at every merge level,
including blocksort's whole-warp levels), runs both mergesort variants, and
compares against a random input of the same size — reproducing the ~50%
worst-case slowdown of the unmodified implementation and CF-Merge's
immunity.

Run:  python examples/worst_case_attack.py
"""

import numpy as np

from repro import gpu_mergesort, theorem8_combined, worstcase_full_input
from repro.engine.lane import profile_serial_merges
from repro.workloads import uniform_random
from repro.worstcase import worstcase_merge_inputs


def merge_cycles(result) -> int:
    merge = result.merge_stats.merge + result.blocksort_stats.merge
    return merge.shared_cycles


def main() -> None:
    E, u, w = 5, 16, 8
    n_tiles = 8
    adversarial = worstcase_full_input(n_tiles, E, u, w)
    random_data = uniform_random(len(adversarial), seed=0)
    print(f"n = {len(adversarial)} elements, E={E}, u={u}, w={w}\n")

    # --- single-merge anatomy: one warp's worst-case merge ---------------
    a, b = worstcase_merge_inputs(w, E)
    profile = profile_serial_merges([(a, b)], E, w)[0]
    print("one warp's worst-case merge (Thrust's serial merge):")
    print(f"  Theorem 8 aligned conflicts : {theorem8_combined(w, E)}")
    print(f"  measured excess accesses    : {profile.shared_excess}")
    print(f"  replays per merge step      : "
          f"{profile.shared_replays / profile.shared_read_rounds:.2f} "
          f"(random inputs: ~2-3)\n")

    # --- full pipeline --------------------------------------------------
    rows = []
    for name, data in (("random", random_data), ("worst-case", adversarial)):
        for variant in ("thrust", "cf"):
            result = gpu_mergesort(data, E=E, u=u, w=w, variant=variant)
            assert np.array_equal(result.data, np.sort(data))
            rows.append((name, variant, merge_cycles(result)))

    print(f"{'input':>12} {'variant':>8} {'merge-phase shared cycles':>26}")
    for name, variant, cycles in rows:
        print(f"{name:>12} {variant:>8} {cycles:>26}")

    t_rand = next(c for n, v, c in rows if n == "random" and v == "thrust")
    t_worst = next(c for n, v, c in rows if n == "worst-case" and v == "thrust")
    c_worst = next(c for n, v, c in rows if n == "worst-case" and v == "cf")
    print(f"\nThrust slowdown on the adversarial input : {t_worst / t_rand:.2f}x")
    print(f"CF-Merge conflict cycles on the same input: flat "
          f"({c_worst} cycles, zero replays) — the attack has no target left.")


if __name__ == "__main__":
    main()
