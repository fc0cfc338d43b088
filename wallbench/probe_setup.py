"""One set-up in a fresh interpreter, timed by ``run.py`` from spawn to ``ready``.

    python3 wallbench/probe_setup.py --workload serve-short --seed 1

Imports the program, builds the workload's service and runs its checked
warm-up pass, then prints ``ready`` and shuts the service down.  Exits
non-zero if a warm-up request failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, Tally

    load = WORKLOADS[args.workload]
    tally = Tally()
    state = load.setup(args.seed, tally)
    print("ready", flush=True)
    load.close(state)
    if tally.failed:
        print(f"probe_setup: {tally.failed} warm-up requests failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
