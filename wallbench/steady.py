"""Run one workload on several seeds and report each metric's run-to-run spread.

    python3 wallbench/steady.py --workload sort-long --seeds 1-10

Spread is the interquartile distance over the median (Python's
``statistics.quantiles(values, n=4)``), compared with the metric's
``bound`` in ``BENCHMARK.json``: a steady metric stays under a third of
it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics
        ), flush=True)

    steady = True
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = harness.median(values)
        spread = harness.spread(values) if len(values) > 1 and med else 0.0
        ok = spread < metric["bound"] / 3
        steady &= ok
        print(f"{metric['name']:36s} median {med:14.6g}  spread {spread:.4f}"
              f"  bound {metric['bound']:g} -> {'ok' if ok else 'WIDE'}")
    return 0 if steady and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
