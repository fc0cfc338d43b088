"""Wall-clock benchmark of the repro sorting system, one workload per run.

    python3 wallbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``BENCHMARK.json`` lists ``sort-long`` and
``serve-mixed``; ``serve-short`` is for runs by hand (see WORKLOADS.md).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` installs the timing shims of ``tracing.py`` and
reports the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results (and, when
traced, every span) are written under ``wallbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

#: The seed the recorded numbers in WORKLOADS.md were taken with.
DEFAULT_SEED = 1
#: Fresh interpreters per run whose least set-up time is ``setup_s``: half
#: before the timed phases, half after, so they sample two stretches of the
#: host's fluctuating speed.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120.0

#: Every end-to-end metric, ``name -> unit``, in output order.
END_TO_END: dict[str, str] = {
    "keys_per_s": "keys/s",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_replays_per_key": "replays/key",
    "sim_modeled_us_per_key": "us/key",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-short", "sort-long", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Fresh-interpreter set-up times: spawn to the probe's ``ready`` line."""
    env = dict(os.environ)
    env.pop("REPRO_CLUSTER_PROCS", None)
    command = [sys.executable, str(HERE / "probe_setup.py"),
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env) as proc:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            try:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe did not exit") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def _number(value: float) -> float:
    # A failed request's latency is infinite; JSON has no infinity.
    return value if math.isfinite(value) else sys.float_info.max


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"wallbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_CLUSTER_PROCS", None)
    sys.path.insert(0, str(SRC))

    import layers
    from tracing import Recorder
    from workloads import WORKLOADS, Tally

    load = WORKLOADS[args.workload]
    tally = Tally()
    state = load.setup(args.seed, tally)
    recorder = Recorder() if args.trace else None
    setups = [] if recorder else setup_seconds(args.workload, args.seed, SETUP_PROBES // 2)
    outcome = load.measure(state, args.seed, args.seconds, tally, recorder)
    if outcome.rejected:
        print(f"wallbench: run rejected: {outcome.rejected}", file=sys.stderr)
        return 3

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, **outcome.extra}
    if recorder is None:
        setups += setup_seconds(args.workload, args.seed, SETUP_PROBES - len(setups))
        values = dict(outcome.metrics)
        values["setup_s"] = (min(setups), "s")
        metrics = {name: values[name] for name in END_TO_END}
        report["setup_samples_s"] = setups
    else:
        spans = recorder.spans
        figures = layers.layer_metrics(spans, outcome.layer)
        metrics = {name: (figures[name], unit) for name, unit in layers.PER_LAYER.items()}
        report["self_time_s"] = layers.self_time_table(spans)
        if "requests" in outcome.layer:
            parts = layers.request_breakdown(spans, outcome.layer["requests"])
            report["request_breakdown"] = parts
            outcome.notes.append(
                "open-loop latency, mean ms: " + " + ".join(
                    f"{name} {parts[name] * 1e3:.3f}" for name in layers.REQUEST_PARTS
                )
            )
        if "mergesort_over_wall" in outcome.layer:
            report["mergesort_over_wall"] = outcome.layer["mergesort_over_wall"]
            outcome.notes.append(
                f"repro.mergesort self time = {report['mergesort_over_wall']:.3f}"
                " x untraced call wall time (fastest traced and untraced call per segment)"
            )
        outcome.notes.append(
            f"tracing overhead: traced/untraced keys_per_s = "
            f"{figures['trace.keys_per_s_ratio']:.3f}"
        )
        recorder.dump(RESULTS / f"{stem}-spans.jsonl")

    failed_frac = tally.failed / max(tally.attempted, 1)
    outcome.notes.append(
        f"failed_frac={failed_frac:g} ({tally.errors} errors, {tally.shed} shed,"
        f" {tally.expired} expired, {tally.mismatched} mismatched of {tally.attempted})"
    )
    for note in outcome.notes:
        print(f"# {args.workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:36s} {value:14.6g} {unit}")

    report.update(
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        tally=vars(tally), failed_frac=failed_frac, notes=outcome.notes,
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": _number(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
