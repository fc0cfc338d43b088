"""The ``repro cluster-sort`` verb: partition-wise and external sorts.

Closed-loop smoke for the cluster layer: synthesize a deterministic
workload, sort it through the partition-wise planner/pool (or, with
``--external``, the out-of-core external sort under ``--budget-keys``),
verify against ``numpy.sort``, and print the plan/pool/spill summary.
Exit codes follow the repo convention: 0 ok, 1 mismatch, 2 bad
parameters.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import numpy as np

from repro.cluster.executor import cluster_sort
from repro.cluster.external import external_sort
from repro.cluster.pool import ClusterPool
from repro.cluster.stats import cluster_stats
from repro.errors import ParameterError
from repro.workloads import uniform_random

__all__ = ["run_cluster_sort", "add_cluster_arguments", "dispatch"]


def _run_external(args: argparse.Namespace, data: np.ndarray) -> int:
    """The ``--external`` path: spill, merge, verify, report."""

    def sort_in(directory: str) -> int:
        result = external_sort(data, args.budget_keys, directory)
        merged = result.sorted_array()
        ok = bool(np.array_equal(merged, np.sort(data)))
        stats = result.stats
        print(
            f"external-sort: n={result.n} budget={args.budget_keys} keys -> "
            f"{stats.runs_written} runs, {stats.merge_rounds} merge rounds"
        )
        print(
            f"spill: {stats.keys_spilled} keys out, {stats.keys_read_back} keys "
            f"back, peak resident {stats.peak_resident_keys} keys"
        )
        print("verified: sorted output matches numpy.sort" if ok else "MISMATCH")
        return 0 if ok else 1

    if args.spill_dir is not None:
        return sort_in(args.spill_dir)
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as scratch:
        return sort_in(scratch)


def run_cluster_sort(args: argparse.Namespace) -> int:
    """Run one cluster (or external) sort and verify it end to end."""
    data = uniform_random(args.cluster_keys, seed=args.seed)
    if args.external:
        return _run_external(args, data)
    with ClusterPool(args.procs) as pool:
        result = cluster_sort(
            data,
            chunk=args.chunk_keys,
            parts=args.parts,
            backend=args.cluster_backend,
            pool=pool,
        )
    ok = bool(np.array_equal(result.data, np.sort(data)))
    stats = cluster_stats()
    print(
        f"cluster-sort: n={len(data)} chunk={args.chunk_keys} parts={args.parts} "
        f"backend={args.cluster_backend} procs={args.procs}"
    )
    print(
        f"plan {result.plan.key[:12]}…: {len(result.plan.sort_tasks)} sort + "
        f"{len(result.plan.merge_tasks)} merge tasks, "
        f"{result.launches} simulated launches, "
        f"{result.counters.shared_replays} shared replays"
    )
    print(
        f"pool: {stats['tasks_executed']} tasks "
        f"({stats['tasks_process']} cross-process), "
        f"{stats['shm_bytes_shared']} shared bytes"
    )
    print("verified: output matches numpy.sort" if ok else "MISMATCH")
    return 0 if ok else 1


def add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``cluster-sort`` flag group on the main CLI parser."""
    group = parser.add_argument_group("cluster (cluster-sort)")
    group.add_argument(
        "--cluster-keys", type=int, default=4096, dest="cluster_keys",
        help="(cluster-sort) keys in the synthetic workload (default 4096)",
    )
    group.add_argument(
        "--chunk-keys", type=int, default=640, dest="chunk_keys",
        help="(cluster-sort) keys per partition chunk (default 640)",
    )
    group.add_argument(
        "--parts", type=int, default=4,
        help="(cluster-sort) independent merge partitions (default 4)",
    )
    group.add_argument(
        "--procs", type=int, default=0,
        help="(cluster-sort) worker processes (0 = inline, default 0)",
    )
    group.add_argument(
        "--cluster-backend", default="cf-batched", dest="cluster_backend",
        help="(cluster-sort) per-chunk sort backend (default cf-batched)",
    )
    group.add_argument(
        "--external", action="store_true",
        help="(cluster-sort) run the out-of-core external sort instead",
    )
    group.add_argument(
        "--budget-keys", type=int, default=1024, dest="budget_keys",
        help="(cluster-sort --external) resident-key memory budget (default 1024)",
    )
    group.add_argument(
        "--spill-dir", default=None, dest="spill_dir", metavar="DIR",
        help="(cluster-sort --external) run-file directory (default: temp dir)",
    )


def dispatch(args: argparse.Namespace) -> int:
    """Route a parsed ``cluster-sort`` invocation; map errors to codes."""
    try:
        return run_cluster_sort(args)
    except ParameterError as exc:
        print(f"cluster-sort: {exc}", file=sys.stderr)
        return 2
