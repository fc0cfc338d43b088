"""Parallel, cached experiment runner (the sweeps' execution substrate).

The throughput sweeps, the Theorem 8 grid, and the ablations are
embarrassingly parallel across configurations, and every tile's counters
are a deterministic function of its parameters.  This package exploits
both facts:

* :mod:`repro.runner.spec` — :class:`SweepSpec` grids expanding into
  hashable :class:`TileJob` units;
* :mod:`repro.runner.specs` — the canonical grids (single source of
  truth for the CLI, the benchmark scripts, and CI);
* :mod:`repro.runner.measure` — pure per-job measurement workers;
* :mod:`repro.runner.cache` — content-addressed on-disk JSON cache keyed
  by ``(code version, job hash)``;
* :mod:`repro.runner.executor` — cache-aware ``ProcessPoolExecutor``
  fan-out with order-preserving, seeding-deterministic results;
* :mod:`repro.runner.report` — :class:`RunReport` artifacts and baseline
  comparison (the CI perf gate);
* :mod:`repro.runner.bench` — the ``python -m repro bench`` suite.

See ``docs/RUNNER.md`` for the architecture and the cache-key design.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runner.bench import build_bench_report, run_bench_gate
    from repro.runner.cache import ResultCache, code_version, default_cache_dir
    from repro.runner.executor import ExecutionStats, execute
    from repro.runner.measure import counters_from, run_tile_job, throughput_points
    from repro.runner.report import Regression, RunReport, compare_reports
    from repro.runner.spec import SweepSpec, TileJob, derive_seed, make_job
    from repro.runner.specs import (
        DEFENSES,
        PARAM_SETS,
        SWEEP_MODES,
        THEOREM8_GRID,
        bench_suite,
        defenses_spec,
        engine_spec,
        fig5_spec,
        fig6_spec,
        service_throughput_spec,
        sweep_args,
        theorem8_spec,
        throughput_spec,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "SweepSpec",
    "TileJob",
    "make_job",
    "derive_seed",
    "ResultCache",
    "code_version",
    "default_cache_dir",
    "ExecutionStats",
    "execute",
    "run_tile_job",
    "throughput_points",
    "counters_from",
    "RunReport",
    "Regression",
    "compare_reports",
    "build_bench_report",
    "run_bench_gate",
    "PARAM_SETS",
    "THEOREM8_GRID",
    "DEFENSES",
    "SWEEP_MODES",
    "sweep_args",
    "throughput_spec",
    "fig5_spec",
    "fig6_spec",
    "theorem8_spec",
    "defenses_spec",
    "service_throughput_spec",
    "engine_spec",
    "bench_suite",
]
