"""Input workload generators for experiments and tests."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.generators import (
        WORKLOADS,
        adversarial,
        derive_stream_seed,
        duplicate_runs,
        few_distinct,
        nearly_sorted,
        request_lengths,
        reverse_sorted,
        sawtooth,
        sorted_input,
        uniform_random,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "derive_stream_seed",
    "uniform_random",
    "sorted_input",
    "reverse_sorted",
    "nearly_sorted",
    "few_distinct",
    "duplicate_runs",
    "sawtooth",
    "request_lengths",
    "adversarial",
    "WORKLOADS",
]
