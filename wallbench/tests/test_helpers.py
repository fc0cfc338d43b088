"""Tests of the wall-clock benchmark's own arithmetic.

    python3 -m pytest wallbench/tests -q
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from harness import Span  # noqa: E402


def span(id_, name, start, end, parent=None, thread=1, batch=-1, count=0, phase="calls"):
    return Span(id_, name, parent, thread, batch, start, end, count, phase)


# -------------------------------------------------------------- percentiles


def test_quantile_matches_linear_interpolation():
    values = [4.0, 1.0, 3.0, 2.0]
    assert harness.quantile(values, 0.0) == 1.0
    assert harness.quantile(values, 1.0) == 4.0
    assert harness.quantile(values, 0.5) == 2.5
    assert harness.quantile(values, 0.25) == pytest.approx(1.75)


def test_quantile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        harness.quantile([], 0.5)
    with pytest.raises(ValueError):
        harness.quantile([1.0], 1.5)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [
        (10_000, 99.9, 10),
        (5_000, 99.0, 50),  # p99.9 would leave only 5 beyond
        (6_750, 99.0, 67),
        (1_000, 99.0, 10),
        (999, 95.0, 49),
        (525, 95.0, 26),
        (199, 90.0, 19),
        (100, 90.0, 10),
        (99, 75.0, 24),
        (40, 75.0, 10),
        (39, 50.0, 19),
        (5, 50.0, 2),
    ],
)
def test_tail_takes_highest_percentile_with_ten_beyond(n, percentile, beyond):
    tail = harness.tail([float(i) for i in range(n)])
    assert (tail.percentile, tail.beyond, tail.samples) == (percentile, beyond, n)
    assert tail.value == harness.quantile([float(i) for i in range(n)], percentile / 100)


def test_tail_counts_failures_as_infinite():
    values = [1.0] * 980 + [math.inf] * 20
    assert harness.tail(values).value == math.inf
    assert harness.median(values) == 1.0


def test_slices_are_contiguous_and_equal():
    assert harness.slices([1, 2, 3, 4, 5, 6, 7], 3) == [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ValueError):
        harness.slices([1.0], 2)


def test_sliced_tail_uses_the_slice_size_and_ignores_one_bad_slice():
    quiet = [float(i % 100) for i in range(1_000)]
    burst = [1000.0] * 1_000  # one slice hit by interference
    values = quiet * 2 + burst + quiet * 2
    tail = harness.sliced_tail(values, 5)
    assert (tail.percentile, tail.samples, tail.beyond) == (99.0, 5_000, 10)
    assert tail.value == harness.quantile(quiet, 0.99)
    assert harness.tail(values).value == 1000.0
    assert harness.sliced_median(values, 5) == harness.median(quiet)


def test_spread_is_interquartile_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == pytest.approx((q3 - q1) / q2)
    assert harness.spread([5.0] * 10) == 0.0


# ------------------------------------------------------------------ lateness


def test_lateness_is_start_minus_due():
    assert harness.lateness([1.0, 2.0], [1.5, 2.0]) == [0.5, 0.0]
    with pytest.raises(ValueError):
        harness.lateness([1.0], [])


def test_generator_behind_on_median_or_p99():
    on_time = [0.0001] * 990 + [0.004] * 10
    assert not harness.generator_behind(on_time, 0.005, 0.05)
    assert harness.generator_behind([0.006] * 100, 0.005, 0.05)
    stalled = [0.0] * 95 + [0.2] * 5
    assert harness.generator_behind(stalled, 0.005, 0.05)
    assert not harness.generator_behind([], 0.005, 0.05)


# ------------------------------------------------------- latency decomposition


def test_decompose_remainder_is_dispatch():
    parts = harness.decompose([10.0, 20.0, 30.0], [4.0, 8.0, 12.0], [5.0, 10.0, 15.0])
    assert (parts.latency, parts.wait, parts.exec, parts.dispatch) == (20.0, 8.0, 10.0, 2.0)
    assert parts.parts_over_latency == 1.0


def test_decompose_medians_need_not_add_up():
    # Skewed parts: the sum of medians differs from the median of sums.
    parts = harness.decompose([10.0, 10.0, 10.0], [0.0, 9.0, 1.0], [9.0, 0.0, 1.0])
    assert (parts.wait, parts.exec, parts.dispatch) == (1.0, 1.0, 1.0)
    assert parts.parts_over_latency == pytest.approx(0.3)


def test_decompose_rejects_ragged_input():
    with pytest.raises(ValueError):
        harness.decompose([1.0], [1.0, 2.0], [1.0])


def test_request_breakdown_measures_each_part():
    run_batch = span(0, "service.run_batch", 10.0, 14.0, batch=7, phase="open")
    # Due 0, submitted at 1, waited 6 (flush at 7), queued to 10, exec 4.5, done 14.5.
    rows = [(0.0, 1.0, 6.0, 4.5, 7, 14.5)]
    parts = layers.request_breakdown([run_batch], rows)
    assert parts["late"] == 1.0
    assert parts["wait"] == 6.0
    assert parts["queue"] == 3.0
    assert parts["exec"] == 4.5
    assert parts["fanout"] == 0.5
    assert set(parts) == set(layers.REQUEST_PARTS)


def test_mergesort_seconds_counts_only_the_mergesort_layer():
    spans = [
        span(0, "backend.baseline", 0.0, 10.0),
        span(1, "mergesort.blocksort_tile", 1.0, 4.0, parent=0),
        span(2, "mergesort.cf_merge_block", 5.0, 9.0, parent=0),
        span(3, "engine.profile", 6.0, 7.0, parent=2),
    ]
    # 3 s of blocksort plus 3 s of merge self time; the backend's own 3 s
    # and the nested engine second are outside the layer.
    assert layers.mergesort_seconds(spans) == 6.0


# ----------------------------------------------------------------- self time


def test_covered_unions_and_clips_intervals():
    assert harness.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert harness.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert harness.covered([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "backend", 0.0, 10.0),
        span(1, "blocksort", 1.0, 4.0, parent=0),
        span(2, "merge", 5.0, 9.0, parent=0),
        span(3, "inner", 6.0, 8.0, parent=2),
    ]
    own = harness.self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    # Self times of a single-threaded tree sum to the root's wall time.
    assert sum(own.values()) == spans[0].duration
    assert harness.self_time_by_name(spans) == {
        "backend": 3.0, "blocksort": 3.0, "merge": 2.0, "inner": 2.0,
    }


def test_runner_self_is_run_batch_minus_backend_per_batch():
    spans = [
        span(0, "service.run_batch", 0.0, 5.0, batch=1, thread=1),
        span(1, "backend.cf-batched", 1.0, 4.0, parent=0, batch=1, thread=1),
        span(2, "service.run_batch", 0.0, 2.0, batch=2, thread=2),
        span(3, "backend.cf-batched", 0.5, 1.0, parent=2, batch=2, thread=2),
    ]
    assert layers.runner_self(spans) == [2.0, 1.5]


def test_layer_metrics_report_every_metric_and_zero_for_absent_layers():
    from types import SimpleNamespace

    spans = [
        span(0, "backend.baseline", 0.0, 2.0, count=1000),
        span(1, "mergesort.blocksort_tile", 0.0, 0.5, parent=0, count=600),
        span(2, "mergesort.serial_merge_block", 0.5, 2.0, parent=0, count=900),
    ]
    delta = dict.fromkeys(
        ("plan_hits", "plan_misses", "arena_reuse", "arena_checkouts",
         "cluster_tasks", "shm_bytes"), 0.0,
    )
    counters = SimpleNamespace(shared_rounds=1500, shared_replays=300)
    out = layers.layer_metrics(spans, {
        "backlog": delta, "counters": counters, "keys_per_s_ratio": 0.9,
    })
    assert list(out) == list(layers.PER_LAYER)
    assert out["backend.baseline.us_per_key"] == pytest.approx(2000.0)
    assert out["mergesort.blocksort_ms_per_tile"] == pytest.approx(500.0)
    assert out["sim.rounds_per_s"] == pytest.approx(1500 / 2.0)
    assert out["sim.replays_per_round"] == pytest.approx(0.2)
    assert out["trace.keys_per_s_ratio"] == pytest.approx(0.9)
    assert out["service.wait_ms"] == 0.0 and out["engine.profile_ms"] == 0.0


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    # serve-short is run by hand only (WORKLOADS.md says why).
    assert {w["name"] for w in spec["workloads"]} == {"sort-long", "serve-mixed"}


def test_window_rates_bin_events_by_time():
    events = [(0.5, 10.0), (1.5, 10.0), (2.2, 20.0), (2.7, 20.0), (3.9, 10.0), (4.5, 99.0)]
    assert harness.window_rates(events, 0.0, 4.0, 4) == [10.0, 10.0, 40.0, 10.0]
    assert harness.window_rates(events, 0.0, 4.0, 1) == [70.0 / 4.0]
    with pytest.raises(ValueError):
        harness.window_rates(events, 1.0, 1.0, 2)
