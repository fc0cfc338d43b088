"""The shared statistics helpers: one percentile definition for everyone."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.telemetry.stats import CounterSet, flatten_numeric, percentile, summarize


class TestPercentile:
    def test_empty_sample_reports_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.0) == 0.0
        assert percentile([], 1.0) == 0.0

    def test_single_element_for_every_q(self):
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert percentile([7.5], q) == 7.5

    def test_q_zero_is_the_minimum(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0

    def test_q_one_is_the_maximum(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_nearest_rank_interior(self):
        values = [float(v) for v in range(1, 102)]  # 1..101, n-1 = 100
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.95) == 96.0

    def test_matches_service_latency_definition(self):
        # The service's p50/p95 used this exact formula before it moved
        # into telemetry.stats; pin the numbers so the dedup is behavior
        # preserving.
        values = sorted([0.4, 0.1, 0.2, 0.3])
        rank_50 = min(len(values) - 1, max(0, round(0.5 * (len(values) - 1))))
        assert percentile(values, 0.5) == values[rank_50]


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary == {
            "count": 0.0, "mean": 0.0, "min": 0.0,
            "p50": 0.0, "p95": 0.0, "max": 0.0,
        }

    def test_unsorted_input_is_sorted_first(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert summary["count"] == 3.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["p50"] == 2.0
        assert summary["mean"] == pytest.approx(2.0)


class TestFlattenNumeric:
    def test_nested_mappings_become_dotted_paths(self):
        out: dict[str, float] = {}
        flatten_numeric("", {"a": {"b": 1, "c": 2.5}, "d": 3}, out)
        assert out == {"a.b": 1.0, "a.c": 2.5, "d": 3.0}

    def test_booleans_and_non_numerics_are_skipped(self):
        out: dict[str, float] = {}
        flatten_numeric("", {"flag": True, "name": "x", "n": 4}, out)
        assert out == {"n": 4.0}

    def test_prefix_is_prepended(self):
        out: dict[str, float] = {}
        flatten_numeric("root", {"leaf": 1}, out)
        assert out == {"root.leaf": 1.0}


class TestCounterSet:
    def _set(self) -> CounterSet:
        return CounterSet("zeta", "alpha", "high", "mid", peaks=("high",))

    def test_snapshot_keeps_declared_order(self):
        counters = self._set()
        counters.add(mid=2, zeta=1)
        assert list(counters.snapshot()) == ["zeta", "alpha", "high", "mid"]
        assert counters.snapshot() == {"zeta": 1, "alpha": 0, "high": 0, "mid": 2}

    def test_counters_name_the_monotonic_values(self):
        assert self._set().counters == ("zeta", "alpha", "mid")

    def test_undeclared_name_raises_key_error(self):
        counters = self._set()
        with pytest.raises(KeyError):
            counters.add(beta=1)

    def test_peak_keeps_the_maximum(self):
        counters = self._set()
        for value in (3, 7, 5):
            counters.add(high=value, mid=1)
        assert counters.snapshot()["high"] == 7
        assert counters.snapshot()["mid"] == 3

    def test_reset_zeroes_every_value(self):
        counters = self._set()
        counters.add(zeta=4, alpha=1, mid=9, high=6)
        counters.reset()
        assert set(counters.snapshot().values()) == {0}

    def test_concurrent_adds_sum_exactly(self):
        counters = self._set()
        threads, calls = 8, 10_000

        def work() -> None:
            for _ in range(calls):
                counters.add(zeta=1, mid=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        snap = counters.snapshot()
        assert snap["zeta"] == threads * calls
        assert snap["mid"] == 2 * threads * calls
