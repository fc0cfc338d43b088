"""End-to-end service behavior: equivalence, backpressure, deadlines, metrics."""

from __future__ import annotations

import gc
import random
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.errors import ParameterError, QueueFullError, ServiceError
from repro.runner.cache import ResultCache
from repro.runner.report import RunReport
from repro.service import (
    DEFAULT_BACKENDS,
    METRICS_SCHEMA,
    BatchPolicy,
    Client,
    ServiceMetrics,
    SortResult,
    SortService,
    available_backends,
    get_backend,
    register_backend,
)
from repro.service import jobs
from repro.service import metrics as metrics_module
from repro.service.metrics import BatchRecord
from repro.service.service import DEFAULT_PARAMS, DEFAULT_W
from repro.sim.counters import Counters
from repro.service.synthetic import synth_payloads


def _payloads(count: int, mix: str = "mixed", seed: int = 0):
    return synth_payloads(count, 8, 160, mix, seed, DEFAULT_PARAMS, DEFAULT_W)


class TestBackendRegistry:
    def test_defaults_registered(self):
        assert set(available_backends()) >= {"cf", "baseline", "numpy"}

    def test_unknown_backend_raises(self):
        with pytest.raises(ParameterError):
            get_backend("nope")

    def test_register_rejects_non_identifier(self):
        with pytest.raises(ParameterError):
            register_backend("not a name", get_backend("numpy"))

    @pytest.mark.parametrize("backend", ["cf", "baseline", "numpy"])
    def test_backends_agree_with_numpy_oracle(self, backend):
        # Dispatch equivalence: every backend returns the same segment-wise
        # sorted data for the same micro-batch content.
        data = np.concatenate(_payloads(6, seed=42))
        offsets, pos = [], 0
        for p in _payloads(6, seed=42):
            offsets.append(pos)
            pos += len(p)
        outcome = get_backend(backend)(data, offsets, DEFAULT_PARAMS, DEFAULT_W)
        reference = get_backend("numpy")(data, offsets, DEFAULT_PARAMS, DEFAULT_W)
        assert np.array_equal(outcome.data, reference.data)

    def test_cf_batch_has_fewer_replays_than_baseline(self):
        data = np.concatenate(_payloads(8, mix="adversarial", seed=1))
        offsets = list(
            np.cumsum([0] + [len(p) for p in _payloads(8, mix="adversarial", seed=1)])[:-1]
        )
        offsets = [int(o) for o in offsets]
        cf = get_backend("cf")(data, offsets, DEFAULT_PARAMS, DEFAULT_W)
        baseline = get_backend("baseline")(data, offsets, DEFAULT_PARAMS, DEFAULT_W)
        assert cf.counters.shared_replays < baseline.counters.shared_replays


class TestServiceEndToEnd:
    @pytest.mark.parametrize("backend", ["cf", "baseline", "numpy"])
    def test_submit_many_returns_sorted_results(self, backend):
        payloads = _payloads(12)
        with Client(service=SortService()) as client:
            results = client.submit_many(payloads, backend=backend, timeout=60)
        assert len(results) == len(payloads)
        for payload, result in zip(payloads, results):
            assert result.ok
            assert result.backend == backend
            assert result.batch_id >= 0
            assert np.array_equal(result.data, np.sort(payload))

    def test_mixed_backends_equivalent_results(self):
        payloads = _payloads(9, seed=5)
        sorted_by_backend = {}
        for backend in ("cf", "baseline", "numpy"):
            with Client(service=SortService()) as client:
                results = client.submit_many(payloads, backend=backend, timeout=60)
            sorted_by_backend[backend] = [r.data for r in results]
        for arrays in zip(*sorted_by_backend.values()):
            first = arrays[0]
            for other in arrays[1:]:
                assert np.array_equal(first, other)

    def test_sort_single_array(self):
        with Client() as client:
            out = client.sort(np.array([9, -3, 5, 0], dtype=np.int64))
        assert list(out) == [-3, 0, 5, 9]

    def test_submit_after_close_raises(self):
        service = SortService()
        service.close()
        with pytest.raises(ServiceError):
            service.submit(np.arange(4, dtype=np.int64))

    def test_submit_racing_close_is_refused_not_stranded(self):
        # The recorder holds submit between admission and enqueue until
        # close() has run: the late request must be refused, not queued
        # behind shards that have already exited.
        class HoldingRecorder:
            def __init__(self) -> None:
                self.admitted = threading.Event()
                self.release = threading.Event()

            def record(self, request) -> None:
                self.admitted.set()
                assert self.release.wait(10.0)

        recorder = HoldingRecorder()
        service = SortService(recorder=recorder)
        outcome: dict[str, object] = {}

        def submit() -> None:
            try:
                outcome["ticket"] = service.submit(np.arange(8, dtype=np.int64))
            except ServiceError as exc:
                outcome["error"] = exc

        submitter = threading.Thread(target=submit)
        submitter.start()
        assert recorder.admitted.wait(10.0)
        assert service.in_flight == 1
        service.close()
        recorder.release.set()
        submitter.join(10.0)
        assert not submitter.is_alive()
        assert "ticket" not in outcome
        assert isinstance(outcome["error"], ServiceError)
        assert service.in_flight == 0

    def test_results_report_latency_split(self):
        with Client(service=SortService()) as client:
            results = client.submit_many(_payloads(4), timeout=60)
        for result in results:
            assert result.wait_s >= 0.0
            assert result.service_s > 0.0
            assert result.latency_s == pytest.approx(result.wait_s + result.service_s)


class TestDirectDispatch:
    @pytest.mark.parametrize("cached", [False, True], ids=["direct", "cached"])
    def test_runner_job_only_with_a_cache(self, monkeypatch, tmp_path, cached):
        calls = dict.fromkeys(("batch_job", "execute"), 0)
        for name in calls:

            def spy(*args, _name=name, _original=getattr(jobs, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(jobs, name, spy)
        cache = ResultCache(tmp_path) if cached else None
        with SortService(cache=cache) as service:
            client = Client(service=service)
            for seed, backend in enumerate(DEFAULT_BACKENDS):
                payloads = _payloads(4, seed=seed)
                results = client.submit_many(payloads, backend=backend, timeout=60)
                for payload, result in zip(payloads, results):
                    assert np.array_equal(result.data, np.sort(payload)), backend
            batches = service.metrics.snapshot()["batches"]["count"]
        assert batches >= len(DEFAULT_BACKENDS)
        per_batch = batches if cached else 0
        assert calls == {"batch_job": per_batch, "execute": per_batch}


class TestBackpressureAndShedding:
    def test_load_shedding_when_queue_full(self, gated_backend):
        # Capacity 2, non-blocking: the third concurrent submit must shed.
        backend, gate = gated_backend
        service = SortService(policy=BatchPolicy(queue_capacity=2))
        try:
            service.submit(np.arange(8, dtype=np.int64), backend=backend)
            service.submit(np.arange(8, dtype=np.int64), backend=backend)
            with pytest.raises(QueueFullError):
                service.submit(np.arange(8, dtype=np.int64), backend=backend)
            assert service.metrics.snapshot()["requests"]["shed"] == 1
        finally:
            gate.set()
            service.close()

    def test_blocking_submit_waits_for_capacity(self):
        # With block=True the submit rides backpressure instead of shedding:
        # once the in-flight work drains, the blocked submit proceeds.
        policy = BatchPolicy(queue_capacity=2)
        results: list[SortResult] = []
        with SortService(policy=policy) as service:
            tickets = [
                service.submit(p, block=True, timeout=30.0) for p in _payloads(8)
            ]
            results = [t.result(30.0) for t in tickets]
        assert len(results) == 8
        assert all(r.ok for r in results)

    def test_blocking_submit_times_out_as_queue_full(self, gated_backend):
        backend, gate = gated_backend
        service = SortService(policy=BatchPolicy(queue_capacity=1))
        try:
            # Occupies the only slot until the gate opens.
            service.submit(np.arange(8, dtype=np.int64), backend=backend)
            with pytest.raises(QueueFullError):
                service.submit(
                    np.arange(8, dtype=np.int64), block=True, timeout=0.05
                )
        finally:
            gate.set()
            service.close()

    def test_in_flight_returns_to_zero(self):
        with SortService() as service:
            tickets = [service.submit(p) for p in _payloads(5)]
            for ticket in tickets:
                ticket.result(30.0)
            deadline = time.monotonic() + 5.0
            while service.in_flight and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.in_flight == 0


def _raising_backend(data, offsets, params, w):
    raise RuntimeError("backend exploded")


@pytest.fixture
def raising_backend(isolated_registry):
    """Register a backend that always raises, for this test only."""
    register_backend("raising", _raising_backend)
    return "raising"


class TestBackendFailure:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_raising_backend_fails_its_requests_not_the_shard(
        self, shards, raising_backend, caplog
    ):
        # One request per batch, and every batch waits at a barrier until
        # each shard holds one: the batches run on every shard at once.
        barrier = threading.Barrier(shards, timeout=30.0)

        def raise_together(data, offsets, params, w):
            barrier.wait()
            return _raising_backend(data, offsets, params, w)

        def sort_together(data, offsets, params, w):
            barrier.wait()
            return get_backend("numpy")(data, offsets, params, w)

        register_backend(raising_backend, raise_together)
        register_backend("together", sort_together)
        service = SortService(policy=BatchPolicy(max_batch_requests=1, shards=shards))
        try:
            tickets = [
                service.submit(np.arange(8, dtype=np.int64), backend=raising_backend)
                for _ in range(shards)
            ]
            failed = [ticket.result(30.0) for ticket in tickets]
            assert [r.error for r in failed] == ["ServiceError"] * shards
            assert {r.shard for r in failed} == set(range(shards))
            assert all(r.data.size == 0 for r in failed)
            with pytest.raises(ServiceError):
                failed[0].raise_if_failed()
            assert service.in_flight == 0
            # Each failure is reported with its traceback.
            logged = [r for r in caplog.records if r.exc_info]
            assert len(logged) == shards
            assert "backend exploded" in str(logged[0].exc_info[1])

            # Every shard that ran a failing batch still serves.
            tickets = [
                service.submit(np.arange(8, 0, -1, dtype=np.int64), backend="together")
                for _ in range(shards)
            ]
            later = [ticket.result(30.0) for ticket in tickets]
            assert all(r.ok for r in later)
            assert {r.shard for r in later} == set(range(shards))
            assert all(list(r.data) == list(range(1, 9)) for r in later)

            snap = service.metrics.snapshot()["requests"]
            assert snap["failed"] == shards
            assert snap["completed"] == shards
            assert snap["expired"] == 0
        finally:
            service.close()
        assert service.in_flight == 0

    def test_whole_failing_batch_releases_every_slot(self, raising_backend):
        # A batch of several requests fails as a unit, and the slots it
        # held are free again for blocking submits.
        with SortService(policy=BatchPolicy(queue_capacity=4)) as service:
            tickets = [
                service.submit(p, backend=raising_backend, block=True, timeout=30.0)
                for p in _payloads(4)
            ]
            assert all(t.result(30.0).error == "ServiceError" for t in tickets)
            assert service.in_flight == 0
            again = [
                service.submit(p, backend="numpy", block=True, timeout=30.0)
                for p in _payloads(4)
            ]
            assert all(t.result(30.0).ok for t in again)


class TestDeadlines:
    def test_expired_deadline_yields_error_result(self, gated_backend):
        # The deadline lapses while the only shard is busy at the gate:
        # the request must come back as DeadlineExceededError, not as
        # sorted data.
        backend, gate = gated_backend
        with SortService() as service:
            service.submit(np.arange(8, dtype=np.int64), backend=backend)
            ticket = service.submit(
                np.arange(16, dtype=np.int64), deadline_s=0.001
            )
            time.sleep(0.01)
            gate.set()
            result = ticket.result(30.0)
        assert not result.ok
        assert result.error == "DeadlineExceededError"
        with pytest.raises(ServiceError):
            result.raise_if_failed()

    def test_generous_deadline_completes(self):
        with SortService() as service:
            ticket = service.submit(np.arange(16, dtype=np.int64), deadline_s=30.0)
            result = ticket.result(30.0)
        assert result.ok

    def test_expiry_counted_in_metrics(self, gated_backend):
        backend, gate = gated_backend
        with SortService() as service:
            service.submit(np.arange(8, dtype=np.int64), backend=backend)
            ticket = service.submit(np.arange(8, dtype=np.int64), deadline_s=0.001)
            time.sleep(0.01)
            gate.set()
            ticket.result(30.0)
            snap = service.metrics.snapshot()
        assert snap["requests"]["expired"] == 1


class TestMetrics:
    def test_snapshot_schema(self):
        with Client(service=SortService()) as client:
            client.submit_many(_payloads(10), timeout=60)
            snap = client.metrics_snapshot()
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["params"] == {
            "E": DEFAULT_PARAMS.E,
            "u": DEFAULT_PARAMS.u,
            "w": DEFAULT_W,
        }
        for section, keys in {
            "requests": (
                "submitted", "completed", "shed", "expired",
                "latency_s", "wait_s_mean", "service_s_mean",
            ),
            "batches": (
                "count", "elements", "padded_elements", "fill_ratio_mean",
                "fill_ratio_min", "padding_fraction",
                "requests_per_batch_mean", "cache_hits",
            ),
            "queue": ("capacity", "max_depth", "mean_depth"),
            "modeled": ("total_us", "us_per_request", "us_per_element"),
            "throughput": ("wall_s", "requests_per_s", "elements_per_s"),
        }.items():
            assert set(keys) <= set(snap[section]), section
        assert {"mean", "p50", "p95", "max"} <= set(snap["requests"]["latency_s"])
        assert snap["requests"]["completed"] == 10
        assert snap["batches"]["count"] >= 1
        assert 0.0 < snap["batches"]["fill_ratio_mean"] <= 1.0
        assert snap["counters"]["shared_replays"] >= 0

    def test_to_run_report_round_trips(self, tmp_path):
        with Client(service=SortService()) as client:
            client.submit_many(_payloads(6), timeout=60)
            report = client.service.metrics.to_run_report()
        path = report.write(tmp_path / "service.json")
        loaded = RunReport.read(path)
        metrics = loaded.metrics()
        assert metrics["requests.completed"] == 6.0
        assert "batches.fill_ratio_mean" in metrics
        assert "modeled.us_per_request" in metrics
        assert "counters.shared_replays" in metrics

    def test_recorded_result_payload_is_freed(self):
        metrics = ServiceMetrics(DEFAULT_PARAMS, DEFAULT_W, queue_capacity=4)
        data = np.arange(100, dtype=np.int64)
        payload = weakref.ref(data)
        metrics.record_result(
            SortResult(request_id=0, backend="numpy", data=data, service_s=0.002)
        )
        del data
        gc.collect()
        assert payload() is None
        requests = metrics.snapshot()["requests"]
        assert requests["completed"] == 1
        assert requests["latency_s"]["max"] == requests["service_s_mean"] == 0.002

    def test_snapshot_computes_outside_the_lock(self, monkeypatch):
        # Sorting the latencies, the percentiles and the cost model run on
        # copies, so a scrape never holds up a shard's record_result.
        metrics = ServiceMetrics(DEFAULT_PARAMS, DEFAULT_W, queue_capacity=4)
        for i in range(5):
            metrics.record_result(
                SortResult(request_id=i, backend="cf", service_s=0.001 * (5 - i))
            )
        real = metrics_module.percentile
        seen = []

        def unlocked(values, q):
            assert not metrics._lock.locked()
            seen.append(q)
            return real(values, q)

        monkeypatch.setattr(metrics_module, "percentile", unlocked)
        latency = metrics.snapshot()["requests"]["latency_s"]
        assert seen == [0.50, 0.95]
        assert latency["p50"] == real([0.001, 0.002, 0.003, 0.004, 0.005], 0.50)
        assert latency["max"] == 0.005

    @staticmethod
    def _batch(rng: random.Random, batch_id: int) -> BatchRecord:
        elements = rng.randint(0, 700)
        return BatchRecord(
            batch_id=batch_id,
            backend="cf",
            shard=0,
            requests=rng.randint(1, 12),
            elements=elements,
            padded_elements=-(-elements // 160) * 160,
            service_s=0.001,
            replays=rng.randint(0, 9),
            cache_hits=rng.randint(0, 1),
        )

    def test_batch_totals_match_a_list_reference(self):
        rng = random.Random(7)
        metrics = ServiceMetrics(DEFAULT_PARAMS, DEFAULT_W, queue_capacity=4)
        assert metrics.snapshot()["batches"]["fill_ratio_min"] == 0.0
        records = [self._batch(rng, i) for i in range(5000)]
        for record in records:
            metrics.record_batch(record, Counters())
        batches = metrics.snapshot()["batches"]
        fills = [r.fill_ratio for r in records]
        # A plain left-to-right float sum: Python 3.12's sum() compensates.
        fill_total = 0.0
        for fill in fills:
            fill_total += fill
        hits = sum(r.cache_hits for r in records)
        assert batches["count"] == len(records)
        assert batches["elements"] == sum(r.elements for r in records)
        assert batches["padded_elements"] == sum(r.padded_elements for r in records)
        assert batches["cache_hits"] == hits
        assert batches["fill_ratio_mean"] == fill_total / len(fills)
        assert batches["fill_ratio_min"] == min(fills)
        stats = metrics.to_run_report().stats
        assert (stats.total, stats.hits, stats.misses) == (5000, hits, 5000 - hits)

    def test_batch_recording_keeps_memory_flat(self):
        metrics = ServiceMetrics(DEFAULT_PARAMS, DEFAULT_W, queue_capacity=4)
        record = self._batch(random.Random(3), 0)
        counters = Counters()
        for _ in range(100):
            metrics.record_batch(record, counters)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100_000):
                metrics.record_batch(record, counters)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 << 10, f"{grown} B kept by 10^5 batches"
        assert metrics.snapshot()["batches"]["count"] == 100_100

    def test_thread_safe_recording(self):
        metrics = ServiceMetrics(DEFAULT_PARAMS, DEFAULT_W, queue_capacity=16)

        def hammer(base: int) -> None:
            for i in range(50):
                metrics.record_admitted(i % 7)
                metrics.record_result(
                    SortResult(request_id=base + i, backend="cf", service_s=0.001)
                )

        threads = [threading.Thread(target=hammer, args=(k * 50,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = metrics.snapshot()
        assert snap["requests"]["submitted"] == 200
        assert snap["requests"]["completed"] == 200
