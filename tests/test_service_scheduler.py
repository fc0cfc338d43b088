"""The work-conserving scheduler: idle shards pull batches off the backlog.

Most tests hold the first batch at a gate: its callback blocks on an
``Event`` until the test opens it, so later requests queue behind it and
the test controls exactly what the shard finds when it comes back.  A
flush here is one batch an idle shard cuts from the backlog.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from repro.config import SortParams
from repro.service import BatchPolicy, BatchScheduler, PendingRequest, SortRequest

PARAMS = SortParams(E=5, u=8)  # tile = 40


class _Gate:
    """Thread-safe capture of the scheduler's callbacks.

    With ``hold=True`` the first batch's callback blocks until
    :meth:`open` is called; every later batch runs straight through.
    """

    def __init__(self, hold: bool = True) -> None:
        self.lock = threading.Lock()
        self.batches: list[tuple[list[int], str, int, int]] = []
        self.expired: list[int] = []
        self.first_started = threading.Event()
        self._open = threading.Event()
        if not hold:
            self._open.set()

    def on_batch(self, batch, members, taken_at, shard) -> None:
        assert [p.request for p in members] == batch.requests
        with self.lock:
            self.batches.append(
                ([r.request_id for r in batch.requests], batch.backend, batch.batch_id, shard)
            )
        self.first_started.set()
        assert self._open.wait(10.0), "gate never opened"

    def on_expired(self, pending, taken_at) -> None:
        with self.lock:
            self.expired.append(pending.request.request_id)

    def open(self) -> None:
        self._open.set()

    def ids(self) -> list[list[int]]:
        with self.lock:
            return [ids for ids, _, _, _ in self.batches]


def _pending(
    rid: int, n: int = 5, backend: str = "cf", deadline_s: float | None = None
) -> PendingRequest:
    now = time.monotonic()
    return PendingRequest(
        request=SortRequest(
            request_id=rid,
            data=np.arange(n, dtype=np.int64)[::-1].copy(),
            backend=backend,
        ),
        submitted_at=now,
        deadline_at=None if deadline_s is None else now + deadline_s,
    )


def _close(scheduler: BatchScheduler) -> None:
    """``close()`` with a time bound: it must drain and return."""
    closer = threading.Thread(target=scheduler.close)
    closer.start()
    closer.join(10.0)
    assert not closer.is_alive(), "close() did not return"


def _held(gate: _Gate, policy: BatchPolicy) -> BatchScheduler:
    """A scheduler whose shard is busy with request 100 at the gate."""
    scheduler = BatchScheduler(
        policy, PARAMS, on_batch=gate.on_batch, on_expired=gate.on_expired
    )
    assert scheduler.enqueue(_pending(100, backend="gate"))
    assert gate.first_started.wait(10.0)
    return scheduler


class TestFlushTriggers:
    def test_idle_shard_takes_a_lone_request_at_once(self):
        gate = _Gate(hold=False)
        scheduler = BatchScheduler(
            BatchPolicy(), PARAMS, on_batch=gate.on_batch, on_expired=gate.on_expired
        )
        try:
            started = time.monotonic()
            scheduler.enqueue(_pending(0))
            # Far below every cap: nothing but an idle shard can take it.
            assert gate.first_started.wait(10.0)
            assert time.monotonic() - started < 5.0
            assert gate.ids() == [[0]]
        finally:
            _close(scheduler)

    def test_queued_requests_for_one_backend_form_one_batch(self):
        gate = _Gate()
        scheduler = _held(gate, BatchPolicy())
        for rid in range(4):
            scheduler.enqueue(_pending(rid))
        gate.open()
        _close(scheduler)
        assert gate.ids() == [[100], [0, 1, 2, 3]]

    def test_request_caps_split_the_backlog(self):
        gate = _Gate()
        scheduler = _held(gate, BatchPolicy(max_batch_tiles=64, max_batch_requests=3))
        for rid in range(8):
            scheduler.enqueue(_pending(rid))
        gate.open()
        _close(scheduler)
        assert [len(ids) for ids in gate.ids()[1:]] == [3, 3, 2]
        assert sum(gate.ids()[1:], []) == list(range(8))

    def test_element_capacity_trigger(self):
        # One tile of capacity (40 elements): 15 + 20 fit, 10 more would
        # not; then 10 + 30 fill the next tile exactly.
        gate = _Gate()
        scheduler = _held(gate, BatchPolicy(max_batch_tiles=1))
        for rid, n in enumerate([15, 20, 10, 30]):
            scheduler.enqueue(_pending(rid, n))
        gate.open()
        _close(scheduler)
        assert gate.ids()[1:] == [[0, 1], [2, 3]]

    def test_oldest_backend_goes_first(self):
        gate = _Gate()
        scheduler = _held(gate, BatchPolicy())
        for rid, backend in enumerate(["cf", "numpy", "cf"]):
            scheduler.enqueue(_pending(rid, backend=backend))
        gate.open()
        _close(scheduler)
        with gate.lock:
            batches = [(ids, backend) for ids, backend, _, _ in gate.batches[1:]]
        assert batches == [([0, 2], "cf"), ([1], "numpy")]

    def test_close_flushes_whatever_is_pending(self):
        gate = _Gate()
        scheduler = _held(gate, BatchPolicy(max_batch_requests=2))
        for rid, backend in enumerate(["cf", "numpy", "cf", "kway", "cf"]):
            scheduler.enqueue(_pending(rid, backend=backend))
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        # close() waits for the drain; new requests are refused meanwhile.
        probe = 1000
        deadline = time.monotonic() + 10.0
        while scheduler.enqueue(_pending(probe)) and time.monotonic() < deadline:
            probe += 1
            time.sleep(0.001)
        gate.open()
        closer.join(10.0)
        assert not closer.is_alive()
        # Everything queued before close() began ran; the refused probe did not.
        drained = sorted(sum(gate.ids()[1:], []))
        assert drained == list(range(5)) + list(range(1000, probe))

    def test_batch_ids_increase_across_flushes(self):
        gate = _Gate()
        scheduler = _held(gate, BatchPolicy(max_batch_requests=1))
        for rid in range(3):
            scheduler.enqueue(_pending(rid))
        gate.open()
        _close(scheduler)
        with gate.lock:
            batch_ids = [batch_id for _, _, batch_id, _ in gate.batches]
        assert batch_ids == [0, 1, 2, 3]

    def test_two_shards_run_two_batches_at_once(self):
        # Each batch waits at a two-party barrier: it only passes if the
        # other shard is running the other batch at the same time.
        barrier = threading.Barrier(2, timeout=10.0)
        seen: list[int] = []
        lock = threading.Lock()

        def on_batch(batch, members, taken_at, shard) -> None:
            barrier.wait()
            with lock:
                seen.append(shard)

        scheduler = BatchScheduler(
            BatchPolicy(shards=2), PARAMS, on_batch=on_batch, on_expired=lambda p, t: None
        )
        scheduler.enqueue(_pending(0, backend="cf"))
        scheduler.enqueue(_pending(1, backend="numpy"))
        _close(scheduler)
        assert sorted(seen) == [0, 1]

    def test_concurrent_submitters_lose_no_request(self):
        # More threads than cores and a short switch interval: a lost or
        # doubled update to the shared queues would drop or repeat an id.
        gate = _Gate(hold=False)
        scheduler = BatchScheduler(
            BatchPolicy(max_batch_requests=5, shards=3),
            PARAMS,
            on_batch=gate.on_batch,
            on_expired=gate.on_expired,
        )
        backends = ["cf", "numpy", "kway"]

        def submit(worker: int) -> None:
            for i in range(50):
                rid = worker * 50 + i
                assert scheduler.enqueue(_pending(rid, backend=backends[rid % 3]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            submitters = [threading.Thread(target=submit, args=(k,)) for k in range(8)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(10.0)
                assert not thread.is_alive()
            _close(scheduler)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(sum(gate.ids(), [])) == list(range(400))
        with gate.lock:
            batch_ids = sorted(batch_id for _, _, batch_id, _ in gate.batches)
            assert all(len(ids) <= 5 for ids, _, _, _ in gate.batches)
        assert batch_ids == list(range(len(batch_ids)))


class TestExpiryAtFlush:
    def test_already_expired_requests_skip_batching(self):
        gate = _Gate()
        scheduler = _held(gate, BatchPolicy())
        scheduler.enqueue(_pending(0, deadline_s=0.001))
        scheduler.enqueue(_pending(1))
        time.sleep(0.01)  # the deadline lapses while the shard is busy
        gate.open()
        _close(scheduler)
        with gate.lock:
            assert gate.expired == [0]
        assert gate.ids() == [[100], [1]]
