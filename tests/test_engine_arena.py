"""The scratch-buffer arena's contract: reuse, isolation, accounting.

The arena (:mod:`repro.engine.arena`) hands the batched engine its large
short-lived work matrices.  These tests pin the three things callers
lean on: concurrently checked-out buffers never alias (even at equal
shapes), buffer contents follow the documented zeroed-or-overwritten
contract (stale unless ``zero=True``), and the stats the telemetry layer
exports (checkouts, reuse hits, peak resident bytes) track reality.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.arena import ALIGNMENT, BufferArena, ENGINE_ARENA, arena_stats
from repro.errors import ParameterError


class TestCheckoutRelease:
    def test_checkout_shape_dtype_and_alignment(self):
        arena = BufferArena()
        buf = arena.checkout((3, 5), np.int32)
        assert buf.shape == (3, 5)
        assert buf.dtype == np.int32
        assert buf.flags.c_contiguous
        assert buf.ctypes.data % ALIGNMENT == 0
        arena.release(buf)

    def test_int_shape_means_one_dimension(self):
        arena = BufferArena()
        buf = arena.checkout(7)
        assert buf.shape == (7,)
        arena.release(buf)

    def test_release_returns_buffer_for_reuse(self):
        arena = BufferArena()
        first = arena.checkout((4, 4), np.int64)
        arena.release(first)
        second = arena.checkout((4, 4), np.int64)
        # Same memory handed back: that is the whole point of the pool.
        assert second.ctypes.data == first.ctypes.data
        assert arena.stats()["reuse_hits"] == 1.0

    def test_release_of_unknown_buffer_raises(self):
        arena = BufferArena()
        with pytest.raises(ParameterError):
            arena.release(np.zeros(4, dtype=np.int64))

    def test_double_release_raises(self):
        arena = BufferArena()
        buf = arena.checkout(4)
        arena.release(buf)
        with pytest.raises(ParameterError):
            arena.release(buf)

    def test_negative_shape_and_capacity_rejected(self):
        with pytest.raises(ParameterError):
            BufferArena(capacity_bytes=-1)
        arena = BufferArena()
        with pytest.raises(ParameterError):
            arena.checkout((-1, 4))

    def test_lease_checks_out_and_releases(self):
        arena = BufferArena()
        with arena.lease((2, 3), np.int16) as buf:
            assert buf.shape == (2, 3)
            assert arena.stats()["live"] == 1.0
        assert arena.stats()["live"] == 0.0
        assert arena.stats()["releases"] == 1.0


class TestNoAliasing:
    def test_concurrent_checkouts_of_the_same_shape_never_alias(self):
        arena = BufferArena()
        bufs = [arena.checkout((8, 8), np.int64) for _ in range(6)]
        for i, a in enumerate(bufs):
            a.fill(i)
        for i, a in enumerate(bufs):
            assert (a == i).all(), "a concurrently checked-out buffer aliased"
        spans = sorted(
            (b.ctypes.data, b.ctypes.data + b.nbytes) for b in bufs
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        for b in bufs:
            arena.release(b)

    def test_interleaved_shapes_reuse_per_shape_pools(self):
        arena = BufferArena()
        a1 = arena.checkout((4, 8), np.int64)
        b1 = arena.checkout((8, 4), np.int64)  # same nbytes, different shape
        a1_addr, b1_addr = a1.ctypes.data, b1.ctypes.data
        arena.release(a1)
        arena.release(b1)
        # Re-checkout in the opposite order: each shape gets its own
        # buffer back — pools are keyed by (dtype, shape), not size.
        b2 = arena.checkout((8, 4), np.int64)
        a2 = arena.checkout((4, 8), np.int64)
        assert b2.ctypes.data == b1_addr
        assert a2.ctypes.data == a1_addr
        arena.release(a2)
        arena.release(b2)

    def test_dtype_is_part_of_the_pool_key(self):
        arena = BufferArena()
        i64 = arena.checkout(8, np.int64)
        arena.release(i64)
        f64 = arena.checkout(8, np.float64)  # same nbytes, different dtype
        assert f64.dtype == np.float64
        assert arena.stats()["reuse_hits"] == 0.0
        arena.release(f64)

    def test_thread_checkouts_do_not_alias(self):
        arena = BufferArena()
        seen: list[int] = []
        lock = threading.Lock()

        def worker() -> None:
            buf = arena.checkout((16, 16), np.int64)
            with lock:
                seen.append(buf.ctypes.data)
            arena.release(buf)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 8
        assert arena.stats()["live"] == 0.0


class TestContentsContract:
    def test_zero_true_returns_zeroed_memory(self):
        arena = BufferArena()
        buf = arena.checkout((4, 4), np.int64)
        buf.fill(77)
        arena.release(buf)
        again = arena.checkout((4, 4), np.int64, zero=True)
        assert (again == 0).all()
        arena.release(again)

    def test_default_checkout_hands_back_stale_bytes(self):
        # The zeroed-or-overwritten contract, asserted from the stale
        # side: without zero=True the reused buffer still holds the
        # previous user's data, so callers MUST fully overwrite it
        # before reading (the engine's call sites copyto before use).
        arena = BufferArena()
        buf = arena.checkout((4, 4), np.int64)
        buf.fill(123456)
        arena.release(buf)
        again = arena.checkout((4, 4), np.int64)
        assert again.ctypes.data == buf.ctypes.data
        assert (again == 123456).all(), "expected stale bytes, got cleared memory"
        arena.release(again)


class TestCapacityAndStats:
    def test_free_memory_beyond_capacity_is_discarded(self):
        one = int(np.dtype(np.int64).itemsize) * 64
        arena = BufferArena(capacity_bytes=one)  # one 64-elem buffer fits
        a = arena.checkout(64, np.int64)
        b = arena.checkout(64, np.int64)
        arena.release(a)
        arena.release(b)  # free = 2 buffers > capacity: oldest discarded
        stats = arena.stats()
        assert stats["discards"] == 1.0
        assert stats["resident_bytes"] == float(one)

    def test_stats_track_checkouts_reuse_and_peak(self):
        arena = BufferArena()
        a = arena.checkout((2, 2), np.int64)
        b = arena.checkout((2, 2), np.int64)
        peak = arena.stats()["peak_bytes"]
        assert peak == float(a.nbytes + b.nbytes)
        arena.release(a)
        arena.release(b)
        c = arena.checkout((2, 2), np.int64)
        stats = arena.stats()
        assert stats["checkouts"] == 3.0
        assert stats["reuse_hits"] == 1.0
        assert stats["reuse_rate"] == pytest.approx(1 / 3)
        assert stats["peak_bytes"] == peak  # high-water mark persists
        assert stats["live"] == 1.0
        arena.release(c)

    def test_reuse_rate_zero_checkout_guard(self):
        assert BufferArena().stats()["reuse_rate"] == 0.0

    def test_clear_resets_counters_and_forgets_checkouts(self):
        arena = BufferArena()
        buf = arena.checkout(8)
        arena.clear()
        stats = arena.stats()
        assert stats["checkouts"] == stats["reuse_hits"] == 0.0
        assert stats["resident_bytes"] == stats["peak_bytes"] == 0.0
        with pytest.raises(ParameterError):
            arena.release(buf)  # forgotten by clear()

    def test_global_arena_stats_shape(self):
        stats = arena_stats()
        assert set(stats) == {
            "checkouts", "reuse_hits", "releases", "discards", "live",
            "resident_bytes", "peak_bytes", "reuse_rate",
        }
        assert all(isinstance(v, float) for v in stats.values())
        assert stats is not ENGINE_ARENA.stats()  # a fresh dict each call


#: Pool shapes of differing sizes (64, 16, 128 and 48 bytes).
_SHAPES = [((8,), np.int64), ((4, 4), np.int8), ((16,), np.int64), ((2, 3), np.int64)]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("checkout"), st.integers(0, len(_SHAPES) - 1)),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("clear"), st.just(0)),
    ),
    max_size=60,
)


class _RecomputingPool:
    """The pool bookkeeping as a reference: free bytes re-summed per release."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.free: dict[tuple, list[tuple[int, int]]] = {}
        self.discarded: list[int] = []

    def checkout(self, key: tuple) -> int | None:
        pool = self.free.get(key)
        return pool.pop()[0] if pool else None

    def release(self, key: tuple, ident: int, nbytes: int) -> None:
        self.free.setdefault(key, []).append((ident, nbytes))
        free = sum(n for pool in self.free.values() for _, n in pool)
        while free > self.capacity:
            oldest = next(k for k, pool in self.free.items() if pool)
            ident, n = self.free[oldest].pop(0)
            if not self.free[oldest]:
                del self.free[oldest]
            free -= n
            self.discarded.append(ident)


class TestRunningFreeBytes:
    @settings(max_examples=60, deadline=None)
    @given(_OPS, st.sampled_from([0, 100, 200, 10_000]))
    def test_running_total_and_trim_order_match_a_recomputed_pool(self, ops, capacity):
        arena = BufferArena(capacity_bytes=capacity)
        model = _RecomputingPool(capacity)
        held = []  # every buffer ever handed out stays alive: ids stay unique
        out = []
        for op, arg in ops:
            if op == "checkout":
                shape, dtype = _SHAPES[arg]
                key = (np.dtype(dtype).str, shape)
                reused = model.checkout(key)
                buf = arena.checkout(shape, dtype)
                if reused is not None:
                    assert id(buf) == reused
                held.append(buf)
                out.append((key, buf))
            elif op == "release" and out:
                key, buf = out.pop(arg % len(out))
                arena.release(buf)
                model.release(key, id(buf), buf.nbytes)
            elif op == "clear":
                arena.clear()
                model = _RecomputingPool(capacity)
                out.clear()
            pooled = [b for pool in arena._free.values() for b in pool]
            assert arena._free_bytes == sum(b.nbytes for b in pooled)
            assert {k: [id(b) for b in pool] for k, pool in arena._free.items()} == {
                k: [ident for ident, _ in pool] for k, pool in model.free.items()
            }
            assert arena.stats()["discards"] == len(model.discarded)
