"""The per-shape scratch-buffer arena: check out, reuse, never realloc.

Every batched pass in :mod:`repro.engine.batch` needs large short-lived
work matrices (the stacked round address/sentinel scratch).  Allocating
them per pass costs page faults and allocator churn at exactly the
moment the lane is trying to be fast; the arena keeps released buffers
in per-``(dtype, shape)`` free lists and hands the same memory back on
the next checkout of that shape.

Buffers are 64-byte aligned (one cache line; also the widest vector
unit NumPy will use), which keeps row-major scans of the ``(rows, w)``
scratch matrices from straddling lines.

**Contents contract (zeroed-or-overwritten):** a buffer returned by
:meth:`BufferArena.checkout` holds *arbitrary stale bytes* unless
``zero=True`` was passed — callers must either request zeroing or fully
overwrite the buffer before reading it.  The engine's own call sites
overwrite (``np.copyto`` into the scratch before any read), so they
skip the memset.  The contract is asserted in
``tests/test_engine_arena.py``.

Stats (checkouts, reuse hits, peak resident bytes, ...) surface through
:func:`arena_stats` into :class:`~repro.engine.lane.EngineStats`,
service metrics snapshots (schema 5) and the Prometheus exposition.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import ParameterError

__all__ = ["BufferArena", "ENGINE_ARENA", "arena_stats"]

#: Alignment of every arena buffer, bytes.
ALIGNMENT = 64

_PoolKey = tuple[str, tuple[int, ...]]


def _aligned_empty(shape: tuple[int, ...], dtype: np.dtype) -> npt.NDArray:
    """A C-contiguous uninitialized array whose data is 64-byte aligned."""
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    raw = np.empty(nbytes + ALIGNMENT, dtype=np.uint8)
    offset = (-raw.ctypes.data) % ALIGNMENT
    return raw[offset : offset + nbytes].view(dtype).reshape(shape)


class BufferArena:
    """Thread-safe pool of aligned scratch buffers, keyed by (dtype, shape).

    ``checkout`` returns a buffer of the exact dtype/shape (reusing a
    released one when available); ``release`` returns it to the pool.
    Free memory beyond ``capacity_bytes`` is discarded oldest-first, so
    a burst of odd shapes cannot pin the pool's high-water mark forever.
    """

    #: The :meth:`stats` keys that only grow (Prometheus counters).
    COUNTERS = ("checkouts", "reuse_hits", "releases", "discards")

    def __init__(self, capacity_bytes: int = 256 << 20) -> None:
        if capacity_bytes < 0:
            raise ParameterError(
                f"arena capacity must be >= 0 bytes, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._free: dict[_PoolKey, list[npt.NDArray]] = {}
        #: id(buffer) -> pool key, for every checked-out buffer.
        self._out: dict[int, _PoolKey] = {}
        #: Keeps checked-out buffers alive and release()-able by identity.
        self._out_refs: dict[int, npt.NDArray] = {}
        self._checkouts = 0
        self._reuse_hits = 0
        self._releases = 0
        self._discards = 0
        self._resident_bytes = 0
        self._peak_bytes = 0
        #: Bytes held in the free lists, kept in step by every pool change.
        self._free_bytes = 0

    def checkout(
        self,
        shape: Sequence[int] | int,
        dtype: npt.DTypeLike = np.int64,
        *,
        zero: bool = False,
    ) -> npt.NDArray:
        """Check out one buffer of ``shape``/``dtype``.

        Contents are **undefined** (stale from the previous user) unless
        ``zero=True``; see the module docstring's zeroed-or-overwritten
        contract.
        """
        shp = (int(shape),) if isinstance(shape, int) else tuple(int(s) for s in shape)
        if any(s < 0 for s in shp):
            raise ParameterError(f"negative dimension in arena shape {shp}")
        dt = np.dtype(dtype)
        key: _PoolKey = (dt.str, shp)
        with self._lock:
            self._checkouts += 1
            pool = self._free.get(key)
            if pool:
                buf = pool.pop()
                self._free_bytes -= int(buf.nbytes)
                self._reuse_hits += 1
            else:
                buf = _aligned_empty(shp, dt)
                self._resident_bytes += int(buf.nbytes)
                self._peak_bytes = max(self._peak_bytes, self._resident_bytes)
            self._out[id(buf)] = key
            self._out_refs[id(buf)] = buf
        if zero:
            buf.fill(0)
        return buf

    def release(self, buf: npt.NDArray) -> None:
        """Return ``buf`` (an object obtained from :meth:`checkout`) to the pool."""
        with self._lock:
            key = self._out.pop(id(buf), None)
            if key is None:
                raise ParameterError(
                    "release() of a buffer this arena did not check out"
                )
            del self._out_refs[id(buf)]
            self._releases += 1
            self._free.setdefault(key, []).append(buf)
            self._free_bytes += int(buf.nbytes)
            # Trim oldest free buffers beyond capacity (checked-out
            # buffers are never trimmed — the caller holds them).
            while self._free_bytes > self.capacity_bytes:
                oldest_key = next(k for k, pool in self._free.items() if pool)
                victim = self._free[oldest_key].pop(0)
                if not self._free[oldest_key]:
                    del self._free[oldest_key]
                self._free_bytes -= int(victim.nbytes)
                self._resident_bytes -= int(victim.nbytes)
                self._discards += 1

    @contextmanager
    def lease(
        self,
        shape: Sequence[int] | int,
        dtype: npt.DTypeLike = np.int64,
        *,
        zero: bool = False,
    ) -> Iterator[npt.NDArray]:
        """Context-managed :meth:`checkout`/:meth:`release` pair."""
        buf = self.checkout(shape, dtype, zero=zero)
        try:
            yield buf
        finally:
            self.release(buf)

    def stats(self) -> dict[str, float]:
        """Checkout/reuse/byte counters, as plain numbers for telemetry."""
        with self._lock:
            checkouts = self._checkouts
            return {
                "checkouts": float(checkouts),
                "reuse_hits": float(self._reuse_hits),
                "releases": float(self._releases),
                "discards": float(self._discards),
                "live": float(len(self._out)),
                "resident_bytes": float(self._resident_bytes),
                "peak_bytes": float(self._peak_bytes),
                "reuse_rate": (
                    (self._reuse_hits / checkouts) if checkouts else 0.0
                ),
            }

    def clear(self) -> None:
        """Drop all free buffers and reset the counters.

        Checked-out buffers stay valid but are forgotten: releasing one
        after ``clear()`` raises, which is what a test wants to hear.
        """
        with self._lock:
            self._free.clear()
            self._out.clear()
            self._out_refs.clear()
            self._checkouts = 0
            self._reuse_hits = 0
            self._releases = 0
            self._discards = 0
            self._resident_bytes = 0
            self._peak_bytes = 0
            self._free_bytes = 0


#: The process-global arena every engine call site shares.
ENGINE_ARENA = BufferArena()


def arena_stats() -> dict[str, float]:
    """Stats of the global :data:`ENGINE_ARENA` (for telemetry exports)."""
    return ENGINE_ARENA.stats()
