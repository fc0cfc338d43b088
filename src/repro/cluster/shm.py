"""Spawn-safe shared-memory int64 buffers for zero-copy partitions.

The pool hands worker processes *names*, never arrays: the driver
allocates a :class:`SharedInt64` block, writes the input partition into
it, and ships ``(name, length)`` inside the task dictionary; the worker
attaches with :func:`attach_int64`, operates on a NumPy view, and closes
— no pickling of payload data, no per-task copies across the process
boundary.  This is the ``multiprocessing.shared_memory`` idiom with two
repo-specific rules baked in:

* **Ownership** — only the driver creates and unlinks; workers attach
  and close.  CPython < 3.13 registers attachments with the
  ``resource_tracker`` too, but ``spawn`` pool workers inherit the
  driver's tracker, so the duplicate registration collapses into the
  driver's own and must **not** be unregistered worker-side (that would
  strip the driver's entry and make the eventual ``unlink`` complain).
* **Zero-length safety** — a zero-element buffer still allocates one
  page (``SharedMemory`` refuses ``size=0``) but exposes an exact
  zero-length view, so empty partitions flow through the pool unchanged.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import numpy.typing as npt

from repro.cluster.stats import CLUSTER
from repro.errors import ParameterError

__all__ = ["SharedInt64", "attach_int64"]

IntArray = npt.NDArray[np.int64]

_ITEMSIZE = 8


class SharedInt64:
    """Driver-owned shared block holding ``n`` int64 keys."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ParameterError(f"need n >= 0, got n={n}")
        self.n = n
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(n, 1) * _ITEMSIZE
        )
        CLUSTER.add(shm_bytes_shared=self._shm.size)

    @property
    def name(self) -> str:
        """The OS-level name workers attach by."""
        return self._shm.name

    @property
    def array(self) -> IntArray:
        """A writable ``(n,)`` int64 view of the shared block."""
        return np.ndarray((self.n,), dtype=np.int64, buffer=self._shm.buf)

    def fill_from(self, data: IntArray) -> None:
        """Copy ``data`` (length ``n``) into the shared block."""
        if len(data) != self.n:
            raise ParameterError(
                f"shared buffer holds {self.n} keys, got {len(data)}"
            )
        if self.n:
            self.array[:] = data

    def close(self) -> None:
        """Detach the driver's mapping and unlink the OS object."""
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedInt64":
        """Context-manager entry: the block is already allocated."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: detach and unlink."""
        self.close()


def attach_int64(name: str, n: int) -> tuple[shared_memory.SharedMemory, IntArray]:
    """Attach to a driver-owned block; returns ``(handle, view)``.

    The caller must ``handle.close()`` when done (and must **not**
    unlink — the driver owns the block's lifetime; see the module
    docstring for the resource-tracker reasoning).
    """
    handle = shared_memory.SharedMemory(name=name)
    view: IntArray = np.ndarray((n,), dtype=np.int64, buffer=handle.buf)
    return handle, view
