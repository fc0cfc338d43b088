"""Timing shims the traced run installs around the program's layer entry points.

Nothing in ``src/`` is edited: backends are re-registered through the
public ``register_backend(name, timed(get_backend(name)))``, and the other
entry points are replaced as module attributes where their callers look
them up.  Each call becomes one :class:`~harness.Span` (name, start, end,
parent, thread, batch id); spans stay in memory until :meth:`Recorder.dump`.

Spans measure wall time on the calling thread, on the service's own
clock (``time.monotonic``) so they line up with its timestamps.  The service's two shard
threads share the interpreter lock, so a span includes time spent waiting
for it: reconcile spans per request and per thread, never against the
run's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from harness import Span
from layers import BACKENDS

_BatchFn = Callable[[tuple[Any, ...]], int]
#: Work one call covered, from its arguments and its result.
_CountFn = Callable[[tuple[Any, ...], Any], int]


def _shared_rounds(args: tuple[Any, ...], result: Any) -> int:
    """Simulated shared-memory rounds of one mergesort tile or block."""
    return int(result[1].total.shared_rounds)


#: ``(module, attribute, span name, batch id of the call, work count of the call)``.
#: A ``None`` batch extractor inherits the parent span's batch id.
MODULE_SHIMS: tuple[tuple[str, str, str, _BatchFn | None, _CountFn | None], ...] = (
    ("repro.service.service", "run_batch", "service.run_batch",
     lambda a: a[0].batch_id, lambda a, r: len(a[0].requests)),
    ("repro.service.jobs", "batch_job", "runner.batch_job", None, None),
    ("repro.service.jobs", "execute", "runner.execute", None, None),
    ("repro.service.jobs", "decode_outcome", "runner.decode_outcome", None, None),
    ("repro.engine.backend", "pack_tiles", "engine.pack_tiles", None, None),
    ("repro.engine.backend", "batched_blocksort_profile", "engine.profile",
     None, lambda a, r: int(a[0].shape[0])),
    ("repro.mergesort.pipeline", "blocksort_tile", "mergesort.blocksort_tile",
     None, _shared_rounds),
    ("repro.mergesort.pipeline", "cf_merge_block", "mergesort.cf_merge_block",
     None, _shared_rounds),
    ("repro.mergesort.pipeline", "serial_merge_block", "mergesort.serial_merge_block",
     None, _shared_rounds),
)


class Recorder:
    """Collects spans from every thread; ``phase`` tags what the load was doing."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack: list[tuple[int, int]] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        batch_of: _BatchFn | None = None,
        count_of: _CountFn | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as one span called ``name``."""

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent, parent_batch = stack[-1] if stack else (None, -1)
            span_id = next(self._ids)
            batch = batch_of(args) if batch_of is not None else parent_batch
            stack.append((span_id, batch))
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            count = count_of(args, result) if count_of is not None else 0
            self.spans.append(Span(
                span_id, name, parent, threading.get_ident(), batch,
                start, end, count, self.phase,
            ))
            return result

        return timed

    @contextlib.contextmanager
    def recording(self, phase: str) -> Iterator[None]:
        """Shims installed and spans tagged ``phase`` for the ``with`` body."""
        uninstall = install(self, BACKENDS)
        self.phase = phase
        try:
            yield
        finally:
            self.phase = ""
            uninstall()

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                    "batch": s.batch, "start": s.start, "end": s.end,
                    "count": s.count, "phase": s.phase,
                }) + "\n")


def install(recorder: Recorder, backends: tuple[str, ...]) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps them."""
    from repro.service.backends import get_backend, register_backend

    undo: list[Callable[[], None]] = []
    for module_name, attr, span_name, batch_of, count_of in MODULE_SHIMS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, recorder.wrap(span_name, original, batch_of, count_of))
        undo.append(functools.partial(setattr, module, attr, original))
    for name in backends:
        original = get_backend(name)
        register_backend(
            name, recorder.wrap(f"backend.{name}", original, count_of=lambda a, r: len(a[0]))
        )
        undo.append(functools.partial(register_backend, name, original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall
