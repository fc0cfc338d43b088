"""Fixtures shared by the test modules."""

from __future__ import annotations

import threading

import pytest

import repro.engine.batch as batch
from repro.service import backends
from repro.service.backends import get_backend, register_backend


@pytest.fixture
def isolated_registry(monkeypatch):
    """Let a test register backends that vanish when it ends."""
    monkeypatch.setattr(backends, "_REGISTRY", dict(backends._REGISTRY))


@pytest.fixture
def gated_backend(isolated_registry):
    """A ``numpy`` backend whose calls block until the returned gate opens.

    A request on it keeps its shard busy, so later requests stay queued
    for as long as the test holds the gate shut.
    """
    gate = threading.Event()

    def gated(data, offsets, params, w):
        assert gate.wait(30.0), "gate never opened"
        return get_backend("numpy")(data, offsets, params, w)

    register_backend("gated", gated)
    yield "gated", gate
    gate.set()


@pytest.fixture
def stack_passes(monkeypatch):
    """How many levels each pass of a lane level stack profiles, in order."""
    levels: list[int] = []
    real = batch._search_pass

    def spy(acc, cuts, *args, **kwargs):
        levels.append(cuts.shape[0])
        return real(acc, cuts, *args, **kwargs)

    monkeypatch.setattr(batch, "_search_pass", spy)
    return levels
